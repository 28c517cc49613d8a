(** Bit-parallel batched differential fault simulation.

    Packs up to 64 faults into the lanes of possibility-plane words
    ({!Fsim_backend.Lanes}) and runs one event-driven cone evaluation
    over the union of the lanes' fanout cones against the shared
    baseline tape, instead of one scalar {!Fsim.diff_run} per fault.
    Cell-content patches (truth table, pin inversion, flip-flop init,
    clock-enable) apply word-parallel through per-lane masks, and a
    rewired LUT row is gathered into the pin words of its lane before
    the one word-parallel LUT evaluation; rewired resolve rows and
    appended resolve nodes are spliced per lane.

    Per-lane verdicts are bit-identical to the scalar differential
    engine fault by fault: same first error cycle, same convergence
    cycle, under the same pessimistic-glitch and seed-replay rules.
    That includes lanes whose circuit is combinationally cyclic (a
    bridge closing a loop, or a cone running through a cyclic SCC of
    the base graph): those are Kleene-iterated inside the batch.
    On request each lane also carries the scalar engine's forensic
    divergence provenance, field for field. *)

type t
(** Per-worker batch context over one base simulator: the base reader
    CSR, the bel map and the plane/state arrays, reused across every
    batch the worker executes. *)

val create : Fsim.t -> Fsim.cone -> width:int -> t
(** [create base cone ~width] with [width] 32 or 64 (lanes per batch).
    [base] is the worker's golden simulator; [cone] the snapshot its
    build produced.  Raises [Invalid_argument] on any other width. *)

val width : t -> int

val csr : t -> int array * int array
(** The base reader CSR [(off, succ)], for handing to
    {!Fsim.fault_delta}. *)

val bel_of : t -> int array
(** The base {!Fsim.bel_map}, for handing to {!Fsim.fault_delta}. *)

type verdict = {
  bv_error_cycle : int;  (** first watched-output error, [-1] = silent *)
  bv_converge_cycle : int;
      (** convergence early-exit boundary, [-1] = ran every cycle *)
  bv_detect_cycle : int;
      (** first cycle a trailing detection watch entry left its all-zero
          expectation, [-1] = never (always [-1] when [ndetect = 0]) *)
  bv_provenance : Fsim.provenance option;
      (** with [?voters]: equal to what {!Fsim.diff_provenance}
          reports after a forensic {!Fsim.diff_run} of the lane's fault;
          [None] without *)
}
(** Exactly {!Fsim.diff_run}'s
    [(first_error_cycle, converge_cycle, detect_cycle)] triple for the
    lane's fault. *)

val run :
  t ->
  ?ndetect:int ->
  ?voters:Bytes.t ->
  tape:Fsim.tape ->
  expected:Tmr_logic.Logic.t array array ->
  watch:int array ->
  lanes:(Fsim.dseeds * Fsim.delta) array ->
  unit ->
  verdict array
(** [run t ~tape ~expected ~watch ~lanes ()] simulates all faults of
    [lanes] (at most [width t]) in one batch against the baseline
    [tape] and returns one verdict per lane.  Each lane is a
    {!Fsim.patch_delta} or {!Fsim.fault_delta} overlay with the seed
    rule its scalar {!Fsim.diff_run} would get ([Seed_node] for a
    patch, [Seed_derived] for a reroute).  [watch] are the base
    simulator's watch nodes and [expected.(cycle).(i)] the golden value
    of [watch.(i)] — the same arrays a scalar {!Fsim.diff_run} of these
    faults would receive.

    [ndetect] marks the last [ndetect] entries of [watch] as in-circuit
    detection flags with all-zero expected rows, exactly as in
    {!Fsim.diff_run}: a lane whose functional verdict has landed keeps
    simulating while a detection verdict is still pending, and vice
    versa, so detection latency matches the scalar engine bit for bit.
    Defaults to [0] (every watch entry functional — the historical
    contract).

    [voters] (per base node, ['\001'] = voter node) turns on per-lane
    provenance ([bv_provenance]): each cycle folds the lanes'
    divergence words into a per-node ever-diverged word, and after the
    run one BFS per lane over its own effective graph yields the cone,
    the depths and the voter check.  Without it the per-cycle loop pays
    one boolean test.

    Every lane runs in the batch and gets a verdict, cyclic ones
    included: a bridge that closes a combinational loop, or a cone
    through a cyclic SCC of the base graph.  Such loops are
    Kleene-iterated inside the batch: cut nodes meeting every cycle
    restart from X whenever their SCC of the union graph is dirty, and
    rounds of sweeps run until the cuts stop moving.  Node evaluation is
    monotone in the information order (X below Zero and One), so this
    reaches the least fixpoint, which is what the scalar engine and the
    rebuild oracle compute.  A lane with a seed on a cycle never
    replay-converges, as in the scalar engine.

    Raises [Invalid_argument] on a [Seed_node] lane whose overlay
    rewires rows or appends nodes, or on overlay nodes outside the base
    graph; [Failure] if a fixpoint iteration runs past its n + 1 bound
    (a non-monotone node — a broken invariant, never a slow loop). *)

val last_cone : t -> int array
(** The union cone of the last {!run}, in evaluation order (test
    hook). *)

type work = {
  evals : int;
      (** sub-words (32 lanes of one node) computed by the LUT or
          resolve kernel, at evaluation and at the register clock *)
  quiet : int;
      (** LUT sub-words short-circuited to the tape: no lane with an
          overlay at the node, no diverged lane on any of its inputs *)
  splices : int;
      (** single-lane scalar splices: rewired resolve rows and appended
          resolve nodes *)
}
(** Kernel work counts of one {!run}. *)

val work : t -> work
(** The work of the last {!run}. *)
