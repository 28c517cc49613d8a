(** Bit-parallel batched differential fault simulation: the campaign's
    one fast engine.

    Packs up to {!width} faults into the lanes of one pair of
    possibility-plane words per node ({!Fsim_backend.Lanes}) and runs
    one dense evaluation of the union
    of the lanes' fanout cones against the shared baseline tape: the
    cone is compiled once per batch, and every cycle sweeps it in order
    and settles its union SCCs.  Cell-content patches (truth table, pin inversion,
    flip-flop init, clock-enable) apply word-parallel through per-lane
    masks, a rewired LUT row is gathered into the pin words of its lane
    before the one word-parallel LUT evaluation, and a rewired resolve
    row or appended resolve node is resolved word-parallel over its
    lane's row and blended in on that lane's bit.  A lane can
    also flip a node between combinational and registered (an out_sel
    fault) and read a watch position from a node of its own.

    Per-lane verdicts are exact: the same first error cycle, detection
    cycle and watched behaviour a rebuild of the faulty configuration
    replayed over the whole stimulus gives (the rebuild-every-fault
    oracle, {!Fsim.build}).  That includes lanes whose circuit is
    combinationally cyclic (a bridge closing a loop, a register turned
    combinational inside its own feedback loop, or a cone running
    through a cyclic SCC of the base graph): those are Kleene-iterated
    inside the batch.  On request each lane also carries its forensic
    divergence provenance. *)

type t
(** Per-worker batch context over one base simulator: the base reader
    CSR, the bel map and the plane/state arrays, reused across every
    batch the worker executes. *)

val width : int
(** Lanes per batch: {!Fsim_backend.Lanes.word_bits}, every bit of an
    immediate int (63 on 64-bit hosts, the sign bit included). *)

val create : Fsim.t -> Fsim.cone -> t
(** [create base cone]: [base] is the worker's golden simulator, [cone]
    the snapshot its build produced. *)

val csr : t -> int array * int array
(** The base reader CSR [(off, succ)], for handing to
    {!Fsim.fault_delta}. *)

val bel_of : t -> int array
(** The base {!Fsim.bel_map}, for handing to {!Fsim.fault_delta}. *)

type verdict = {
  bv_error_cycle : int;  (** first watched-output error, [-1] = silent *)
  bv_detect_cycle : int;
      (** first cycle a trailing detection watch entry left its all-zero
          expectation, [-1] = never (always [-1] when [ndetect = 0]) *)
  bv_provenance : Fsim.provenance option;
      (** with [?voters]: the lane's divergence provenance; [None]
          without *)
}

val run :
  t ->
  ?ndetect:int ->
  ?voters:Bytes.t ->
  tape:Fsim.tape ->
  expected:Tmr_logic.Logic.t array array ->
  watch:int array ->
  lanes:Fsim.delta array ->
  unit ->
  verdict array
(** [run t ~tape ~expected ~watch ~lanes ()] simulates all faults of
    [lanes] (one to {!width}) in one batch against the baseline [tape]
    and returns one verdict per lane.  Each lane is an overlay
    ({!Fsim.delta_of_plan}); its fanout cone is rooted at the nodes
    whose function differs from the base: the cell or kind override
    when it changes the stored value, the rewired rows that differ from
    the base rows, and every appended node.  [watch] are the base
    simulator's watch nodes and
    [expected.(cycle).(i)] the golden value of [watch.(i)]; a lane's
    [dl_watch] entries name the node it reads at a position instead.

    [ndetect] marks the last [ndetect] entries of [watch] as in-circuit
    detection flags with all-zero expected rows: a lane whose
    functional verdict has landed keeps simulating while a detection
    verdict is still pending, and vice versa.  Defaults to [0] (every
    watch entry functional).

    A lane runs until its verdict is in (its first functional error,
    plus its detection flag when [ndetect > 0]) or to the last cycle of
    the tape; the batch ends when every lane is decided.

    [voters] (per base node, ['\001'] = voter node) turns on per-lane
    provenance ([bv_provenance]): each cycle folds the lanes'
    divergence words into a per-node ever-diverged word, and after the
    run one BFS per lane over its own effective graph yields the cone,
    the depths and the voter check.

    Combinational loops are Kleene-iterated inside the batch: cut nodes
    meeting every cycle restart from X at every cycle in their SCC of
    the union graph, and rounds of sweeps run until the cuts stop
    moving.  Node evaluation is monotone in the information order (X
    below Zero and One), so this reaches the least fixpoint, which is
    what {!Fsim.eval} on a rebuilt simulator computes.

    Raises [Invalid_argument] on overlay nodes or watch positions out
    of range, or on a kind override of a non-bel node; [Failure] if
    a fixpoint iteration runs past its n + 1 bound (a non-monotone node
    — a broken invariant, never a slow loop). *)

val last_cone : t -> int array
(** The union cone of the last {!run}, in evaluation order (test
    hook). *)

val bit_index : int -> int
(** The index of the one set bit of a single-lane word, [0] to
    [width - 1] (test hook). *)

type work = {
  evals : int;
      (** plane words (one node, every lane) computed by the LUT or
          resolve kernel, at evaluation and at the register clock *)
  splices : int;
      (** single-lane masked resolves: a rewired resolve row or an
          appended resolve node, resolved word-parallel and blended in
          on its lane's bit *)
}
(** Kernel work counts of one {!run}. *)

val work : t -> work
(** The work of the last {!run}. *)
