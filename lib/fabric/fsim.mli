(** Simulator for whatever circuit a (possibly faulty) configuration
    actually implements.

    Built per fault from the {!Extract} state by walking backward from the
    watched output pads: wires collapse onto their single driver,
    multi-driven wires become resolution nodes (agreement or [X]), floating
    wires read [X], and fault-created combinational loops are iterated to
    their Kleene fixpoint.  Bels evaluate their (possibly corrupted) LUT
    table with pin-inversion muxes applied; registered bels expose the
    flip-flop, whose clock-enable and initialisation come from the
    configuration. *)

type t

type workspace
(** Reusable scratch arrays sized for one device; lets a fault-injection
    campaign build thousands of simulators without re-allocating. *)

val make_workspace : Tmr_arch.Device.t -> workspace

val build : ?ws:workspace -> Extract.t -> watch_outputs:int array -> t
(** [watch_outputs] are PadOut wires (the design's output pads).  The
    simulator covers exactly the logic cone observable from them, plus
    two shared constant nodes appended after every other node
    ({!const_nodes}): pinless combinational bel nodes with tables
    [0x0000] and [0xFFFF] that nothing in the built graph reads.  The
    fault fast paths ({!reroute}, {!fault_delta}) map a fault-created
    bridge onto an unused bel's constant output to them. *)

val reset : t -> unit
(** Flip-flops to their configuration-load state (a scrub/reconfiguration
    boundary). *)

val set_pad : t -> int -> Tmr_logic.Logic.t -> unit
(** Drive a PadIn wire.  Ignored when the cone does not observe that pad. *)

val eval : t -> unit

val clock : t -> unit
(** Latch every flip-flop from the latest {!eval} (edge only). *)

val step : t -> unit
(** {!eval}, {!clock}, then {!eval} again. *)

val read : t -> int -> Tmr_logic.Logic.t
(** Value of a watched PadOut wire after the latest {!eval}/{!step}. *)

val watch_nodes : t -> int array -> int array
(** Node ids of watched PadOut wires.  Resolving once per simulator keeps
    the per-cycle IO loop free of hash lookups; read with {!node_value}. *)

val pad_nodes : t -> int array -> int array
(** Node ids of PadIn wires; [-1] when the cone does not observe a pad
    (driving it with {!set_node} is then a no-op, like {!set_pad}). *)

val node_value : t -> int -> Tmr_logic.Logic.t
(** Value of a node from {!watch_nodes} after the latest {!eval}. *)

val set_node : t -> int -> Tmr_logic.Logic.t -> unit
(** Drive a node from {!pad_nodes}; ignored when the id is [-1]. *)

val num_nodes : t -> int
(** Size of the collapsed simulation graph (diagnostics). *)

val const_nodes : t -> int * int
(** [(zero, one)]: the shared constant node ids {!build} appended — the
    last two ids of a freshly built simulator.  A {!reroute}d derivation
    keeps its base's ids. *)

val has_comb_loop : t -> bool
(** True when the configuration contains a fault-induced combinational
    cycle (diagnostics for effect classification). *)

(** {1 Cone-aware fault fast paths}

    A fault-injection campaign builds one golden simulator, snapshots the
    observable cone it covered, and then uses {!plan_fault} to decide per
    fault bit whether a full rebuild is needed at all.  Every fast path is
    exact: it produces the same watched behaviour a rebuild would. *)

type cone
(** Snapshot of what the last {!build} through a workspace observed: the
    marked wires, the wire->node resolution, and the cone bels.  Valid for
    the simulator returned by that build; later builds reusing the same
    workspace do not invalidate an already-taken snapshot. *)

val snapshot_cone : workspace -> cone
(** Capture the cone of the most recent {!build} run with this workspace. *)

val cone_wire_count : cone -> int
val cone_bel_count : cone -> int

val cone_node_of_bel : cone -> int -> int
(** Node id the cone assigned to a device bel, [-1] when the bel is
    outside the cone.  Lets a campaign map structural attributes (TMR
    domain, voter-ness) computed per bel onto simulation nodes. *)

val cone_touches_bit : cone -> Extract.t -> int -> bool
(** Whether a configuration bit controls a resource adjacent to the cone
    (a pip with a cone endpoint, a cone bel's cell, a cone pad). *)

val cone_frames : cone -> Extract.t -> bool array
(** Per configuration frame: true when the frame holds at least one bit
    the cone reads ({!cone_touches_bit}).  One entry per {!Tmr_arch.Bitdb}
    frame. *)

type fault_path =
  | Path_silent
      (** the flip provably cannot change any watched output: classify
          without building or simulating *)
  | Path_patch
      (** cell-content change of an existing node: mutate the base
          simulator in place ({!with_patch}) *)
  | Path_reroute
      (** local graph repair: derive a simulator from the base one
          ({!reroute}) instead of rebuilding — routing changes,
          support-widening LUT bits, out_sel flips *)
  | Path_rebuild  (** anything unprovable: full {!build} *)
  | Path_diff
      (** execution outcome only (never returned by {!plan_fault}): a
          patch or reroute fault that ran on the differential engine
          ({!diff_run}) instead of a full DUT replay *)

val path_name : fault_path -> string

val plan_fault : cone -> Extract.t -> int -> fault_path
(** Decide against the golden (un-flipped) extract state how the flip of
    one bit can be handled. *)

val with_patch : cone -> t -> Extract.t -> int -> (t -> 'a) -> 'a
(** [with_patch cone base ex bit f] applies a [Path_patch] fault (already
    flipped in [ex]) to the base simulator in place, runs [f], and undoes
    the patch — also on exception. *)

type scratch
(** Caller-owned buffers for {!reroute}: one per worker lets every derived
    simulator reuse the same arrays, so the steady-state fault loop
    allocates almost nothing (under multiple domains every minor
    collection is a stop-the-world rendezvous). *)

val make_scratch : unit -> scratch

val reroute : scratch:scratch -> cone -> t -> Extract.t -> int -> t option
(** [reroute ~scratch cone base ex bit] derives the fault simulator for a
    [Path_reroute] bit (already flipped in [ex]): the affected electrical
    components are re-resolved and stale readers remapped on a copy of the
    base node graph, skipping the full cone walk.  A bridge onto the
    output of an unused combinational bel with a constant table (one
    outside the base cone) resolves to the matching {!const_nodes}
    entry, exactly as a rebuild would evaluate that bel.  [None] when
    the fault reaches live resources the base cone never saw (a
    registered or support-bearing bel, an enabled pad) or closes a pure
    driver loop — fall back to {!build}.
    The returned simulator aliases the scratch buffers and is only valid
    until the next [reroute] with the same scratch. *)

val patch_node : cone -> Extract.t -> int -> int
(** The node whose cell content a [Path_patch] bit edits — the seed of
    its fanout cone for {!diff_run}. *)

val same_io : t -> t -> bool
(** Whether two simulators share their pad and watch wire->node tables
    physically (true for the base and any derived simulator {!reroute}
    did not watch-remap) — resolved pad/watch node arrays can then be
    reused as-is. *)

(** {1 Graph view and fault overlays}

    The bit-parallel batched engine ({!Fsim_batch}) evaluates many
    faults per machine word over the {e base} graph plus per-lane
    overlays, instead of materialising one derived simulator per
    fault.  These accessors expose the base graph read-only and turn a
    planned fault into such an overlay. *)

type view = {
  v_nnodes : int;
  v_kind : int array;  (** per node: one of the [kind_*] codes *)
  v_inputs : int array array;
      (** per node: input rows — 4 pins for bels ([-1] = unused),
          drivers for resolve nodes *)
  v_table : int array;
  v_inv : int array;
  v_ce_frozen : bool array;
  v_q_init : Tmr_logic.Logic.t array;
  v_nsccs : int;
  v_scc_off : int array;
  v_scc_nodes : int array;  (** evaluation order, grouped by SCC *)
  v_scc_cyclic : Bytes.t;  (** per SCC: ['\001'] when cyclic *)
}
(** Shares the simulator's arrays (no copy); treat as immutable. *)

val view : t -> view

val kind_constx : int
val kind_pad : int
val kind_bel_comb : int
val kind_bel_reg : int
val kind_resolve : int

val reader_csr : t -> int array * int array
(** [(off, succ)]: reverse CSR over [inputs] — the readers of node [n]
    are [succ.(off.(n)) .. succ.(off.(n+1)-1)].  Built once per worker
    for the batch engine (content patches never change the edge set). *)

val bel_map : cone -> t -> int array
(** Per node: the device bel whose output it is, [-1] otherwise (the
    inverse of {!cone_node_of_bel}). *)

type cell_patch =
  | Cp_table of int  (** replacement truth table *)
  | Cp_inv of int  (** replacement pin-inversion mask *)
  | Cp_qinit of Tmr_logic.Logic.t  (** replacement flip-flop init *)
  | Cp_ce of bool  (** replacement clock-enable freeze *)

type delta = {
  dl_cell : (int * cell_patch) option;  (** cell-content override *)
  dl_rows : (int * int array) array;
      (** existing nodes whose input row the fault replaces *)
  dl_extras : (int array * int array) array;
      (** appended resolve nodes, id [nnodes + index]:
          [(inputs, res_wires)] *)
}
(** One fault as an overlay over the base graph.  A lane's effective
    circuit is the base with these substitutions applied. *)

val patch_delta : cone -> Extract.t -> int -> delta
(** A [Path_patch] bit (already flipped in [ex]) as an overlay:
    mirrors {!with_patch}'s cell dispatch, never fails. *)

val fault_delta :
  scratch:scratch ->
  cone ->
  t ->
  Extract.t ->
  int ->
  succ_off:int array ->
  succ:int array ->
  bel_of:int array ->
  delta option
(** A [Path_reroute] bit (already flipped in [ex]) as an overlay: the
    affected components are re-resolved exactly as {!reroute} does, but
    only the changed rows are recorded — stale readers are found
    through the base {!reader_csr} ([succ_off]/[succ], with [bel_of]
    from {!bel_map}) instead of an O(n) scan.  Rows may read the
    {!const_nodes} (a bridge onto an unused constant bel), which are
    ordinary base nodes on the tape.  [None] whenever
    {!reroute} would fall back to a rebuild, and additionally on
    [Out_sel] kind changes or an orphaned watch node (the batch engine
    shares kinds and watch resolution across lanes) — the caller runs
    those faults on the scalar engine. *)

(** {1 Differential fault simulation}

    Run the fault-free DUT once per worker, recording every node's
    per-cycle value on a {e baseline tape}; then simulate each fault
    only inside the static fanout cone of its faulted nodes, reading
    non-cone inputs from the tape, skipping cone nodes whose inputs did
    not change (event-driven), and abandoning the fault at the first
    cycle boundary where it provably converged back to the baseline. *)

type tape
(** Per-cycle values of every node of one simulator, 2-bit packed. *)

val tape_create : nnodes:int -> cycles:int -> tape
(** All values start as [Zero] (code 0); record or set before reading. *)

val tape_nnodes : tape -> int
val tape_cycles : tape -> int
val tape_set : tape -> cycle:int -> node:int -> Tmr_logic.Logic.t -> unit
val tape_get : tape -> cycle:int -> node:int -> Tmr_logic.Logic.t

val tape_get_u : tape -> int -> int -> Tmr_logic.Logic.t
(** [tape_get_u tape cycle node], unchecked: for per-cycle hot loops
    whose bounds are established once per fault ({!Fsim_batch}). *)

val tape_record : tape -> t -> cycle:int -> unit
(** Pack the simulator's current post-{!eval} values as [cycle]. *)

type dscratch
(** Caller-owned buffers for {!diff_run} (cone closure, successor CSR,
    dirty stamps, replay overlays): one per worker. *)

val make_dscratch : unit -> dscratch

type dseeds =
  | Seed_node of int  (** a [Path_patch] fault: {!patch_node} *)
  | Seed_derived
      (** a {!reroute}d simulator: seeds are every node whose cell
          content or pin wiring differs from the base, plus every
          appended node *)

val nearer_first : int array -> int -> int -> bool
(** [nearer_first depth u f]: whether node [u] replaces the current
    first-divergence pick [f] ([-1] = none yet) — smaller BFS depth
    from the seed set, then smaller node id.  The one rule both engines
    use for [first_diverged_node]: a property of the fault's effective
    graph, not of any evaluation order. *)

val diff_run :
  ?ndetect:int ->
  forensics:bool ->
  scratch:dscratch ->
  tape:tape ->
  base:t ->
  sim:t ->
  seeds:dseeds ->
  watch:int array ->
  base_watch:int array ->
  expected:Tmr_logic.Logic.t array array ->
  unit ->
  int * int * int
(** [diff_run ~scratch ~tape ~base ~sim ~seeds ~watch ~base_watch
    ~expected] simulates the fault differentially against the baseline
    [tape] (recorded from [base], which must already match the golden
    [expected] watch matrix — [expected.(cycle).(i)] for watch node
    [watch.(i)], with [base_watch] the base simulator's resolution of
    the same wires).  [sim] is [base] itself under {!with_patch} or a
    {!reroute}d derivation.  Returns
    [(first_error_cycle, converge_cycle, first_detect_cycle)], each [-1]
    when absent; the result is bit-identical to a full DUT replay of
    [sim].  Scribbles over [sim]'s value/state arrays.

    [ndetect] (default 0) marks the last [ndetect] watch entries as
    {e detection} nodes (voter disagreement flags whose expected rows
    are all-Zero): a mismatch there sets [first_detect_cycle] instead of
    [first_error_cycle], and the run keeps simulating past a functional
    error until detection also resolves (fires, provably converges away,
    or the stimulus ends) — and vice versa.  With [ndetect = 0] the
    behaviour is exactly the historical two-result contract.

    With [~forensics:true] it additionally compares the settled
    cone against the tape every cycle, recording which nodes diverged
    from the baseline ({!diff_forensics}, {!diff_provenance}).  The
    scan is read-only with respect to simulation state: the returned
    cycles are bit-identical with forensics on or off. *)

(** {2 Divergence forensics} *)

type diff_forensics = {
  df_collected : bool;  (** last run had [~forensics:true] *)
  df_cone : int;  (** cone size (valid regardless of [df_collected]) *)
  df_seeds : int;
  df_frontier : int;
  df_diverged : int;  (** distinct cone nodes that left the baseline *)
  df_first_node : int;
      (** the divergence nearest the fault site: among the nodes diverged
          on the first diverging cycle, the one with the smallest
          (BFS depth from the seed set, node id); [-1] when the fault
          never visibly diverged.  A property of the fault's effective
          graph, so every engine reports the same node. *)
  df_first_cycle : int;
  df_depth : int;
      (** max BFS distance (from the seed set) of any diverged node —
          how deep the corruption propagated structurally *)
}
(** Counters are [-1] when the last run did not collect forensics. *)

val diff_forensics : dscratch -> diff_forensics
(** Forensic summary of the last {!diff_run} with this scratch. *)

type provenance = {
  pv_diverged : int;  (** {!diff_forensics}'s [df_diverged] *)
  pv_first_node : int;  (** [df_first_node] *)
  pv_first_cycle : int;  (** [df_first_cycle] *)
  pv_depth : int;  (** [df_depth] *)
  pv_cone : int;  (** [df_cone] *)
  pv_voter_held : bool;
      (** some voter node of the cone never left the baseline *)
}
(** One fault's divergence provenance: what the forensics layer records
    per differentially simulated fault.  The scalar engine reports it
    through {!diff_provenance}, the batched engine per lane
    ({!Fsim_batch.run}); both give equal records for the same fault. *)

val diff_provenance : dscratch -> voters:Bytes.t -> provenance option
(** Provenance of the last {!diff_run} with this scratch, [None] when it
    ran without [~forensics:true].  [voters] flags voter nodes
    (['\001'], indexed by base node). *)

val diff_cone : dscratch -> int array
(** The cone (faulted nodes' fanout closure) computed by the last
    {!diff_run} with this scratch, in evaluation order (test hook). *)

val diff_cone_is_closed : dscratch -> t -> bool
(** Whether no node outside the last computed cone reads a cone node —
    the closure property the engine's soundness rests on (test hook). *)
