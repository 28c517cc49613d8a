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
    [0x0000] and [0xFFFF] that nothing in the built graph reads.
    {!fault_delta} maps a fault-created bridge onto an unused bel's
    constant output to them. *)

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
    last two ids of a freshly built simulator. *)

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

val cone_node_of_bel : cone -> int -> int
(** Node id the cone assigned to a device bel, [-1] when the bel is
    outside the cone.  Lets a campaign map structural attributes (TMR
    domain, voter-ness) computed per bel onto simulation nodes. *)

type fault_path =
  | Path_silent
      (** the flip provably cannot change any watched output: classify
          without building or simulating *)
  | Path_patch
      (** cell-content change of an existing node: a {!patch_delta}
          overlay *)
  | Path_reroute
      (** local graph repair: a {!fault_delta} overlay over the base
          graph instead of a rebuild — routing changes, support-widening
          LUT bits, out_sel flips *)
  | Path_rebuild  (** anything unprovable: full {!build} *)

val path_name : fault_path -> string

val plan_fault : cone -> Extract.t -> int -> fault_path
(** Decide against the golden (un-flipped) extract state how the flip of
    one bit can be handled. *)

type scratch
(** Caller-owned buffers for {!fault_delta}: one per worker lets every
    fault reuse the same epoch-stamped wire and node maps, so the
    steady-state fault loop allocates almost nothing (under multiple
    domains every minor collection is a stop-the-world rendezvous). *)

val make_scratch : unit -> scratch

val patch_node : cone -> Extract.t -> int -> int
(** The node whose cell content a [Path_patch] bit edits — the seed of
    its fanout cone in the batch engine. *)

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
  | Cp_reg of bool
      (** replacement output select: [true] makes the node registered,
          [false] combinational (an out_sel flip; pins, table, init and
          clock enable stay the base's) *)

type delta = {
  dl_cell : (int * cell_patch) option;  (** cell-content override *)
  dl_rows : (int * int array) array;
      (** existing nodes whose input row the fault replaces *)
  dl_extras : (int array * int array) array;
      (** appended resolve nodes, id [nnodes + index]:
          [(inputs, res_wires)] *)
  dl_watch : (int * int) array;
      (** [(position, node)]: the watch position reads [node] instead of
          its base node — an output whose resolution the fault changed.
          [node] may be an appended node, or the constant-X node 0 for a
          disabled pad *)
}
(** One fault as an overlay over the base graph.  A lane's effective
    circuit is the base with these substitutions applied. *)

val patch_delta : cone -> Extract.t -> int -> delta
(** A [Path_patch] bit (already flipped in [ex]) as an overlay: one
    cell-content override, never fails. *)

val fault_delta :
  scratch:scratch ->
  cone ->
  t ->
  Extract.t ->
  int ->
  watch:int array ->
  succ_off:int array ->
  succ:int array ->
  bel_of:int array ->
  delta option
(** A [Path_reroute] bit (already flipped in [ex]) as an overlay: the
    affected electrical components are re-resolved, and only the
    changed rows are recorded — stale readers are found through the base
    {!reader_csr} ([succ_off]/[succ], with [bel_of] from {!bel_map}).
    Rows may read the {!const_nodes} (a bridge onto an unused constant
    bel), which are ordinary base nodes on the tape.  An out_sel flip is
    a [Cp_reg] kind override.  [watch] are the watched PadOut wires in
    the caller's position order (each must have been watched by
    {!build}); a watch position whose node the fault re-resolves is
    recorded in [dl_watch].  The overlay describes exactly the circuit a
    {!build} of the flipped extract would produce.  [None] when the
    fault reaches live resources the base cone never saw (a registered
    or support-bearing bel, an enabled pad) or closes a pure driver
    loop: the caller rebuilds, and the [fsim.reroute_fallback] counter
    counts it. *)

(** {1 Baseline tape}

    The fault-free DUT runs once per worker, recording every node's
    per-cycle value; the batch engine reads every input outside a
    fault's cone from it. *)

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

(** {1 Batch-engine seeds and provenance} *)

type dseeds =
  | Seed_node of int  (** a [Path_patch] fault: {!patch_node} *)
  | Seed_derived
      (** a {!fault_delta} overlay: seeds are every node whose cell
          content, kind or input row differs from the base, plus every
          appended node *)

type provenance = {
  pv_diverged : int;  (** distinct cone nodes that left the baseline *)
  pv_first_node : int;
      (** the divergence nearest the fault site: among the nodes diverged
          on the first diverging cycle, the one with the smallest
          (BFS depth from the seed set, node id); [-1] when the fault
          never visibly diverged.  A property of the fault's effective
          graph, not of any evaluation order *)
  pv_first_cycle : int;  (** first cycle any cone node diverged, or [-1] *)
  pv_depth : int;
      (** max BFS distance (from the seed set) of any diverged node —
          how deep the corruption propagated structurally *)
  pv_cone : int;  (** the fault's fanout cone size *)
  pv_voter_held : bool;
      (** some voter node of the cone never left the baseline *)
}
(** One fault's divergence provenance: what the forensics layer records
    per batched fault ({!Fsim_batch.run} with [?voters]). *)
