(** Fault Injection Manager (paper §4, module 2).

    For each fault in the list: flip the bit in the configuration image,
    re-derive the circuit the fabric now implements, run the test pattern,
    and compare every output bit of every clock cycle against the golden
    device (a netlist-level simulation of the unprotected design).  Any
    difference — including an unknown value — classifies the fault as a
    Wrong Answer; the fault is then reverted (scrubbing) and the next one
    is injected.

    Campaigns run on a {!Pool} of OCaml domains: each worker owns a
    private bitstream copy, extractor and simulator workspace, and writes
    its results into the shared array by fault index, so the result is
    byte-identical to a sequential run regardless of scheduling.

    There is one fast engine and one oracle.  The oracle rebuilds the
    simulator from the flipped configuration for every fault and replays
    the whole stimulus ([~cone_skip:false]).  The fast engine first
    applies the vote-masking proof ({!Forensics.masked_domain}): on a
    majority-voted TMR design a flip confined to one redundancy domain,
    touching no voter, is classified silent without simulating.  It
    plans every other fault against the golden cone
    ({!Tmr_fabric.Fsim.plan_fault}): a flip that provably cannot reach a
    watched output is classified silent without simulating; a pad-enable flip on the cone rebuilds, as on the
    oracle; every other flip becomes an overlay over the golden
    simulator ({!Tmr_fabric.Fsim.delta_of_plan}, recorded with the
    fault's plan path) and runs in the bit-parallel batch
    engine ({!Tmr_fabric.Fsim_batch}).  That engine records one
    fault-free baseline tape per worker, packs up to
    {!Tmr_fabric.Fsim_batch.width} (63) faults with
    structurally close fanout cones into the bit lanes of one dense
    evaluation of their union cone against the tape, and runs each
    batch until every lane has its verdict or the stimulus ends.
    Per-fault results are byte-identical to the oracle's: the
    engine changes only the throughput. *)

type stimulus = {
  cycles : int;
  inputs : (string * int array) list;
      (** per base input port, one sample per cycle.  A TMR DUT's
          triplicated copies of the port are driven identically. *)
}

type outcome =
  | Silent
  | Wrong_answer

type fault_result = {
  bit : int;
  outcome : outcome;
  effect : Classify.effect;
  first_error_cycle : int;  (** -1 when silent *)
  detect_cycle : int;
      (** first cycle an in-circuit detection flag (a detecting voter's
          pairwise disagreement output) fired; [-1] when it never did —
          always [-1] on designs without detection voters *)
  forensics : Forensics.t option;
      (** per-fault forensic record; [None] when collection was off.
          Collection never changes [bit]/[outcome]/[effect]/
          [first_error_cycle] — results are bit-identical either way. *)
}

(** Four-way detected-vs-silent verdict taxonomy: the functional outcome
    crossed with whether the design's own detection logic flagged the
    upset.  [Silent_wrong] is the silent-data-corruption (SDC) class —
    a wrong answer the circuit never noticed. *)
type verdict =
  | Silent_correct  (** output correct, no flag — masked or out-voted *)
  | Detected_corrected  (** output correct, flag fired — TMR repaired it *)
  | Detected_wrong  (** output wrong, but the flag fired *)
  | Silent_wrong  (** output wrong, no flag — SDC *)

val verdict_of : fault_result -> verdict

type engine_stats = {
  skipped : int;
      (** classified [Silent] without building or simulating: cone-silent
          ([Path_silent]) or proved silent by the vote-masking proof *)
  patched : int;  (** batched as a cell-content overlay *)
  rerouted : int;  (** batched as a local rewiring overlay *)
  rebuilt : int;  (** full per-fault simulator rebuild *)
  diffed : int;
      (** faults simulated differentially against the baseline tape:
          [patched + rerouted] *)
  converged : int;
      (** always [0]: the batch engine retires no lane early.  Kept
          because the e2e benchmark reads it ([inject.converged_frac]);
          to be dropped together with that metric. *)
  batched : int;
      (** faults executed word-parallel by the batch engine
          ({!Tmr_fabric.Fsim_batch}); equal to [diffed] *)
}

type t = {
  design : string;
  requested : int;  (** length of the fault list the campaign was given *)
  injected : int;
      (** faults injected ([= Array.length results]); always equal to
          [requested] — both are kept for readers of either name *)
  wrong : int;
  results : fault_result array;
  workers : int;  (** worker count the campaign actually used *)
  stats : engine_stats;  (** work the engine performed, by plan path *)
  wall_ns : int;
      (** wall-clock time of the injection loop, including the setup of
          every worker whose state this run built (worker 0's is built
          before batch planning, which runs on it) and, on a session's
          first run, the session's own build *)
  busy_ns : int array;
      (** per-worker time spent injecting (length [workers]), worker 0's
          including the planning pass that derives the batched faults'
          overlays; the gap to
          [workers * wall_ns] is per-worker setup ({!field-setup_ns}),
          claim contention and pool ramp-down *)
  setup_ns : int array;
      (** per-worker one-time initialisation (bitstream clone, simulator
          build, baseline tape, batch engine) before the first fault;
          near zero for a worker whose state an earlier run of the same
          {!session} built.  Worker 0's entry of a session's first run
          also holds the {!session} build (attribution, golden outputs,
          golden extract).
          Counted separately from [busy_ns] so the injection throughput
          stays comparable across engines, but included in
          {!utilization} — on fast engines the setup dominates the
          worker's wall time and ignoring it made utilization
          under-report (the 0.19 "parallel-batched" artifact). *)
}

type progress = {
  p_completed : int;  (** faults completed so far *)
  p_total : int;  (** faults requested *)
  p_wrong : int;
      (** wrong answers observed so far — read from a live counter, so it
          may trail [p_completed] by the few faults still in flight *)
}
(** Snapshot handed to the progress callback: enough to render a live
    wrong-answer rate ± CI next to the bar. *)

val utilization : t -> float
(** [(sum busy_ns + sum setup_ns) / (workers * wall_ns)] in [0,1] — how
    busy the average worker was while the campaign ran, counting both
    one-time setup and injection work.  The remainder is claim
    contention plus pool ramp-down. *)

val dut_input_wires : Tmr_pnr.Impl.t -> string -> int array list
(** Physical PadIn wires for a base input port: one wire set on an
    unprotected design, three (one per redundancy domain) on a TMR one. *)

val dut_output_wires : Tmr_pnr.Impl.t -> string -> int array

val golden_outputs :
  Tmr_netlist.Netlist.t ->
  stimulus ->
  (string * Tmr_logic.Logic.t array array) list
(** Reference response of a netlist: for each output port, the per-cycle
    bit values sampled combinationally (before each clock edge). *)

val run :
  ?progress:(progress -> unit) ->
  ?workers:int ->
  ?cone_skip:bool ->
  ?forensics:bool ->
  name:string ->
  impl:Tmr_pnr.Impl.t ->
  golden:Tmr_netlist.Netlist.t ->
  stimulus:stimulus ->
  faults:int array ->
  unit ->
  t
(** [workers] defaults to [Domain.recommended_domain_count () - 1], at
    least 1.  [cone_skip] (default [true]) runs the fast engine; [false]
    runs the rebuild-every-fault oracle ([tmrtool]'s [--oracle]), whose
    per-fault results the fast engine reproduces byte for byte.

    The fast engine's planning pass first classifies every fault the
    vote-masking proof covers ({!Forensics.masked_domain}: the design's
    voters are each one majority LUT over three domains, it has no
    detection ports, and the fault's footprint stays in one domain and
    touches no voter, pad or domain-less used resource) as [Silent],
    first error and detect cycle [-1], counted in [skipped].  The proof
    is off on the oracle and when [forensics] is collected (those
    records need the simulated divergence).

    The fast engine packs patch/reroute faults that share a structural
    cone key (same LUT/FF bel, same pip destination wire) into batches
    of up to {!Tmr_fabric.Fsim_batch.width} lanes; a fault with no
    partner runs as a one-lane batch.  The planning pass derives each
    such fault's overlay once, and faults whose overlays are equal
    (the same effective circuit) share one lane: the later ones copy the
    first one's outcome, cycles and provenance, while [effect] and the
    structural forensic fields stay their own.  [stats] count every
    fault under its own plan path either way.  Faults whose rewiring closes a
    combinational loop, or whose cone runs through a cyclic SCC of the
    base graph, stay in the batch: the engine Kleene-iterates the
    affected SCC for those lanes from X, and since node evaluation is
    monotone in the information order this reaches the least fixpoint a
    rebuild computes.  Only a reroute that reaches live resources the
    golden cone never saw (an enabled pad, a registered or
    support-bearing bel outside it) or closes a pure driver loop has no
    overlay and rebuilds.

    [forensics] (default [false]) attaches a {!Forensics.t} record to
    every result: structural domain/partition attribution on all plan
    paths, divergence provenance on batched faults (the oracle records
    none).  A registered {!Forensics} sink implies collection; the
    records are then also streamed as JSONL, in fault-index order, after
    the injection loop finishes (so the file is deterministic for a
    fixed fault list).  Collection is read-only: outcomes are
    bit-identical with it on or off.

    [progress] is called with a {!progress} snapshot from worker
    domains, serialized and rate-limited by the pool.

    Raises [Failure] if the un-faulted DUT does not match the golden
    device (an implementation-flow bug, not a fault); the message names
    the first disagreeing port, bit and expected/actual values. *)

(** {1 Sessions}

    A session holds everything a campaign builds that does not depend on
    the fault list: the structural attribution, the golden outputs, the
    IO maps, the expected output matrix, the golden extract and, built
    on a worker's first use, that worker's state (extract copy,
    workspace, golden simulator, cone, baseline tape checked against the
    golden device, batch context, scratch).  Running many fault lists
    through one session pays for that once; {!run} is a session used
    once.  Results never depend on what the session ran before. *)

type session

val session :
  ?workers:int ->
  ?cone_skip:bool ->
  ?forensics:bool ->
  name:string ->
  impl:Tmr_pnr.Impl.t ->
  golden:Tmr_netlist.Netlist.t ->
  stimulus:stimulus ->
  unit ->
  session
(** The arguments mean what they mean for {!run}; a registered
    {!Forensics} sink implies [forensics] when the session is made.
    Worker states are built lazily, so the DUT check of {!run} fails on
    the session's first {!run_session}. *)

val run_session : session -> faults:int array -> t
(** [run] over [faults] with the session's fault-independent state.
    Byte-identical to {!run} with the session's arguments.  Runs of one
    session must not overlap. *)

(** {1 Replay}

    The oracle's replay of one configuration, for tools that look at a
    single upset or a set of accumulated ones rather than a fault list
    ([tmrtool explain], {!Scrub}, the examples). *)

type port_sample = {
  ps_port : string;
  ps_flag : bool;
      (** an in-circuit detection flag, whose golden row is all zero *)
  ps_got : Tmr_logic.Logic.t array;  (** the DUT's values, LSB first *)
  ps_golden : Tmr_logic.Logic.t array;  (** the golden device's values *)
}
(** One watched port at one cycle. *)

val replay :
  ?observe:(int -> port_sample list -> unit) ->
  session ->
  Tmr_fabric.Extract.t ->
  int * int
(** [replay s ex] builds the simulator of the configuration [ex] (on the
    session's device: the golden one with some bits flipped) and runs
    the session's stimulus through it over the session's IO map.
    Returns the first error cycle and the first detect cycle ([-1] for
    none), as the oracle computes a fault's [first_error_cycle] and
    [detect_cycle].  Without [observe] it stops once both are in; with
    it every cycle runs, and [observe cycle ports] sees every watched
    port after that cycle's evaluation: the functional outputs in
    golden-output order, then the detection flags.  Builds worker 0's
    state on first use (checking the fault-free DUT, like a run); must
    not overlap a run of the session. *)

val first_mismatch : port_sample list -> (port_sample * int) option
(** The first functional port and bit whose value differs from its
    golden one. *)

val golden_cone : session -> Tmr_fabric.Fsim.cone
(** The cone of the session's golden simulator (worker 0's, built on
    first use), against which a campaign plans each bit
    ({!Tmr_fabric.Fsim.plan_fault}); its node ids are those of the
    forensic [first_diverged_node]. *)

val wrong_percent : t -> float

val ci : ?confidence:float -> t -> Tmr_obs.Stats.interval
(** Wilson CI (default 95 %) on the campaign's wrong-answer rate. *)

(** {1 Detection taxonomy} *)

type detection_counts = {
  dc_silent_correct : int;
  dc_detected_corrected : int;
  dc_detected_wrong : int;
  dc_silent_wrong : int;
}
(** The four {!verdict} class sizes; they always sum to [injected]. *)

val detection_counts : t -> detection_counts

val sdc_percent : t -> float
(** Share of injected faults in the {!Silent_wrong} (SDC) class, in
    percent.  On designs without detection logic this equals
    {!wrong_percent} — every wrong answer is silent. *)

val detected_percent : t -> float
(** Share of injected faults whose detection flag fired (detected and
    corrected plus detected but wrong), in percent. *)

(** {1 Forensic aggregation} *)

type forensic_summary = {
  fs_faults : int;  (** faults carrying a forensic record *)
  fs_cross : int;  (** cross-domain faults (footprint spans >= 2 domains) *)
  fs_cross_wrong : int;  (** cross-domain among wrong answers *)
  fs_multi_part : int;  (** faults touching >= 2 voter partitions *)
  fs_voter_touch : int;  (** faults touching voter logic or voter nets *)
  fs_diverged : int;  (** faults with observed internal divergence *)
  fs_silent_diverged : int;  (** diverged internally yet stayed silent *)
  fs_voter_masked : int;  (** silent-diverged faults absorbed at a voter *)
}

val forensic_summary : t -> forensic_summary option
(** Aggregate over the campaign's forensic records; [None] when the
    campaign ran without forensics. *)

val summary_json : t -> string
(** One-line JSON engine summary: requested/injected/wrong/wrong_percent
    with its 95 % Wilson CI, worker utilization, plan-path breakdown,
    wrong answers per effect class, the four-way detection verdict split
    and the forensic aggregate (or [null]) — [tmrtool inject --json]. *)
