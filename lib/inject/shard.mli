(** Deterministic shard planning and merging for distributed campaigns.

    A sharded campaign splits a fault-index space [0, total) into
    contiguous ranges ("shards").  Each shard is simulated independently
    — by another domain pool, another process, or another invocation
    days later — and its per-fault verdicts are persisted as one JSONL
    file plus a small manifest.  Because every per-fault verdict is a
    pure function of the fault bit (never of scheduling, worker count or
    shard boundaries), folding the shard results back together in index
    order reconstructs a campaign bit-identical to the single-process
    run over the same fault list.

    The planner is deterministic: [plan ~total ~shards] always produces
    the same ranges, so a resumed run re-plans, diffs the plan against
    the completed-shard manifests on disk, and only simulates what is
    missing. *)

type range = {
  sh_id : int;  (** shard index, dense from 0 *)
  sh_lo : int;  (** first fault index (inclusive) *)
  sh_hi : int;  (** last fault index (exclusive) *)
}

val plan : total:int -> shards:int -> range array
(** Split [0, total) into at most [shards] contiguous ranges whose sizes
    differ by at most one, in ascending index order.  Fewer ranges come
    back when [total < shards] (never an empty range).  Deterministic:
    a pure function of the two integers.  Raises [Invalid_argument] on
    a non-positive [shards] or negative [total]. *)

val ranges_missing : total:int -> done_ids:(int -> bool) -> shards:int -> range list
(** Re-plan and keep only the ranges whose id is not yet done — the
    resume diff.  [done_ids] is typically membership in the completed
    manifests of a {!Workqueue} directory. *)

(** {1 Per-fault result lines}

    One compact JSON object per fault, in fault-index order within each
    shard.  Concatenating the shard files in shard order yields the
    canonical campaign result stream, byte-identical however the work
    was split.  A line has exactly this shape, with no whitespace:

    {v
{"index":I,"bit":I,"outcome":O,"effect":E,"first_error_cycle":I,"detect_cycle":I}
    v}

    where each [I] is a decimal integer as [string_of_int] writes it
    (an optional [-], no leading zero, no [+], no exponent, within
    [min_int .. max_int]), [O] is ["silent"] or ["wrong_answer"] and [E]
    one of the eight {!Classify.name}s, unescaped.  The reader accepts
    that shape and nothing else: any other line, including one without
    [detect_cycle], with reordered fields or with trailing bytes, is an
    [Error].  So every line it accepts re-encodes to itself. *)

val add_result_line : Buffer.t -> index:int -> Campaign.fault_result -> unit
(** Append one line, without its newline. *)

val result_to_line : index:int -> Campaign.fault_result -> string

val result_of_line : string -> (int * Campaign.fault_result, string) result
(** Round-trips everything except [forensics] (sharded runs do not
    collect forensic records; the field comes back [None]). *)

val results_of_bytes :
  Bytes.t -> len:int -> ((int * Campaign.fault_result) array, string) result
(** Every line of a results file body — the first [len] bytes of the
    buffer, each line ended by a newline — in file order; the first bad
    line is an [Error] naming its line number. *)

(** {1 Shard manifests} *)

type manifest = {
  sm_id : int;
  sm_lo : int;
  sm_hi : int;
  sm_wrong : int;  (** wrong answers within the range *)
  sm_stats : Campaign.engine_stats;
  sm_wall_ns : int;  (** wall time of the shard's injection loop *)
  sm_busy_ns : int;  (** summed worker busy time of the shard *)
  sm_setup_ns : int;  (** summed worker setup time of the shard *)
  sm_owner : int;  (** pid of the worker that completed the shard *)
  sm_fingerprint : string;
      (** job fingerprint the shard was simulated under; a resume with a
          different fingerprint must refuse to reuse it *)
}

val manifest_to_json : manifest -> Tmr_obs.Json.t
val manifest_of_json : Tmr_obs.Json.t -> (manifest, string) result

val manifest_of_campaign :
  range -> fingerprint:string -> owner:int -> Campaign.t -> manifest
(** Summarise a campaign that ran exactly the range's faults. *)

(** {1 Merging} *)

val merge :
  design:string ->
  total:int ->
  procs:int ->
  wall_ns:int ->
  (manifest * (int * Campaign.fault_result) array) list ->
  (Campaign.t, string) result
(** Fold completed shards into one campaign.  The shards must tile
    [0, total) exactly, each shard must hold one result per index of
    its range, each result's index must lie in its shard's range and
    appear once, and the manifests' [sm_wrong] must sum to the wrong
    answers the results hold.  Manifests and results are read from
    disk, so any violation (a gap, an overlap, an inverted range, an
    index outside its shard, a duplicate index, a result count that
    disagrees with the range, a wrong-count mismatch) is an [Error]
    naming the defect, never an exception.
    [results] land at their fault index, so the merged array is
    bit-identical to the single-process campaign over the same fault
    list; [wrong] and [stats] are the sums; [wall_ns] is the
    coordinator's wall clock and [procs] the process count, from which
    {!Campaign.utilization} reports fleet utilization (the shards'
    busy + setup time over [procs * wall_ns]). *)
