(** Deterministic shard planning and merging for distributed campaigns.

    A sharded campaign splits a fault-index space [0, total) into
    contiguous ranges ("shards").  Each shard is simulated independently
    — by another domain pool, another process, or another invocation
    days later — and its per-fault verdicts are persisted as one file of
    fixed-size verdict records plus a small manifest.  Because every per-fault verdict is a
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

    The merged-output format ([inject --merged-out]): one compact JSON
    object per fault, in fault-index order, byte-identical however the
    work was split.  A line has exactly this shape, with no whitespace:

    {v
{"index":I,"bit":I,"outcome":O,"effect":E,"first_error_cycle":I,"detect_cycle":I}
    v}

    where each [I] is a decimal integer as [string_of_int] writes it,
    [O] is ["silent"] or ["wrong_answer"] and [E] one of the eight
    {!Classify.name}s, unescaped. *)

val result_to_line : index:int -> Campaign.fault_result -> string

(** {1 Verdict records}

    What a shard's results file holds, and what the fault dictionary's
    digest chains over: one {!record_bytes}-byte record per fault, the
    bit (int64), the outcome (one byte: 0 silent, 1 wrong answer), the
    effect (one byte: its position in {!Classify.all}), then the
    first-error and detect cycles (int32 each), all little-endian.
    Records carry no index: the [k]-th record of a shard is the fault
    at index [lo + k]. *)

val record_bytes : int
(** 18. *)

val put_record : Bytes.t -> int -> Campaign.fault_result -> unit
(** [put_record buf pos r] writes [r]'s record at [buf.[pos ..]]
    ([forensics] is not recorded).  Raises [Invalid_argument] on a cycle
    outside the int32 range. *)

val records_of_bytes :
  Bytes.t -> len:int -> count:int -> (Campaign.fault_result array, string) result
(** The [count] records of the first [len] bytes of the buffer, in
    order, with [forensics = None].  A length other than
    [count * record_bytes], an unknown outcome or effect code, or a bit
    outside the [int] range is an [Error] (naming the record), never an
    exception.  Every accepted body re-encodes to itself. *)

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
  (manifest * Campaign.fault_result array) list ->
  (Campaign.t, string) result
(** Fold completed shards into one campaign.  The shards must tile
    [0, total) exactly, each shard must hold one result per index of
    its range, in index order, and the manifests' [sm_wrong] must sum
    to the wrong answers the results hold.  Manifests and results are
    read from disk, so any violation (a gap, an overlap, an inverted
    range, a result count that disagrees with the range, a wrong-count
    mismatch) is an [Error] naming the defect, never an exception.
    [results] land at their fault index, so the merged array is
    bit-identical to the single-process campaign over the same fault
    list; [wrong] and [stats] are the sums; [wall_ns] is the
    coordinator's wall clock and [procs] the process count, from which
    {!Campaign.utilization} reports fleet utilization (the shards'
    busy + setup time over [procs * wall_ns]). *)
