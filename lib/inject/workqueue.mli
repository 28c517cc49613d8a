(** Shared on-disk work queue for multi-process campaigns.

    One directory per job, four subdirectories:

    {v
    <dir>/job.json                 the job spec + fingerprint
    <dir>/todo/00007.json          a pending shard range
    <dir>/claims/00007.pid-412.json  a range being simulated by pid 412
    <dir>/done/00007.json          a completed shard manifest
    <dir>/results/00007.rec        that shard's per-fault verdict records
    v}

    Claiming is one atomic [rename] of the range file from [todo/] into
    [claims/] — the filesystem arbitrates racing workers, no locks.  A
    loser's rename fails with [ENOENT] and it simply tries the next
    lowest id.  Completion writes the results and the manifest with
    tmp-file + [rename] (so readers never see a truncated file) and only
    then removes the claim; a worker that crashes mid-shard leaves its
    claim behind, and {!reclaim_orphans} moves claims whose owner pid is
    dead back into [todo/].

    Resume therefore needs no journal: re-seed the planned ranges,
    [seed] skips everything already in [done/] (and anything still
    pending), and the merge reads [done/] + [results/]. *)

type t

val create : dir:string -> t
(** Create (or adopt) the queue directory structure under [dir]. *)

val dir : t -> string

(** {1 Per-worker telemetry files}

    Distributed telemetry artifacts live beside the queue so parent,
    workers and post-hoc readers agree on the layout: worker [K] spools
    events to [events-w<K>.jsonl], snapshots its metrics registry to
    [metrics-w<K>.json] at shard boundaries, and traces spans to
    [trace-w<K>.jsonl]. *)

val spool_path : t -> worker:int -> string
val metrics_path : t -> worker:int -> string
val trace_path : t -> worker:int -> string

(** {1 Job spec} *)

val write_job : t -> Tmr_obs.Json.t -> unit
(** Atomically (re)write [job.json]. *)

val read_job : t -> (Tmr_obs.Json.t, string) result option
(** [None] when no [job.json] exists (fresh directory). *)

(** {1 The queue} *)

val seed : t -> Shard.range list -> int
(** Enqueue every range that is not already pending, claimed or done;
    returns how many were enqueued.  Idempotent — re-seeding a
    half-finished queue only adds what is missing. *)

val claim : t -> pid:int -> Shard.range option
(** Atomically claim the lowest-id pending range for [pid], or [None]
    when [todo/] is empty.  Safe against concurrent claimers. *)

val complete :
  t ->
  pid:int ->
  Shard.range ->
  results:Campaign.fault_result array ->
  manifest:Shard.manifest ->
  unit
(** Persist a finished shard: its [results] (one per fault of the range,
    in fault-index order) as {!Shard.put_record} records in
    [results/<id>.rec], encoded into one buffer, then its manifest as
    [done/<id>.json], each via tmp + rename, then drop the claim. *)

val reclaim_orphans : t -> int
(** Move every claim whose owner process is dead back into [todo/];
    returns how many were reclaimed.  Claims owned by live processes
    (including the caller) are left alone. *)

(** {1 Reading back} *)

val done_ids : t -> int list
(** Ids of the completed shards, ascending, read from the directory
    listing alone.  Only exact [NNNNN.json] names count: a manifest
    whose write is still in flight (or whose writer was killed before
    the rename) is its tmp file, and is not listed. *)

val load_manifest : t -> int -> (Shard.manifest, string) result
(** The manifest of one completed shard; [Error] names the file. *)

val load_done : t -> (Shard.manifest list, string) result
(** All completed-shard manifests, ascending by id.  A truncated or
    corrupt manifest is an [Error] naming the file — completion writes
    are atomic, so that means external damage, not a crash. *)

val read_results :
  t -> Shard.manifest -> (Campaign.fault_result array, string) result
(** The per-fault results of one completed shard, in fault-index order,
    read into the queue's one reusable buffer and decoded by position
    with {!Shard.records_of_bytes}: the file must hold exactly one
    record per fault of the manifest's range.  Not reentrant on one
    [t]. *)

val pending : t -> int
(** Ranges still in [todo/] plus live claims. *)
