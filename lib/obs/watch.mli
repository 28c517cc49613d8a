(** Event-stream aggregation behind [tmrtool watch].

    Feed parsed {!Events} lines (from a JSONL file, possibly still
    growing) in stream order; the state tracks every campaign seen
    (multi-campaign streams render one row each), per-worker
    heartbeats, batch occupancy and stream health (sequence gaps =
    events missing from the stream, e.g. unparseable lines).

    The wrong-rate confidence interval is recomputed from the event
    counts with {!Stats.wilson} — the same code the injection engine
    uses — so a finished stream reproduces the engine's final
    n/wrong/CI exactly, with no access to the run itself. *)

type t

val create : unit -> t

val feed : t -> Events.parsed -> unit
(** Ingest one event.  Events may arrive for several campaigns
    interleaved; sequence numbers must be fed in stream order for gap
    accounting to be exact.

    Origin-stamped campaign events (from the workers of a forked
    [--procs] run, relayed onto the merged stream) are {e shard-local}:
    they feed the per-worker fleet table and in-flight progress, while
    the origin-less [campaign_started] / [campaign_stopped] published
    by the sharded driver stay authoritative for the totals and the
    final verdict — so {!summary_json} of a merged fleet stream still
    reproduces the engine's exact n/wrong/CI. *)

val finished : t -> bool
(** At least one campaign seen, and every campaign seen has stopped. *)

val events_seen : t -> int

val gaps : t -> int
(** Events missing from the stream (sum of sequence-number gaps). *)

val fleet_workers : t -> int
(** Distinct origin pids seen — forked worker processes. *)

val origin_gaps : t -> int
(** Worker-local sequence numbers never observed, summed over the
    fleet: events lost between a worker's spool and the merged
    stream. *)

val render : ?confidence:float -> ?worker_timeout:float -> t -> string
(** Multi-campaign dashboard: one block per campaign (progress bar,
    rate, ETA, wrong rate ± Wilson CI, plan-path counts, batch
    occupancy), a per-process fleet table on merged [--procs] streams
    (shards done, in-flight progress, faults/s, spool health), worker
    heartbeat rows, and a stream-health footer.

    [worker_timeout] (seconds): while the run is live, a fleet worker
    whose latest event is older than this (against the newest stream
    timestamp) is flagged [STALE] — a wedged or killed process.  No
    flagging once every campaign has stopped. *)

val summary_json : ?confidence:float -> t -> string
(** JSON array, one object per campaign, with the same fields and
    number formatting as [tmrtool inject --json]
    ([design]/[requested]/[injected]/[wrong]/[wrong_percent]/[ci]) so
    the two can be compared byte-for-byte field-wise. *)
