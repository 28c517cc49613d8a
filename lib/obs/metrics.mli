(** Process-global, domain-safe metrics registry.

    Three instrument kinds: monotonic {e counters}, set-wins {e gauges},
    and log-bucketed latency {e histograms}.  Recording is always on and
    is designed to be cheap enough for per-fault hot paths: every
    instrument is sharded per domain (slot = domain id mod shard count),
    so concurrent recorders hit disjoint atomics and never contend, and
    the record path allocates nothing.  Shards are merged only by
    {!snapshot}; nothing is formatted and no I/O happens unless a caller
    asks for a snapshot — with no consumer, telemetry costs one atomic
    add per event.

    Instruments are interned by name: calling {!counter} twice with the
    same name returns the same instrument.  Create instruments once at
    module initialisation and keep the handle; the registry lookup takes
    a lock and is not meant for hot paths. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Intern (or create) the counter [name]. *)

val gauge : string -> gauge
val histogram : string -> histogram

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1) to the counter.  Domain-safe, exact. *)

val set : gauge -> float -> unit
(** Last write wins. *)

val observe : histogram -> int -> unit
(** Record one non-negative sample (conventionally nanoseconds).
    Samples [<= 0] land in the first bucket; samples above [2^53] are
    recorded as [2^53], so every snapshot reads back exactly.  Domain-safe, exact counts
    and sums; the bucket resolution is [2^(1/3)] (~26%), which bounds
    the percentile error. *)

(** {1 Snapshots} *)

type hist_summary = {
  count : int;
  sum : int;
  mean : float;  (** [sum/count], exact; 0 when empty *)
  p50 : float;
  p95 : float;
  p99 : float;
      (** upper bound of the bucket holding the percentile rank — an
          over-estimate by at most the bucket ratio (~26%); 0 when the
          histogram is empty *)
  min : int;
  max : int;
      (** exact smallest/largest sample ever observed (not
          bucket-derived); both 0 when the histogram is empty *)
  buckets : (int * int) array;
      (** occupied buckets only, ascending, as [(upper_bound, count)];
          counts sum to [count].  The catch-all last bucket's bound is
          [max_int].  In the JSON snapshot this renders as
          [[[bound, count], ...]] with the catch-all bound as [-1], so
          external tools can re-plot the full latency distribution. *)
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_summary) list;
}
(** All association lists are sorted by instrument name. *)

val snapshot : unit -> snapshot
(** Merge every shard of every registered instrument.  Concurrent
    recorders may land either side of the merge; each event is counted
    exactly once overall. *)

val percentile : histogram -> float -> float
(** [percentile h q] with [q] in [0,1], against the live shards (merged
    on the fly).  Mostly for tests; prefer {!snapshot}. *)

val reset : unit -> unit
(** Zero every registered instrument (instruments stay registered).
    For benchmarks that isolate one phase; not domain-safe against
    concurrent recorders. *)

val to_json_string : ?indent:int -> snapshot -> string
(** Render as a JSON object [{"counters": {...}, "gauges": {...},
    "histograms": {...}}].  [indent] (default 2) is the number of spaces
    per nesting level. *)

val write_file : string -> unit
(** [write_file path] = take a snapshot and write its JSON to [path].
    Atomic (tmp + rename in the same directory): a concurrent reader
    sees either the previous snapshot or the new one, never a torn
    file — forked workers rewrite their snapshot at shard boundaries,
    and one killed mid-write leaves the previous snapshot whole. *)

(** {1 Cross-process aggregation}

    Forked campaign workers cannot share the in-memory registry, so
    each serializes its snapshot with {!write_file} and the parent
    reads the files back and {!absorb}s them once the workers are
    reaped — fleet-wide totals from per-process parts. *)

val of_json_string : string -> (snapshot, string) result
(** Parse a snapshot back from its {!to_json_string} rendering. *)

val read_file : string -> (snapshot, string) result
(** Read and parse one snapshot file. *)

val absorb : snapshot -> unit
(** Add a snapshot into the live registry: counters add; histograms add
    counts, sums and bucket contents by bound and keep exact extrema
    (mean and percentiles are recomputed from the merged buckets at the
    next {!snapshot}); gauges take the absorbed value
    (last-write-wins across processes).  Unknown names are registered;
    a name already registered as another kind is skipped.  Never
    raises. *)
