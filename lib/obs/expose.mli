(** Metrics exposition: Prometheus text format v0.0.4 over HTTP.

    {!render} turns the live {!Metrics} registry (plus event-stream
    liveness gauges from {!Events}) into the Prometheus text format, and
    {!listen} serves it from a single background thread so a running
    campaign can be scraped or curl-polled mid-flight:

    {v tmrtool inject --listen 9464 ...   # then
       curl http://127.0.0.1:9464/metrics v}

    The server is deliberately tiny: one thread, one connection at a
    time, [GET /metrics] (or [/]) plus a [GET /healthz] readiness
    probe.  Rendering takes a registry snapshot, so a scrape never
    blocks recorders. *)

val render : unit -> string
(** The current registry as Prometheus text format v0.0.4.  Metric
    names are sanitized (dots become underscores); histograms emit
    cumulative [_bucket{le="..."}] series plus [_sum]/[_count] and
    exact [_min]/[_max] gauges; the event stream contributes
    [events_bus_published]/[events_bus_last_seq].  When extra snapshot sources are registered
    ({!set_extra_snapshots}) they are folded in with {!Metrics.merge},
    so a distributed campaign scrape reports fleet-wide totals. *)

val set_extra_snapshots : (unit -> Metrics.snapshot list) option -> unit
(** Register (or clear, with [None]) a producer of additional metric
    snapshots folded into every {!render} — typically a reader over
    forked workers' on-disk snapshot files.  Exceptions from the
    producer are swallowed (the scrape then reports local data only). *)

val set_active_probe : (unit -> int) option -> unit
(** Register (or clear) the active-campaign counter reported by
    [/healthz].  Wired by the host binary, since this layer cannot
    depend on the campaign engine. *)

val healthz_body : unit -> string
(** The [/healthz] response body: one JSON object with [status],
    [uptime_s] (0 when no server runs), event-stream liveness
    ([bus]: [enabled]/[published]) and
    [active_campaigns].  Exposed for tests. *)

val listen : ?host:string -> int -> int
(** Bind [host] (default 127.0.0.1) at the given port, start the serve
    thread, and return the bound port — pass port 0 to let the kernel
    pick one.  At most one server per process; raises
    [Invalid_argument] if one is already running. *)

val stop : unit -> unit
(** Shut the server down and join its thread.  Idempotent. *)

val port : unit -> int option
(** The bound port while the server runs. *)
