(** Fixed-size [Domain] worker pool over an integer work range.

    Built on stdlib [Domain]/[Mutex] only.  Items [0, total) are handed to
    workers in contiguous chunks claimed from a shared cursor; each worker
    runs its own initialisation once (worker-local simulators, scratch
    buffers) and then processes items with the handler it returned.
    Because the caller decides where each item's result lands (typically
    [results.(i) <- ...]), the output is independent of scheduling. *)

val run :
  ?progress:(int -> int -> unit) ->
  ?chunk:int ->
  workers:int ->
  total:int ->
  (int -> int -> unit) ->
  unit
(** [run ~workers ~total body] processes every item in [0, total).

    [body wid] runs once per worker (worker ids [0, workers)) and returns
    the item handler; with [workers = 1] (or [total <= chunk]) everything
    runs inline in the calling domain with [wid = 0] — no domains are
    spawned.

    [progress] is called as [f completed total], serialized under the pool
    mutex and rate-limited to at most one call per ~1% of [total] (plus a
    final tick at the end state).  It must not raise.

    [chunk] (default 16) is the {e maximum} number of consecutive items
    claimed at a time.  Actual claims shrink with the remaining work —
    roughly [remaining / (workers * 8)], at least 1 — so short campaigns
    and the tail of long ones stay load-balanced
    instead of one worker dragging a final oversized chunk alone.

    If a worker raises, the pool stops handing out work, joins every
    domain, and re-raises the first exception in the caller with its
    backtrace; remaining items are left unprocessed.  Completed items are
    unaffected. *)
