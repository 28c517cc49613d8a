(** Typed, lock-light structured event bus for live campaign telemetry.

    Producers (Campaign, Pool, Store, tmrtool) publish typed events;
    a single writer thread renders them to JSONL and fans them out to
    the registered sinks — a file, a Unix-domain socket server, or
    both.  The design goal is that the fault loop never blocks on
    telemetry:

    - {!publish} only formats the payload and takes one short ring
      mutex; all I/O happens on the writer thread.
    - The ring is bounded.  When it is full the event is dropped and
      counted — its sequence number is still consumed, so a gap in the
      [seq] field of the stream is an exact record of what was lost.
    - Socket clients that stop reading are disconnected rather than
      back-pressuring the bus.

    Every line is one JSON object
    [{"seq":N,"ts_ns":T,"type":"...",...}] with [seq] dense from 0 per
    stream and [ts_ns] monotonic ({!Clock.now_ns}, read under the same
    lock that assigns [seq], so timestamp order matches sequence
    order).

    With no sink installed, {!publish} is one atomic load — the
    instrumented hot paths stay free. *)

type event =
  | Campaign_started of { design : string; faults : int; workers : int }
  | Campaign_progress of {
      design : string;
      completed : int;
      total : int;
      wrong : int;
    }
  | Campaign_ci of {
      design : string;
      n : int;
      wrong : int;
      confidence : float;
      lo : float;
      hi : float;
    }
  | Campaign_stopped of {
      design : string;
      requested : int;
      injected : int;
      wrong : int;
      wall_ns : int;
    }
  | Campaign_detection of {
      design : string;
      silent_correct : int;
      detected_corrected : int;
      detected_wrong : int;
      silent_wrong : int;
    }
      (** four-way detected-vs-silent verdict split of a finished
          campaign on a design with in-circuit detection voters; the
          counts sum to the campaign's injected faults *)
  | Batch_dispatched of { design : string; lanes : int }
  | Worker_heartbeat of {
      worker : int;
      busy_ns : int;
      idle_ns : int;
      items : int;
    }
  | Plan_paths of {
      design : string;
      silent : int;
      patched : int;
      rerouted : int;
      rebuilt : int;
      diffed : int;
      converged : int;
      batched : int;
    }
  | Manifest_written of { design : string; path : string }
  | Shard_done of {
      design : string;
      shard : int;
      lo : int;  (** first fault index of the range (inclusive) *)
      hi : int;  (** last fault index of the range (exclusive) *)
      wrong : int;  (** wrong answers within the range *)
      pending : int;  (** ranges still queued or claimed *)
    }  (** one checkpointed shard of a distributed campaign completed *)
  | Job_queued of { job : string; design : string }
      (** a campaign job entered the [tmrtool serve] queue *)
  | Job_started of { job : string; design : string }
  | Job_done of {
      job : string;
      design : string;
      injected : int;
      wrong : int;
      wall_ns : int;
    }

val enabled : unit -> bool
(** Is any sink installed (bus or spool)?  Producers may use this to
    skip building event arguments, but {!publish} is already a no-op
    when false. *)

val publish : event -> unit
(** Enqueue one event.  Never blocks on I/O; drops (counted) when the
    ring is full.  Domain-safe.  In spool mode the event is written
    synchronously to the spool file instead (one whole line per write,
    so a concurrent tailer never sees a torn line; SIGTERM and SIGINT are
    blocked during the write, so a worker they kill ends on a whole
    line). *)

(** {1 Origin context}

    In a distributed campaign every process stamps its events with an
    ["origin"] object — [{"pid":…,"worker":…,"shard":…,"job":"…"}] —
    so the merged fleet stream stays attributable per worker.  The
    context is ambient process state: set once per worker, updated with
    {!set_shard} at shard boundaries, carried by both bus and spool
    sinks.  With no context set the wire format is unchanged. *)

val set_context : worker:int -> job:string -> unit
(** Stamp subsequent events with this origin.  [job] is the correlation
    id minted by the campaign parent; the pid is captured here, so call
    this {e after} [fork]. *)

val clear_context : unit -> unit

val set_shard : int -> unit
(** Record the shard the process is currently running ([-1] between
    shards).  No-op without a context. *)

val spool : path:string -> worker:int -> job:string -> unit
(** Switch this process to spool mode: disown any inherited bus, set
    the origin context, and append every published event to [path]
    (truncating) as JSONL with a worker-local dense [seq] from 0.
    Thread-less and lock-light, hence safe right after [fork]; the
    parent's tailer follows the file live.  {!close} flushes and
    closes the spool. *)

val publish_payload : string -> unit
(** Enqueue a pre-rendered payload (everything after the ["ts_ns"]
    field, starting with a comma) under a fresh bus sequence number.
    Used by the tailer to relay spooled worker events; no-op without a
    bus. *)

val respool_line : string -> (int * string) option
(** [respool_line line] converts one spool line into
    [(worker_seq, payload)] for {!publish_payload}: the worker-local
    prefix is stripped and re-appended as a top-level ["oseq"] field.
    [None] when [line] is not a well-formed spool line. *)

val to_file : ?capacity:int -> string -> unit
(** Start (or reuse) the bus and stream events to [path] as JSONL,
    truncating it.  [capacity] (default 4096) bounds the ring and is
    only honoured by the call that creates the bus. *)

val listen_unix : ?capacity:int -> string -> unit
(** Start (or reuse) the bus and serve the event stream on a
    Unix-domain socket bound at [path] (an existing socket file is
    replaced).  Clients see events published after they connect; a
    client that falls behind is disconnected. *)

val close : unit -> unit
(** Drain the ring, flush and close every sink, join the bus threads
    and disable publishing.  Idempotent. *)

val pause : unit -> unit
(** Drain the ring and join the writer and acceptor threads while
    keeping every sink open (file channel, listen socket, connected
    peers) and the sequence counter intact.  Events published while
    paused accumulate in the ring and flow once {!resume} restarts the
    threads.  A process about to [fork] must bracket the fork with
    [pause]/[resume]: a child forked while the writer thread is live
    inherits a poisoned threads runtime and can block forever at its
    first forced yield.  No-op without a bus. *)

val resume : unit -> unit
(** Restart the bus threads after {!pause}.  No-op without a bus. *)

val detach : unit -> unit
(** Disown the bus {e without} draining, closing or joining anything:
    publishing becomes a no-op in this process, every sink stays
    untouched.  For forked children — they inherit the bus record but
    not its threads, and share the sinks' file descriptors with the
    parent, so the only safe move is to forget the bus entirely.  Lock
    free (one atomic store), hence safe immediately after [fork] even
    if the fork split another thread mid-[publish]. *)

val published : unit -> int
(** Events assigned a sequence number since the bus was (last)
    created — written plus dropped. *)

val dropped : unit -> int
(** Events whose sequence numbers are missing from the stream. *)

val last_seq : unit -> int
(** Highest sequence number assigned, or [-1] when none.  Survives
    {!close}, so a run manifest can record the final sequence number
    after teardown. *)

val clients : unit -> int
(** Currently connected socket clients. *)

val type_name : event -> string
(** The [type] field value, e.g. ["campaign_progress"]. *)

(** {1 Reading a stream back}

    [tmrtool watch] and the tests re-ingest the JSONL stream. *)

type origin = {
  o_pid : int;  (** producing process *)
  o_worker : int;  (** logical worker slot (0 = the parent itself) *)
  o_shard : int;  (** shard being run when emitted, [-1] between shards *)
  o_job : string;  (** correlation id minted by the campaign parent *)
  o_seq : int;
      (** worker-local sequence number: dense from 0 per origin, also on
          the merged stream (where the top-level [seq] is the parent's) *)
}

type parsed = {
  p_seq : int;
  p_ts_ns : int;
  p_event : event;
  p_origin : origin option;  (** [None] on origin-less (legacy) lines *)
}

val parse_line : string -> (parsed, string) result
(** Parse one stream line back into a typed event. *)

val render : seq:int -> ts_ns:int -> event -> string
(** The exact line {!publish} would emit (without the newline).
    Exposed for tests. *)
