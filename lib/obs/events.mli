(** Typed structured events for live campaign telemetry.

    Producers (Campaign, Pool, Store, tmrtool) publish typed events to
    one sink: a JSONL file that every event is appended to synchronously,
    one whole line per [write(2)] under the sink mutex, flushed at once.
    There is no queue and no writer thread, so nothing is ever dropped,
    and a reader tailing the file ([tmrtool watch -f]) with
    {!input_whole_line} sees whole lines only.

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
  | Campaign_stopped of {
      design : string;
      requested : int;
      injected : int;
      wrong : int;
      wall_ns : int;
    }
      (** a finished campaign's final counts; [requested] and [injected]
          are always equal (every requested fault is injected) and both
          stay for readers of either name *)
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

val enabled : unit -> bool
(** Is a sink installed?  Producers may use this to skip building event
    arguments, but {!publish} is already a no-op when false. *)

val publish : event -> unit
(** Append one event to the sink as one whole line and flush it.
    Domain- and thread-safe.  SIGTERM and SIGINT are blocked in the
    calling thread until the sink lock is released, so a process they
    kill ends on a whole line, and a handler that calls {!close} never
    runs while its own thread holds the lock.  No-op without a sink. *)

(** {1 Origin context}

    In a distributed campaign every process stamps its events with an
    ["origin"] object — [{"pid":…,"worker":…,"shard":…,"job":"…"}] —
    so the merged fleet stream stays attributable per worker.  The
    context is ambient process state: set once per worker, updated with
    {!set_shard} at shard boundaries.  With no context set the wire
    format is unchanged. *)

val set_context : worker:int -> job:string -> unit
(** Stamp subsequent events with this origin.  [job] is the correlation
    id minted by the campaign parent; the pid is captured here, so call
    this {e after} [fork]. *)

val clear_context : unit -> unit

val set_shard : int -> unit
(** Record the shard the process is currently running ([-1] between
    shards).  No-op without a context. *)

val to_file : string -> unit
(** Stream events to [path] as JSONL, truncating it.  Replaces (and
    closes) any sink already installed; the new stream's [seq] starts
    at 0. *)

val spool : path:string -> worker:int -> job:string -> unit
(** {!to_file} for a forked worker: set the origin context first, so
    every line carries the worker's origin and the file's [seq] is
    worker-local.  The parent's tailer follows the file live.  Call
    {!detach} before this in a forked child. *)

val publish_payload : string -> unit
(** Append a pre-rendered payload (everything after the ["ts_ns"]
    field, starting with a comma) under the sink's next sequence
    number, through the same locked path as {!publish}.  Used by the
    tailer to relay spooled worker events; no-op without a sink. *)

val respool_line : string -> (int * string) option
(** [respool_line line] converts one spool line into
    [(worker_seq, payload)] for {!publish_payload}: the worker-local
    prefix is stripped and re-appended as a top-level ["oseq"] field.
    [None] unless [line] parses ({!parse_line}), carries an origin, has
    no ["oseq"] yet and starts in the canonical [{"seq":N,"ts_ns":]
    form, so a relayed line always parses back with [o_seq = N]. *)

val close : unit -> unit
(** Flush and close the sink, clear the origin context and disable
    publishing.  Idempotent. *)

val detach : unit -> unit
(** Forget the sink {e without} flushing, closing or locking anything:
    publishing becomes a no-op in this process.  For forked children —
    the inherited channel belongs to the parent, and its mutex may have
    been held by a parent thread that does not exist in the child.  One
    atomic store, hence safe immediately after [fork]. *)

val published : unit -> int
(** Events written to the current (or last) stream. *)

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
(** Parse one stream line back into a typed event.  An ["origin"] must
    be an object with integer [pid], [worker] and [shard] and a string
    [job], and an ["oseq"] must be an integer; anything else is an
    [Error]. *)

val input_whole_line : in_channel -> string option
(** The next newline-terminated line of a stream that may still be
    growing, or [None] at its end.  A trailing line without its newline
    (a write a reader caught half-copied, or a line SIGKILL tore) is
    left unread with the channel back at its start, so a follower
    re-reads it once the rest lands. *)

val render : seq:int -> ts_ns:int -> event -> string
(** The exact line {!publish} would emit (without the newline).
    Public for tests. *)
