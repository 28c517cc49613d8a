(** Line-oriented JSON sinks shared by the observability emitters.

    A sink is an atomically-swappable output channel plus a mutex; with
    none registered every emission is one atomic load.  {!Trace} (span
    events), the fault-forensics stream ([Tmr_inject.Forensics]) and
    the {!Events} stream are instances: each owns one {!t} and renders
    its own line format, while registration, locking, escaping and
    teardown live here. *)

type t

val make : unit -> t
(** A sink handle with no destination registered. *)

val to_file : t -> string -> unit
(** Open [path] (truncating) and direct subsequent emissions to it.
    Replaces any previously registered destination (flushed, closed). *)

val close : t -> unit
(** Flush and close; emissions become no-ops again.  Safe when no
    destination is registered. *)

val detach : t -> unit
(** Forget the destination {e without} flushing or closing it.  For
    forked children, which share the channel buffer and file offset
    with the parent: one atomic store, no locks. *)

val enabled : t -> bool

val emit : t -> string -> unit
(** Write one line ([line] must not contain the trailing newline) under
    the sink mutex; whole-line writes keep concurrent emitters from
    interleaving.  No-op without a destination; a destination closed
    concurrently is ignored. *)

val append : t -> (unit -> string) -> unit
(** Like {!emit}, but durable and ordered: [render ()] is called under
    the sink mutex (so state it reads or bumps, such as a sequence
    number, follows line order), and the line is flushed at once, one
    [write(2)] for any line below the 64 KiB channel buffer, so a
    reader tailing the file never waits on a buffer.  SIGTERM and
    SIGINT are blocked in the calling thread until the lock is
    released: a process they kill ends on a whole line, and a handler
    that closes the sink never runs while its own thread holds the
    lock. *)

val escape : string -> string
(** JSON string-content escaping (no surrounding quotes). *)
