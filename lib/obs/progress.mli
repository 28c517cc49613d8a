(** TTY-aware progress rendering with rate and ETA.

    On a terminal the renderer redraws one line in place (carriage
    return, no scrollback spam) at most every ~100 ms; on a pipe or CI
    log it prints one full line per ~10% step instead.  Rate and ETA
    come from the monotonic clock. *)

val callback : ?out:out_channel -> unit -> string -> int -> int -> unit
(** A labelled progress callback compatible with
    [Tmr_experiments.Runs.campaign_design ~progress].  Renders one bar
    per label; when the label changes (the next campaign of a multi-run
    starts) the previous bar is finished first, and a bar is finished as
    soon as its count reaches its total. *)

val callback_note :
  unit ->
  (string -> string -> int -> int -> unit) * (unit -> unit)
(** Like {!callback} with a per-update note: the first component is
    called as [cb label note done_ total].  The second finishes the
    current bar at its last seen count — call it after the campaigns,
    so a bar that never saw its total does not hold the line open. *)
