(** In-memory span recorder for the benchmark's traced runs.

    Every span records its name, its parent (the innermost span open when
    it started), monotonic start/end and the [Gc.quick_stat] deltas over
    its interval.  Nothing is written while the benchmark measures; the
    spans go to a Chrome-trace JSONL file at the end, in the format
    [tmrtool profile] renders.  Spans are recorded from the calling
    domain only: the benchmark times each layer from outside, around the
    calls into its public functions. *)

type t

val create : unit -> t

val record : t -> string -> (unit -> 'a) -> 'a
(** [record t name f] runs [f] inside a span named [name].  The span is
    closed (and kept) when [f] raises too. *)

val mark : t -> int
(** Number of spans started so far: pass it as [since] to restrict
    {!totals} and {!unaccounted} to the spans started afterwards. *)

type stat = {
  seconds : float;  (** summed duration *)
  minor_mw : float;  (** summed minor-heap allocation, in millions of words *)
  major_gcs : int;  (** summed major collections *)
}

val totals : t -> since:int -> (string * stat) list
(** Per span name, over the spans started at or after [since]; names in
    first-start order. *)

val unaccounted : t -> since:int -> float
(** For the first span started at or after [since] (a root): the share
    of its duration that its direct children do not cover. *)

val write_chrome : t -> string -> unit
(** Write every span as one [ph:"X"] Chrome-trace event per line, with
    [parent], [minor_mw] and [major_gcs] in [args]. *)
