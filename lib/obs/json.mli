(** A minimal JSON tree: parser and printer.

    The observability layer emits JSON all over (metrics snapshots, trace
    events, campaign summaries, run-store manifests) and until now only
    the tests could read it back.  The run store needs a library-side
    parser, so here is one — strict enough for machine-written JSON,
    with no dependencies. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON document.  Trailing whitespace is allowed, trailing
    garbage is an error. *)

val parse_exn : string -> t
(** Like {!parse}; raises [Failure] with the parse error. *)

val to_string : t -> string
(** Compact one-line rendering.  Numbers that hold integral values print
    without a decimal point. *)

(** {1 Accessors}

    All return [None] / [[]] rather than raising when the shape is not
    what was asked for. *)

val member : string -> t -> t option
val str : t -> string option
val num : t -> float option
val int : t -> int option
(** An integral number within the range of [int]; [None] otherwise
    (e.g. [1.5], [1e300]). *)

val bool : t -> bool option
val arr : t -> t list
