(** Plain-text table rendering for experiment reports.

    Used by the experiment reports to print reproductions of the paper's
    tables in aligned, greppable form. *)

type align =
  | Left
  | Right

type t

val create : ?title:string -> header:string list -> align list -> t
(** [create ~header aligns] starts a table; [aligns] gives per-column
    alignment and its length fixes the column count. *)

val add_row : t -> string list -> unit
(** Row cells must match the column count. *)

val add_separator : t -> unit
(** Horizontal rule between row groups. *)

val render : t -> string

val print : t -> unit
(** Render to stdout followed by a newline. *)
