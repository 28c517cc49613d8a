(** Three-valued logic for FPGA fabric simulation.

    The fabric simulator must represent signals whose value cannot be
    determined after a configuration upset: floating wires, shorted wires
    driven to opposite values, and unresolved combinational loops.  [X]
    denotes such an unknown value and propagates pessimistically through
    every operator. *)

type t =
  | Zero
  | One
  | X  (** unknown / unresolved / conflicting *)

val equal : t -> t -> bool

val of_bool : bool -> t

val to_bool_opt : t -> bool option
(** [to_bool_opt v] is [Some b] for a defined value, [None] for {!X}. *)

val logic_not : t -> t

val ( &&& ) : t -> t -> t
(** Kleene conjunction: [Zero &&& X = Zero], [One &&& X = X]. *)

val ( ||| ) : t -> t -> t
(** Kleene disjunction: [One ||| X = One], [Zero ||| X = X]. *)

val logic_xor : t -> t -> t

val mux : sel:t -> t -> t -> t
(** [mux ~sel a b] is [a] when [sel = Zero], [b] when [sel = One].  When
    [sel = X] the result is the common value of [a] and [b] if they agree,
    [X] otherwise. *)

val maj3 : t -> t -> t -> t
(** Majority of three: defined whenever two defined inputs agree, hence a
    single [X] input never corrupts the vote. *)

val resolve : t -> t -> t
(** Resolution of two drivers shorted onto one wire: agreeing drivers keep
    their value, disagreeing or unknown drivers give [X]. *)

val resolve_list : t list -> t
(** Multi-driver resolution; an empty driver list is a floating wire, [X]. *)

val to_char : t -> char
(** ['0'], ['1'] or ['X']. *)

val of_char : char -> t option

val pp : Format.formatter -> t -> unit
