(** Fixed-width two's-complement bit vectors backed by native [int].

    Used by the software golden models (reference FIR filter, truth-table
    computation) and by tests.  Widths are limited to 62 bits so that every
    value fits in an OCaml immediate integer. *)

type t

val create : width:int -> int -> t
(** [create ~width v] truncates [v] to [width] bits.  [width] must be in
    [1, 62]. *)

val to_unsigned : t -> int
(** Value read as an unsigned [width]-bit integer. *)

val to_signed : t -> int
(** Value read as a two's-complement [width]-bit integer. *)

val of_signed : width:int -> int -> t
(** Like {!create}; named for call-site clarity with negative values. *)

val equal : t -> t -> bool

val bit : t -> int -> bool
(** [bit v i] is bit [i] (LSB is 0).  Raises [Invalid_argument] when out of
    range. *)

val set_bit : t -> int -> bool -> t

val add : t -> t -> t
(** Wrapping addition; both operands must share a width. *)

val sub : t -> t -> t
val neg : t -> t

val mul : t -> t -> t
(** Wrapping multiplication at the operands' common width. *)

val mul_wide : t -> t -> t
(** Full-precision signed product; result width is the sum of the operand
    widths. *)

val shift_left : t -> int -> t

val resize : t -> width:int -> t
(** Sign-extending (or truncating) resize. *)

val concat_bits : bool list -> t
(** Build from a list of bits, LSB first. *)

val bits : t -> bool list
(** Bits LSB first. *)

val to_string : t -> string
(** Binary, MSB first. *)
