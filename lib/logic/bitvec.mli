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

(** Mutable fixed-length bitsets over 32-bit array words.

    Used by the bit-parallel batched fault simulator to track per-lane
    state (active, diverged, converged lanes) where one lane is one
    fault packed into a machine-word bit position.  Lengths are
    arbitrary; the final partial word keeps its unused high bits zero
    as an invariant, so {!Lanemask.popcount}, {!Lanemask.is_empty} and
    word-level boolean updates need no tail masking at use sites. *)
module Lanemask : sig
  type t

  val create : int -> t
  (** [create n] is an all-clear mask of [n >= 1] lanes. *)

  val length : t -> int
  val num_words : t -> int

  val get : t -> int -> bool
  val set : t -> int -> unit
  val clear : t -> int -> unit
  val set_all : t -> unit

  val word : t -> int -> int
  (** Raw 32-bit word [w]; bits beyond [length] are always zero. *)

  val set_word : t -> int -> int -> unit
  (** [set_word t w v] stores [v] into word [w], masking off any bits
      beyond [length t] so the zero-tail invariant is preserved. *)

  val popcount : t -> int
  val is_empty : t -> bool

  val first_set : t -> int
  (** Lowest set lane index, or [-1] when empty. *)

  val union_into : into:t -> t -> unit
  val inter_into : into:t -> t -> unit

  val diff_into : into:t -> t -> unit
  (** [diff_into ~into src] clears every lane of [src] in [into]. *)

  val copy : t -> t
  val equal : t -> t -> bool

  val iter : (int -> unit) -> t -> unit
  (** Calls [f] on each set lane index in increasing order. *)
end
