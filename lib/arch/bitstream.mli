(** Configuration memory image: a flat array of bits addressed by the
    {!Bitdb} layout.  Fault injection flips exactly one bit of a copy. *)

type t

val create : nbits:int -> t
(** All-zero configuration (the erased device). *)

val length : t -> int

val get : t -> int -> bool
val set : t -> int -> bool -> unit
val flip : t -> int -> unit

val copy : t -> t

val popcount : t -> int
(** Number of programmed (1) bits. *)

val diff : t -> t -> int list
(** Addresses where the two images differ (ascending). *)

val to_hex : t -> string
(** Hex dump, two characters per byte, LSB-first bit order within bytes. *)
