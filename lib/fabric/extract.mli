(** Derived view of a configuration image.

    Where the design tools go netlist -> bitstream, this module goes the
    other way: it maintains, for an arbitrary (possibly corrupted)
    bitstream, the electrical structure the fabric would actually realise —
    per-wire driver lists, per-bel LUT tables and mux settings, pad
    enables.  Fault injection flips one bit at a time through
    {!apply_bit_flip}, which updates the derived state incrementally (and
    is an involution, so applying it again reverts the fault). *)

type t

val create : Tmr_arch.Device.t -> Tmr_arch.Bitdb.t -> Tmr_arch.Bitstream.t -> t
(** Scans the whole image once.  The bitstream is captured by reference and
    mutated by {!apply_bit_flip}. *)

val copy : t -> t
(** Snapshot of the derived state, including a private copy of the
    bitstream — orders of magnitude cheaper than re-scanning the image
    with {!create}.  Campaign workers clone one golden extract each. *)

val device : t -> Tmr_arch.Device.t
val database : t -> Tmr_arch.Bitdb.t

val bit_is_set : t -> int -> bool
(** Current state of one configuration bit in the captured image. *)

val apply_bit_flip : t -> int -> unit
(** Flip one configuration bit and update the derived state. *)

val drivers : t -> int -> int list
(** Wires currently driving the given wire through ON buffered pips. *)

val links : t -> int -> int list
(** Wires currently shorted to the given wire by ON pass-transistor pips;
    shorted wires form one electrical node. *)

val lut_table : t -> int -> int
val out_sel : t -> int -> bool
val ce_inv : t -> int -> bool
val in_inv_mask : t -> int -> int
val ff_init : t -> int -> Tmr_logic.Logic.t
(** Configuration-load state of the bel's flip-flop ([Ff_init] xor
    [Sr_inv]). *)

val pad_enabled : t -> int -> bool
