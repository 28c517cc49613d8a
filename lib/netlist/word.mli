(** Word-level circuit construction on top of {!Netlist}.

    A word is an array of net ids, LSB first.  All arithmetic is
    two's-complement and is built from 1-bit gates (full adders from
    Xor2/Maj3), so the result of every builder is plain gate logic that the
    technology mapper can cover with LUT4s. *)

type word = Netlist.id array

val input : Netlist.t -> string -> width:int -> word
(** Fresh primary input port. *)

val output : Netlist.t -> string -> word -> unit
(** Fresh primary output port driven by [word]. *)

val const : Netlist.t -> width:int -> int -> word
(** Two's-complement constant. *)

val bitnot : Netlist.t -> word -> word
val bitand : Netlist.t -> word -> word -> word
val bitor : Netlist.t -> word -> word -> word
val bitxor : Netlist.t -> word -> word -> word

val add : Netlist.t -> word -> word -> word
(** Ripple-carry addition; operands must share a width, result keeps it. *)

val sub : Netlist.t -> word -> word -> word

val resize : Netlist.t -> word -> width:int -> word
(** Sign-extending or truncating resize.  Extension reuses the sign bit net
    and adds no cells. *)

val mul_const : Netlist.t -> word -> int -> width:int -> word
(** [mul_const t a c ~width] is the signed product [a * c] computed by a
    shift-and-add/subtract network at [width] bits — the way a synthesizer
    implements the FIR filter's constant coefficients. *)

val mul : Netlist.t -> word -> word -> word
(** General signed array multiplier; result width is the sum of the operand
    widths. *)

val mux2 : Netlist.t -> sel:Netlist.id -> word -> word -> word
(** Per-bit 2:1 mux; [sel = 0] picks the first word. *)

val eq : Netlist.t -> word -> word -> Netlist.id
(** Single-bit equality. *)

val reg : Netlist.t -> ?init:int -> word -> word
(** Register every bit through a D flip-flop.  [init] is the power-up /
    configuration-load value (default 0). *)
