(** Configuration-bit database: every programmable cell of the device, its
    address, and the resource it controls.

    This is the equivalent of the paper's reverse-engineered "data base of
    the programmed resources (LUTs and configuration routing cells)": it
    lets the fault list manager know what each bit does, and lets the
    fabric extractor re-interpret a (possibly corrupted) bitstream.

    Bits are laid out column-major (all resources of tile column 0, then
    column 1, ...) and grouped into fixed-height frames like the Xilinx
    configuration memory. *)

type resource =
  | Pip of int  (** routing: one programmable interconnect point *)
  | Lut_bit of int * int  (** bel id, truth-table position 0..15 *)
  | Ff_init of int  (** flip-flop configuration-load state *)
  | Out_sel of int  (** bel output mux: 0 = LUT, 1 = registered *)
  | Ce_inv of int  (** clock-enable inversion: 1 freezes the flip-flop *)
  | Sr_inv of int  (** set/reset polarity: 1 inverts the init value *)
  | In_inv of int * int  (** bel id, pin; 1 inverts the LUT input *)
  | Pad_enable of int  (** pad id; 0 disables the buffer (pad floats) *)
  | Pad_cfg of int * int
      (** pad id, attribute 0..2 (slew / pull-up / delay) — electrically
          benign in this model, present so the customization class has its
          realistic share of silent bits *)

type bit_class =
  | Class_routing
  | Class_lut
  | Class_custom  (** CLB customization muxes and pad buffers *)
  | Class_ff  (** flip-flop bits *)

type t

val build : Device.t -> t

val num_bits : t -> int
val num_frames : t -> int
val frame_bits : t -> int

val resource : t -> int -> resource
val class_of_bit : t -> int -> bit_class
val frame_of_bit : t -> int -> int

val pip_bit : t -> int -> int
(** Bit address controlling a pip. *)

val lut_bit : t -> bel:int -> idx:int -> int
val ff_init_bit : t -> bel:int -> int
val out_sel_bit : t -> bel:int -> int
val ce_inv_bit : t -> bel:int -> int
val sr_inv_bit : t -> bel:int -> int
val in_inv_bit : t -> bel:int -> pin:int -> int
val pad_enable_bit : t -> pad:int -> int
val pad_cfg_bit : t -> pad:int -> attr:int -> int

val class_counts : t -> (bit_class * int) list
(** Composition of the configuration memory, for the paper's §2 percentage
    report (routing / LUT / customization / flip-flop). *)

val class_counts_of : t -> int array -> (bit_class * int) list
(** The same composition of the given addresses, e.g. a design's DUT bit
    list (Table 2's #routing / #LUT / #CLB-FF columns). *)

val class_name : bit_class -> string
