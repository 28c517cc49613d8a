(** Architecture parameters for the island-style SRAM FPGA model.

    The model follows the Spartan-II organisation the paper targets: an
    array of CLB tiles, each holding [slices_per_clb] slices of
    [luts_per_slice] LUT4+FF pairs ("bels"); segmented routing channels of
    single-, double- and long-length wires joined by switch boxes; and
    connection boxes tying bel pins and IO pads to the channels.  Every
    programmable interconnect point (PIP), LUT bit, CLB customization mux
    and flip-flop init cell is one configuration-memory bit. *)

type params = {
  rows : int;  (** CLB tile rows *)
  cols : int;  (** CLB tile columns *)
  slices_per_clb : int;
  luts_per_slice : int;
  lut_inputs : int;  (** fixed at 4 in this release *)
  ch_singles : int;  (** single-length wires per channel segment *)
  ch_doubles : int;  (** double-length wires per channel segment *)
  ch_longs : int;  (** long lines per row / column *)
  cb_in_singles : int;  (** single-wire choices per bel input pin *)
  cb_out_singles : int;  (** single wires drivable per bel output, per channel *)
  pads_per_position : int;  (** IO pairs per perimeter channel position *)
  long_tap_period : int;  (** switch-point spacing of long-line taps *)
  frame_bits : int;  (** configuration frame height, 576 on the XC2S200E *)
}

val xc2s200e : params
(** Parameters sized after the paper's Spartan-II XC2S200E-PQ208: a
    28 x 42 array (the paper's "28 x 42 slices"), 4 LUT/FF bels per tile,
    576-bit frames, and channel widths chosen so the configuration-memory
    composition approaches the paper's 82.9 % routing / 7.4 % LUT split. *)

val small : params
(** A tiny device for unit tests (fast to build and route). *)

val bels_per_tile : params -> int
val num_bels : params -> int

val scaled : params -> rows:int -> cols:int -> params
(** Same fabric style at a different array size. *)
