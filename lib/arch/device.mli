(** The device resource graph: wires, PIPs, bels and pads.

    Wires are graph nodes; directional PIPs (programmable interconnect
    points) are the configurable edges.  Bel output pins and input pads are
    the only non-PIP drivers.  The router, the bitstream generator and the
    faulty-fabric extractor all work on this graph. *)

type wire_kind =
  | HSingle
  | VSingle
  | HDouble
  | VDouble
  | HLong
  | VLong
  | BelIn  (** LUT input pin; widx is the pin number *)
  | BelOut  (** bel output pin *)
  | PadIn  (** input pad driver *)
  | PadOut  (** output pad sink *)

type t = {
  params : Arch.params;
  nwires : int;
  wkind : wire_kind array;
  wrow : int array;  (** anchor row (channel coordinate for channel wires) *)
  wcol : int array;
  widx : int array;  (** index within its group (channel track / pin number) *)
  npips : int;
  pip_src : int array;
  pip_dst : int array;
  pip_bidir : bool array;
      (** pass-transistor pips (switch boxes): when on, the endpoints are
          electrically shorted.  Buffered pips (connection boxes, pads)
          drive [pip_dst] from [pip_src]. *)
  wire_out : int array array;
      (** wire -> traversable pips (bidirectional pips appear on both
          endpoints; use {!pip_other} for the far end) *)
  wire_in : int array array;  (** wire -> pips that can drive it *)
  nbels : int;
  bel_row : int array;
  bel_col : int array;
  bel_slot : int array;
  bel_in : int array array;  (** bel -> input pin wires *)
  bel_out : int array;  (** bel -> output pin wire *)
  wire_bel : int array;  (** pin wire -> owning bel, -1 otherwise *)
  npads : int;
  pad_wire : int array;
  pad_is_input : bool array;
  wire_pad : int array;  (** pad wire -> pad id, -1 otherwise *)
}

val build : Arch.params -> t

val bel_at : t -> row:int -> col:int -> slot:int -> int
val wire_span : t -> int -> int
(** Physical length in tiles (1 for singles and pins, 2 for doubles, full
    row/column for longs). *)

val pip_other : t -> int -> int -> int
(** [pip_other t pip w] is the endpoint of [pip] that is not [w]. *)

val describe_wire : t -> int -> string

val input_pads : t -> int array
val output_pads : t -> int array

val check_invariants : t -> (unit, string list) result
(** Graph sanity: pip endpoints valid, adjacency arrays consistent with the
    pip list, pin wires owned by their bel, pad wires registered, channel
    wires within coordinates. *)
