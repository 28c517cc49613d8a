(** End-to-end implementation: technology map, pack, place, route, generate
    the bitstream, and keep every artefact the fault-injection campaign
    needs (the golden configuration, the DUT bit list, the physical IO
    map). *)

type t = {
  source : Tmr_netlist.Netlist.t;  (** the netlist as designed (gates) *)
  mapped : Tmr_netlist.Netlist.t;  (** post-techmap LUT netlist *)
  dev : Tmr_arch.Device.t;
  db : Tmr_arch.Bitdb.t;
  pack : Pack.t;
  place : Place.t;
  route : Route.result;
  bitgen : Bitgen.t;
  timing : Timing.report;
  seed : int;
}

val implement_exn :
  ?seed:int ->
  ?moves_per_site:int ->
  ?floorplan:Place.floorplan ->
  Tmr_arch.Device.t ->
  Tmr_arch.Bitdb.t ->
  Tmr_netlist.Netlist.t ->
  t
(** The input netlist is the gate-level design (pre-techmap).  Raises
    [Failure] naming the reason when the design fails its check or a
    phase cannot complete. *)

val route_digest : t -> string
(** Hex MD5 over everything the router returned ([net_pips], [net_wires],
    [sink_stats], [iterations]) and the bitstream it led to.  Any change to
    the router's search order (heap ties, neighbour order, cost rounding)
    or to the placement changes it; the tests and CI pin it per design. *)

val input_pad_wire : t -> string -> int -> int
(** [input_pad_wire t port bit] is the PadIn wire driving input [port]
    bit [bit]. *)

val output_pad_wire : t -> string -> int -> int

val used_slices : t -> int
(** Distinct (tile, slice) pairs occupied — Table 2's area column. *)

val used_luts : t -> int
val used_ffs : t -> int
