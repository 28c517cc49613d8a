(** Bitstream generation and DUT-bit identification.

    Produces the golden configuration image and the list of
    configuration-memory bits "related to the DUT" — used bel bits, used
    pad bits, and every routing PIP incident to a wire of a routed net.
    This list is what the paper's Fault List Manager injects from. *)

type t = {
  bitstream : Tmr_arch.Bitstream.t;
  dut_bits : int array;  (** ascending, unique *)
  used_wires : bool array;  (** wire id -> part of a routed net *)
  used_bels : bool array;
  used_pads : bool array;
}

val run :
  Tmr_arch.Device.t ->
  Tmr_arch.Bitdb.t ->
  Pack.t ->
  Place.t ->
  Route.result ->
  Tmr_netlist.Netlist.t ->
  t
