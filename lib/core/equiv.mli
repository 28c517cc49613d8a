(** Bounded sequential equivalence between a design and its TMR version.

    After {!Tmr.triplicate}, the protected netlist must compute exactly the
    original function when its three input-port copies are driven
    identically.  This checker co-simulates both netlists over directed
    corner vectors plus fixed-seed random stimulus and reports the first
    mismatch.  It is the flow's self-check (run by the tests and available
    to users), not a formal proof: coverage is bounded by [cycles]. *)

type mismatch = {
  cycle : int;
  port : string;
  expected : string;  (** reference bits, MSB first *)
  got : string;
}

val check_tmr :
  ?cycles:int ->
  reference:Tmr_netlist.Netlist.t ->
  tmr:Tmr_netlist.Netlist.t ->
  unit ->
  (unit, mismatch) result
(** Drives every reference input port [p] and the TMR copies [p~0..2]
    with the same values; compares every output port every cycle.
    Default 256 cycles. *)

val check_same_ports :
  ?cycles:int ->
  reference:Tmr_netlist.Netlist.t ->
  candidate:Tmr_netlist.Netlist.t ->
  unit ->
  (unit, mismatch) result
(** Same-port-name equivalence (e.g. pre- vs post-techmap netlists). *)
