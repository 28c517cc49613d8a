(** Shared experimental setup: device, bit database, case-study filter,
    stimulus and campaign sizing.

    Most of [create] is building the device graph and its bit database.
    On a 2-vCPU box (OCaml 5.1.1) one call takes ~0.1-0.2 s at paper
    scale (the e2e bench's [setup_s] on [paper-p2] reads ~0.12 s) and
    allocates ~9 Mwords, and takes ~10 ms at reduced scale; every
    experiment in a process still shares one context.  [scale] selects the paper-scale setup or a reduced one
    for tests and quick runs. *)

type scale =
  | Paper  (** XC2S200E-like device, 11-tap 9-bit filter *)
  | Reduced  (** small device, 3-tap filter; seconds instead of minutes *)

type t = {
  scale : scale;
  dev : Tmr_arch.Device.t;
  db : Tmr_arch.Bitdb.t;
  params : Tmr_filter.Fir.params;
  golden_nl : Tmr_netlist.Netlist.t;
  stimulus : Tmr_inject.Campaign.stimulus;
  seed : int;
  faults_per_design : int;
  place_moves : int option;
}

val create :
  ?scale:scale ->
  ?seed:int ->
  ?faults_per_design:int ->
  ?cycles:int ->
  unit ->
  t
(** Defaults: [Paper] scale, seed 1, 2000 faults per design, 48 stimulus
    cycles. *)
