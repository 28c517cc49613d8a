(** Upset accumulation between scrubs.

    The paper (§2) argues that continuous bitstream reconfiguration
    ("scrubbing") is needed because upsets in the configuration memory are
    permanent until the next reload: without scrubbing they {e accumulate},
    and TMR — which survives any single upset in one redundancy domain —
    eventually collects upsets in two domains and fails.

    This module measures that directly: each trial injects random DUT bits
    one after another {e without} repairing the previous ones, running the
    test pattern after each, and records how many accumulated upsets the
    design absorbed before its first wrong answer.  The mean of that count
    is the "scrub budget": how many upsets per scrub period a design
    tolerates. *)

type result = {
  trials : int;
  cap : int;  (** per-trial injection cap *)
  upsets_to_failure : int array;
      (** per trial: number of accumulated upsets at the first wrong
          answer; [cap + 1] when the trial never failed, within the cap
          or with every bit of the fault list injected *)
  mean : float;  (** censored trials count as [cap + 1] *)
  survived : int;  (** trials that reached the cap without failing *)
}

val accumulate :
  ?trials:int ->
  ?cap:int ->
  seed:int ->
  impl:Tmr_pnr.Impl.t ->
  golden:Tmr_netlist.Netlist.t ->
  stimulus:Campaign.stimulus ->
  faultlist:Faultlist.t ->
  unit ->
  result
(** Defaults: 20 trials, cap 60 upsets per trial.  Each run of the test
    pattern is a {!Campaign.replay} of the accumulated configuration. *)
