(** Implement the five filter versions and run their fault-injection
    campaigns — the heavy lifting shared by Tables 2, 3 and 4. *)

type design_run = {
  strategy : Tmr_core.Partition.strategy;
  voter : Tmr_core.Voter.variant;  (** voter macro used by the TMR designs *)
  nl : Tmr_netlist.Netlist.t;  (** the (possibly TMR) gate-level design *)
  impl : Tmr_pnr.Impl.t;
  faultlist : Tmr_inject.Faultlist.t;
  campaign : Tmr_inject.Campaign.t option;  (** None when only implemented *)
}

val implement_design :
  ?voter:Tmr_core.Voter.variant ->
  Context.t ->
  Tmr_core.Partition.strategy ->
  design_run
(** Build, map, place, route; no fault injection.  [voter] (default
    [Majority]) selects the voter macro every voter partition
    instantiates; [Detecting] adds the pairwise-disagreement outputs
    campaigns classify into the detected-vs-silent taxonomy. *)

val campaign_design :
  ?progress:(string -> Tmr_inject.Campaign.progress -> unit) ->
  ?workers:int ->
  ?cone_skip:bool ->
  ?forensics:bool ->
  Context.t ->
  design_run ->
  design_run
(** Add the fault-injection campaign ([Context.faults_per_design] random
    DUT bits).  [progress] receives the design name plus the campaign's
    progress snapshot (completed / total / running wrong count); the
    engine options are forwarded to {!Tmr_inject.Campaign.run}. *)

val coverage_of : design_run -> Tmr_inject.Coverage.t option
(** Injection coverage of the run's campaign against its fault list;
    [None] when only implemented. *)
