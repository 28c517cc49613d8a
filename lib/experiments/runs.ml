module Partition = Tmr_core.Partition
module Impl = Tmr_pnr.Impl
module Faultlist = Tmr_inject.Faultlist
module Campaign = Tmr_inject.Campaign

type design_run = {
  strategy : Partition.strategy;
  voter : Tmr_core.Voter.variant;
  nl : Tmr_netlist.Netlist.t;
  impl : Impl.t;
  faultlist : Faultlist.t;
  campaign : Campaign.t option;
}

let implement_design ?(voter = Tmr_core.Voter.Majority) (ctx : Context.t)
    strategy =
  let nl =
    Tmr_filter.Designs.build ~params:ctx.Context.params ~voter strategy
  in
  let impl =
    Impl.implement_exn ~seed:ctx.Context.seed
      ?moves_per_site:ctx.Context.place_moves ctx.Context.dev ctx.Context.db nl
  in
  {
    strategy;
    voter;
    nl;
    impl;
    faultlist = Faultlist.of_impl impl;
    campaign = None;
  }

let campaign_design ?progress ?workers ?cone_skip ?forensics
    (ctx : Context.t) run =
  let name = Partition.name run.strategy in
  let faults =
    Faultlist.sample run.faultlist ~seed:ctx.Context.seed
      ~count:ctx.Context.faults_per_design
  in
  let progress_cb = Option.map (fun f p -> f name p) progress in
  let campaign =
    Campaign.run ?progress:progress_cb ?workers ?cone_skip ?forensics ~name
      ~impl:run.impl ~golden:ctx.Context.golden_nl
      ~stimulus:ctx.Context.stimulus ~faults ()
  in
  { run with campaign = Some campaign }

let coverage_of run =
  match run.campaign with
  | None -> None
  | Some c ->
      let faults = Array.map (fun r -> r.Campaign.bit) c.Campaign.results in
      Some
        (Tmr_inject.Coverage.of_faults ~db:run.impl.Impl.db
           ~faultlist:run.faultlist ~faults)
