(* Anatomy of single configuration upsets: pick one fault of each effect
   class, inject it, and show what the fabric now computes, cycle by
   cycle, against the golden device.

   Run with: dune exec examples/upset_anatomy.exe *)

module Logic = Tmr_logic.Logic
module Bitdb = Tmr_arch.Bitdb
module Bitstream = Tmr_arch.Bitstream
module Partition = Tmr_core.Partition
module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs
module Campaign = Tmr_inject.Campaign
module Classify = Tmr_inject.Classify
module Extract = Tmr_fabric.Extract
module Impl = Tmr_pnr.Impl

let () =
  let ctx = Context.create ~scale:Context.Reduced ~faults_per_design:0 () in
  let run = Runs.implement_design ctx Partition.Unprotected in
  let impl = run.Runs.impl in
  let bits = run.Runs.faultlist.Tmr_inject.Faultlist.bits in
  (* one example bit per effect class *)
  let example_of_effect eff =
    Array.find_opt (fun b -> Classify.classify impl b = eff) bits
  in
  let session =
    Campaign.session ~name:"anatomy" ~impl ~golden:ctx.Context.golden_nl
      ~stimulus:ctx.Context.stimulus ()
  in
  (* a port's bits, MSB first *)
  let word v =
    let n = Array.length v in
    String.init n (fun i -> Logic.to_char v.(n - 1 - i))
  in
  let show_run ex =
    let shown = ref 0 in
    ignore
      (Campaign.replay session ex ~observe:(fun cycle ports ->
           let y = List.find (fun p -> p.Campaign.ps_port = "y") ports in
           let dut = word y.Campaign.ps_got
           and gold = word y.Campaign.ps_golden in
           if dut <> gold && !shown < 3 then begin
             incr shown;
             Printf.printf "    cycle %2d  golden %s\n" cycle gold;
             Printf.printf "              dut    %s\n" dut
           end));
    if !shown = 0 then print_endline "    (silent: no output difference)"
  in
  List.iter
    (fun eff ->
      match example_of_effect eff with
      | None -> Printf.printf "%-14s no candidate bit\n" (Classify.name eff)
      | Some bit ->
          Printf.printf "%-14s bit %d (frame %d):\n" (Classify.name eff) bit
            (Bitdb.frame_of_bit ctx.Context.db bit);
          let ex =
            Extract.create ctx.Context.dev ctx.Context.db
              (Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream)
          in
          Extract.apply_bit_flip ex bit;
          show_run ex)
    Classify.all
