(* Fault lists for the cyclic-lane tests (test_batch, test_forensics):
   planned reroute faults whose rewired circuit puts a seed on a
   combinational loop — the fault's own simulator, as [Fsim.reroute]
   derives it, has a cyclic SCC holding a node that differs from the
   base (or an appended one).  Those are the lanes the batch engine
   Kleene-iterates and never replays to convergence: bridges that close
   a loop, and faults seeded inside a cyclic SCC of the base graph. *)

module Netlist = Tmr_netlist.Netlist
module Bitstream = Tmr_arch.Bitstream
module Impl = Tmr_pnr.Impl
module Extract = Tmr_fabric.Extract
module Fsim = Tmr_fabric.Fsim
module Campaign = Tmr_inject.Campaign
module Runs = Tmr_experiments.Runs

type t = {
  loop : int array;  (** seed on a cycle of the fault's own circuit *)
  no_overlay : int array;
      (** planned reroute, but no batch overlay: runs on the scalar
          engine even inside a batch *)
}

(* some cyclic SCC of [sim] holds a node that is not the base's *)
let seed_on_cycle base sim =
  let bv = Fsim.view base and sv = Fsim.view sim in
  let bn = bv.Fsim.v_nnodes in
  let differs u =
    u >= bn
    || sv.Fsim.v_inputs.(u) <> bv.Fsim.v_inputs.(u)
    || sv.Fsim.v_table.(u) <> bv.Fsim.v_table.(u)
    || sv.Fsim.v_inv.(u) <> bv.Fsim.v_inv.(u)
  in
  let hit = ref false in
  for si = 0 to sv.Fsim.v_nsccs - 1 do
    if Bytes.get sv.Fsim.v_scc_cyclic si <> '\000' then
      for i = sv.Fsim.v_scc_off.(si) to sv.Fsim.v_scc_off.(si + 1) - 1 do
        if differs sv.Fsim.v_scc_nodes.(i) then hit := true
      done
  done;
  !hit

(* A cheap necessary condition, so [Fsim.reroute] runs only where a loop
   is possible: a cycle through a seed needs an edge running backward in
   the base evaluation order, and base edges run forward outside the
   base's own cyclic SCCs — so the overlay reads a node evaluated at or
   after the reader, reads an appended node, or rewires a node inside a
   cyclic SCC. *)
let may_close_loop base =
  let v = Fsim.view base in
  let bn = v.Fsim.v_nnodes in
  let idx = Array.make bn 0 and cyc = Bytes.make bn '\000' in
  for si = 0 to v.Fsim.v_nsccs - 1 do
    for i = v.Fsim.v_scc_off.(si) to v.Fsim.v_scc_off.(si + 1) - 1 do
      let u = v.Fsim.v_scc_nodes.(i) in
      idx.(u) <- i;
      Bytes.set cyc u (Bytes.get v.Fsim.v_scc_cyclic si)
    done
  done;
  fun d ->
    d.Fsim.dl_extras <> [||]
    || Array.exists
         (fun (r, row) ->
           Bytes.get cyc r <> '\000'
           || Array.exists
                (fun p -> p >= bn || (p >= 0 && idx.(p) >= idx.(r)))
                row)
         d.Fsim.dl_rows

let find (run : Runs.design_run) =
  let impl = run.Runs.impl in
  let watch_outputs =
    Array.concat
      (List.map
         (fun (port, _) -> Campaign.dut_output_wires impl port)
         (Netlist.output_ports impl.Impl.mapped))
  in
  let ex =
    Extract.create impl.Impl.dev impl.Impl.db
      (Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream)
  in
  let ws = Fsim.make_workspace impl.Impl.dev in
  let base = Fsim.build ~ws ex ~watch_outputs in
  let cone = Fsim.snapshot_cone ws in
  let succ_off, succ = Fsim.reader_csr base in
  let bel_of = Fsim.bel_map cone base in
  let scratch = Fsim.make_scratch () in
  let may_close_loop = may_close_loop base in
  let loop = ref [] and no_overlay = ref [] in
  Array.iter
    (fun bit ->
      if Fsim.plan_fault cone ex bit = Fsim.Path_reroute then begin
        Extract.apply_bit_flip ex bit;
        Fun.protect
          ~finally:(fun () -> Extract.apply_bit_flip ex bit)
          (fun () ->
            match
              Fsim.fault_delta ~scratch cone base ex bit ~succ_off ~succ
                ~bel_of
            with
            | None -> no_overlay := bit :: !no_overlay
            | Some d when may_close_loop d -> (
                match Fsim.reroute ~scratch cone base ex bit with
                | Some sim when seed_on_cycle base sim -> loop := bit :: !loop
                | _ -> ())
            | Some _ -> ())
      end)
    run.Runs.faultlist.Tmr_inject.Faultlist.bits;
  {
    loop = Array.of_list (List.rev !loop);
    no_overlay = Array.of_list (List.rev !no_overlay);
  }
