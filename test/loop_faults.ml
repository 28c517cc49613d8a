(* Fault lists for the engine tests (test_engine, test_forensics), taken
   from a design's planned reroute faults and their batch overlays
   ({!Fsim.fault_delta}):
   - [loop]: the overlay puts a seed on a combinational loop of the
     fault's own circuit.  Those are the lanes the batch engine
     Kleene-iterates and never replays to convergence: bridges that close
     a loop, a register turned combinational inside its own feedback
     loop, and faults seeded inside a cyclic SCC of the base graph.
   - [kind]: out_sel flips, a node turned registered or combinational.
   - [watch]: faults that re-resolve a watched output.
   - [fallback]: planned reroutes with no overlay at all (they rebuild). *)

module Netlist = Tmr_netlist.Netlist
module Bitstream = Tmr_arch.Bitstream
module Impl = Tmr_pnr.Impl
module Extract = Tmr_fabric.Extract
module Fsim = Tmr_fabric.Fsim
module Campaign = Tmr_inject.Campaign
module Runs = Tmr_experiments.Runs

type t = {
  loop : int array;
  kind : int array;
  watch : int array;
  fallback : int array;
}

let watch_outputs (impl : Impl.t) =
  Array.concat
    (List.map
       (fun (port, _) -> Campaign.dut_output_wires impl port)
       (Netlist.output_ports impl.Impl.mapped))

(* Some seed of the overlay lies on a cycle of the lane's effective
   circuit: base rows with the overlay's rows and appended nodes
   substituted, a register's row read only at the clock (no
   combinational edge), the kind override applied.  Seeds are the nodes
   whose function differs from the base: the cell, the rows that
   changed and every appended node. *)
let seed_on_cycle base (d : Fsim.delta) =
  let v = Fsim.view base in
  let bn = v.Fsim.v_nnodes in
  let n = bn + Array.length d.Fsim.dl_extras in
  let rows = Array.to_list d.Fsim.dl_rows in
  let row u =
    if u >= bn then fst d.Fsim.dl_extras.(u - bn)
    else match List.assoc_opt u rows with Some r -> r | None -> v.Fsim.v_inputs.(u)
  in
  let registered u =
    match d.Fsim.dl_cell with
    | Some (c, Fsim.Cp_reg r) when c = u -> r
    | _ -> v.Fsim.v_kind.(u) = Fsim.kind_bel_reg
  in
  let deps u =
    if u >= bn then row u
    else if registered u then [||]
    else
      let k = v.Fsim.v_kind.(u) in
      if k = Fsim.kind_bel_comb || k = Fsim.kind_bel_reg || k = Fsim.kind_resolve
      then row u
      else [||]
  in
  let seeds =
    (match d.Fsim.dl_cell with Some (c, _) -> [ c ] | None -> [])
    @ List.filter_map
        (fun (u, r) -> if r <> v.Fsim.v_inputs.(u) then Some u else None)
        rows
    @ List.init (Array.length d.Fsim.dl_extras) (fun i -> bn + i)
  in
  let seen = Array.make n 0 in
  List.exists
    (fun s ->
      let ep = s + 1 in
      let rec reaches u =
        Array.exists
          (fun p ->
            p >= 0
            && (p = s
               || seen.(p) <> ep
                  && begin
                       seen.(p) <- ep;
                       reaches p
                     end))
          (deps u)
      in
      reaches s)
    seeds

(* A cheap necessary condition, so [seed_on_cycle] runs only where a loop
   is possible: a cycle through a seed needs an edge running backward in
   the base evaluation order, and base combinational edges run forward
   outside the base's own cyclic SCCs — so the overlay reads a node
   evaluated at or after the reader, reads an appended node, rewires a
   node inside a cyclic SCC, or turns a register combinational (its pins
   become combinational edges). *)
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
  fun (d : Fsim.delta) ->
    d.Fsim.dl_extras <> [||]
    || (match d.Fsim.dl_cell with
       | Some (_, Fsim.Cp_reg false) -> true
       | _ -> false)
    || Array.exists
         (fun (r, row) ->
           Bytes.get cyc r <> '\000'
           || Array.exists
                (fun p -> p >= bn || (p >= 0 && idx.(p) >= idx.(r)))
                row)
         d.Fsim.dl_rows

let find (run : Runs.design_run) =
  let impl = run.Runs.impl in
  let watch = watch_outputs impl in
  let ex =
    Extract.create impl.Impl.dev impl.Impl.db
      (Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream)
  in
  let ws = Fsim.make_workspace impl.Impl.dev in
  let base = Fsim.build ~ws ex ~watch_outputs:watch in
  let cone = Fsim.snapshot_cone ws in
  let succ_off, succ = Fsim.reader_csr base in
  let bel_of = Fsim.bel_map cone base in
  let scratch = Fsim.make_scratch () in
  let may_close_loop = may_close_loop base in
  let loop = ref [] and kind = ref [] and watched = ref [] and fallback = ref [] in
  Array.iter
    (fun bit ->
      if Fsim.plan_fault cone ex bit = Fsim.Path_reroute then begin
        Extract.apply_bit_flip ex bit;
        Fun.protect
          ~finally:(fun () -> Extract.apply_bit_flip ex bit)
          (fun () ->
            match
              Fsim.fault_delta ~scratch cone base ex bit ~watch ~succ_off ~succ
                ~bel_of
            with
            | None -> fallback := bit :: !fallback
            | Some d ->
                (match d.Fsim.dl_cell with
                | Some (_, Fsim.Cp_reg _) -> kind := bit :: !kind
                | _ -> ());
                if d.Fsim.dl_watch <> [||] then watched := bit :: !watched;
                if may_close_loop d && seed_on_cycle base d then
                  loop := bit :: !loop)
      end)
    run.Runs.faultlist.Tmr_inject.Faultlist.bits;
  let arr l = Array.of_list (List.rev !l) in
  { loop = arr loop; kind = arr kind; watch = arr watched; fallback = arr fallback }
