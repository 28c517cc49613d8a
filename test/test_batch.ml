(* Bit-parallel batched fault simulation: batched campaigns are
   bit-identical to the scalar differential engine and to the
   full-rebuild oracle on all five paper designs, across worker counts
   and batch widths, loop-closing faults included; and the engine-level
   lane grouping keeps every lane's fault inside a reader-closed union
   cone. *)

module Logic = Tmr_logic.Logic
module Srand = Tmr_logic.Srand
module Netlist = Tmr_netlist.Netlist
module Word = Tmr_netlist.Word
module Arch = Tmr_arch.Arch
module Device = Tmr_arch.Device
module Bitdb = Tmr_arch.Bitdb
module Bitstream = Tmr_arch.Bitstream
module Impl = Tmr_pnr.Impl
module Extract = Tmr_fabric.Extract
module Fsim = Tmr_fabric.Fsim
module Fsim_batch = Tmr_fabric.Fsim_batch
module Partition = Tmr_core.Partition
module Campaign = Tmr_inject.Campaign
module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs

let result_testable =
  Alcotest.testable
    (fun ppf (r : Campaign.fault_result) ->
      Format.fprintf ppf "{bit=%d; wrong=%b; effect=%s; cycle=%d}"
        r.Campaign.bit
        (r.Campaign.outcome = Campaign.Wrong_answer)
        (Tmr_inject.Classify.name r.Campaign.effect)
        r.Campaign.first_error_cycle)
    ( = )

let check_same_results msg (a : Campaign.t) (b : Campaign.t) =
  Alcotest.(check int) (msg ^ ": injected") a.Campaign.injected
    b.Campaign.injected;
  Alcotest.(check (array result_testable))
    (msg ^ ": results array")
    a.Campaign.results b.Campaign.results

(* --- campaign-level: batched == scalar diff == full rebuild, all five
   paper designs, every (workers, width) combination --- *)

let test_batch_vs_scalar_campaigns () =
  let ctx =
    Context.create ~scale:Context.Reduced ~seed:3 ~faults_per_design:90 ()
  in
  let total_batched = ref 0 in
  List.iter
    (fun strategy ->
      let name = Partition.name strategy in
      let run = Runs.implement_design ctx strategy in
      let campaign ?(diff = true) ~workers ~batch_width () =
        Option.get
          (Runs.campaign_design ~workers ~diff ~batch_width ctx run)
            .Runs.campaign
      in
      let scalar = campaign ~workers:2 ~batch_width:0 () in
      let rebuild = campaign ~diff:false ~workers:2 ~batch_width:0 () in
      Alcotest.(check int)
        (name ^ ": scalar reference ran no batches")
        0 scalar.Campaign.stats.Campaign.batched;
      check_same_results (name ^ ": scalar diff vs full rebuild") scalar
        rebuild;
      List.iter
        (fun workers ->
          List.iter
            (fun width ->
              let b = campaign ~workers ~batch_width:width () in
              total_batched := !total_batched + b.Campaign.stats.Campaign.batched;
              check_same_results
                (Printf.sprintf "%s: batched w%d width %d vs scalar" name
                   workers width)
                b scalar)
            [ 32; 64 ])
        [ 1; 2 ])
    Partition.all_paper_designs;
  Alcotest.(check bool) "batch engine exercised" true (!total_batched > 0)

(* --- engine-level: batched verdicts == scalar diff_run verdicts on
   every patchable bit of a small datapath, and the union cone of each
   batch is closed under the reader relation with every lane's seed
   inside it --- *)

let build_datapath () =
  let nl = Netlist.create () in
  let a = Word.input nl "a" ~width:6 in
  let b = Word.input nl "b" ~width:6 in
  let s = Word.add nl a b in
  let p = Word.mul_const nl s (-3) ~width:6 in
  let r = Word.reg nl p in
  Word.output nl "r" r;
  nl

let test_engine_verdicts_and_grouping () =
  let dev = Device.build Arch.small in
  let db = Bitdb.build dev in
  let impl = Impl.implement_exn ~seed:5 dev db (build_datapath ()) in
  let out_wires = Array.init 6 (Impl.output_pad_wire impl "r") in
  let a_wires = Array.init 6 (Impl.input_pad_wire impl "a") in
  let b_wires = Array.init 6 (Impl.input_pad_wire impl "b") in
  let ex =
    Extract.create dev db
      (Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream)
  in
  let ws = Fsim.make_workspace dev in
  let base = Fsim.build ~ws ex ~watch_outputs:out_wires in
  let cone = Fsim.snapshot_cone ws in
  let cycles = 24 in
  let rng = Srand.create 7 in
  let stim =
    Array.init cycles (fun _ -> (Srand.int rng 64, Srand.int rng 64))
  in
  let drive sim c =
    let a, b = stim.(c) in
    let set wires v =
      let nodes = Fsim.pad_nodes sim wires in
      Array.iteri
        (fun i n ->
          Fsim.set_node sim n (Logic.of_bool ((v asr i) land 1 = 1)))
        nodes
    in
    set a_wires a;
    set b_wires b
  in
  let watch = Fsim.watch_nodes base out_wires in
  let tape = Fsim.tape_create ~nnodes:(Fsim.num_nodes base) ~cycles in
  let expected = Array.make_matrix cycles 6 Logic.X in
  Fsim.reset base;
  for c = 0 to cycles - 1 do
    drive base c;
    Fsim.eval base;
    Fsim.tape_record tape base ~cycle:c;
    for i = 0 to 5 do
      expected.(c).(i) <- Fsim.node_value base watch.(i)
    done;
    Fsim.clock base
  done;
  (* every patchable bit: scalar verdict + overlay delta + seed node *)
  let dsc = Fsim.make_dscratch () in
  let faults = ref [] in
  for bit = 0 to Bitdb.num_bits db - 1 do
    if Fsim.plan_fault cone ex bit = Fsim.Path_patch then begin
      Extract.apply_bit_flip ex bit;
      Fun.protect
        ~finally:(fun () -> Extract.apply_bit_flip ex bit)
        (fun () ->
          let seed = Fsim.patch_node cone ex bit in
          let delta = Fsim.patch_delta cone ex bit in
          let derr, dcv, _det =
            Fsim.with_patch cone base ex bit (fun sim ->
                Fsim.diff_run ~forensics:false ~scratch:dsc ~tape ~base ~sim
                  ~seeds:(Fsim.Seed_node seed) ~watch ~base_watch:watch
                  ~expected ())
          in
          faults := (bit, seed, delta, derr, dcv) :: !faults)
    end
  done;
  let faults = Array.of_list (List.rev !faults) in
  Alcotest.(check bool) "found patchable bits" true (Array.length faults > 0);
  let width = 32 in
  let bt = Fsim_batch.create base cone ~width in
  let off, succ = Fsim_batch.csr bt in
  let nbase = Fsim.num_nodes base in
  let nchunks = (Array.length faults + width - 1) / width in
  for chunk = 0 to nchunks - 1 do
    let lo = chunk * width in
    let n = min width (Array.length faults - lo) in
    let lanes =
      Array.init n (fun k ->
          let _, seed, d, _, _ = faults.(lo + k) in
          (Fsim.Seed_node seed, d))
    in
    let verdicts = Fsim_batch.run bt ~tape ~expected ~watch ~lanes () in
    Array.iteri
      (fun k v ->
        let bit, _, _, derr, dcv = faults.(lo + k) in
        Alcotest.(check int)
          (Printf.sprintf "bit %d: first error cycle" bit)
          derr v.Fsim_batch.bv_error_cycle;
        Alcotest.(check int)
          (Printf.sprintf "bit %d: convergence cycle" bit)
          dcv v.Fsim_batch.bv_converge_cycle)
      verdicts;
    (* lane grouping invariant: the union cone is reader-closed (fault
       effects cannot escape it) and contains every lane's seed *)
    let members = Fsim_batch.last_cone bt in
    let in_cone = Array.make (nbase + Array.length members) false in
    Array.iter (fun u -> if u < nbase then in_cone.(u) <- true) members;
    Array.iter
      (fun u ->
        if u < nbase then
          for e = off.(u) to off.(u + 1) - 1 do
            Alcotest.(check bool)
              (Printf.sprintf "reader %d of member %d inside cone" succ.(e) u)
              true in_cone.(succ.(e))
          done)
      members;
    for k = 0 to n - 1 do
      let bit, seed, _, _, _ = faults.(lo + k) in
      Alcotest.(check bool)
        (Printf.sprintf "bit %d: seed %d inside union cone" bit seed)
        true in_cone.(seed)
    done
  done

(* --- bridges onto an unused LUT: a flip that shorts a cone net onto the
   constant output of an unused combinational bel resolves to a shared
   constant node instead of forcing a rebuild.  On exactly those faults,
   batched == scalar diff == rebuild, and no reroute falls back: a
   campaign rebuilds only what [plan_fault] itself plans as a rebuild
   (pad enables) --- *)

let test_constant_bridges () =
  let ctx = Context.create ~scale:Context.Reduced ~seed:1 () in
  List.iter
    (fun strategy ->
      let name = Partition.name strategy in
      let run = Runs.implement_design ctx strategy in
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
      let zero, one = Fsim.const_nodes base in
      let succ_off, succ = Fsim.reader_csr base in
      let bel_of = Fsim.bel_map cone base in
      let scratch = Fsim.make_scratch () in
      let flipped bit f =
        Extract.apply_bit_flip ex bit;
        Fun.protect ~finally:(fun () -> Extract.apply_bit_flip ex bit) f
      in
      let reads_const bit =
        let hit row = Array.exists (fun n -> n = zero || n = one) row in
        flipped bit (fun () ->
            match
              Fsim.fault_delta ~scratch cone base ex bit ~succ_off ~succ
                ~bel_of
            with
            | Some d ->
                Array.exists (fun (_, row) -> hit row) d.Fsim.dl_rows
                || Array.exists (fun (ins, _) -> hit ins) d.Fsim.dl_extras
            | None -> false)
      in
      let essential = run.Runs.faultlist.Tmr_inject.Faultlist.bits in
      let planned path bit = Fsim.plan_fault cone ex bit = path in
      let bridges =
        List.filter
          (fun bit -> planned Fsim.Path_reroute bit && reads_const bit)
          (Array.to_list essential)
      in
      Alcotest.(check bool)
        (name ^ ": some faults bridge onto a constant node")
        true (bridges <> []);
      let faults = Array.of_list (List.filteri (fun i _ -> i < 64) bridges) in
      Array.iter
        (fun bit ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: bit %d reroutes" name bit)
            true
            (flipped bit (fun () ->
                 Option.is_some (Fsim.reroute ~scratch cone base ex bit))))
        faults;
      let campaign ?cone_skip ~batch_width faults =
        Campaign.run ~workers:1 ?cone_skip ~batch_width ~name ~impl
          ~golden:ctx.Context.golden_nl ~stimulus:ctx.Context.stimulus ~faults
          ()
      in
      let batched = campaign ~batch_width:64 faults in
      let scalar = campaign ~batch_width:0 faults in
      let rebuild = campaign ~cone_skip:false ~batch_width:0 faults in
      Alcotest.(check bool) (name ^ ": bridges ran batched") true
        (batched.Campaign.stats.Campaign.batched > 0);
      Alcotest.(check int) (name ^ ": scalar diff never rebuilt") 0
        scalar.Campaign.stats.Campaign.rebuilt;
      check_same_results (name ^ ": batched vs scalar diff") batched scalar;
      check_same_results (name ^ ": scalar diff vs rebuild") scalar rebuild;
      (* campaign level: the bridges, every planned rebuild and a sample
         of the rest; only the planned rebuilds rebuild *)
      let mixed =
        Array.concat
          [
            faults;
            Array.of_seq
              (Seq.filter (planned Fsim.Path_rebuild) (Array.to_seq essential));
            Tmr_inject.Faultlist.sample run.Runs.faultlist ~seed:1 ~count:500;
          ]
      in
      let plan_rebuilds =
        Array.fold_left
          (fun n bit -> if planned Fsim.Path_rebuild bit then n + 1 else n)
          0 mixed
      in
      Alcotest.(check int)
        (name ^ ": rebuilt == planned rebuilds")
        plan_rebuilds
        (campaign ~batch_width:64 mixed).Campaign.stats.Campaign.rebuilt)
    Partition.all_paper_designs

(* --- loop-closing lanes: planned reroute faults whose own circuit puts
   a seed on a combinational loop (a bridge closing a feedback path, or a
   seed inside a cyclic SCC of the base graph).  The batch engine
   Kleene-iterates them in the word; fault by fault they equal the
   scalar engine and the rebuild oracle, convergence statistics
   included, and only faults with no overlay leave the batch --- *)

let batch_scalar_count () =
  Option.value ~default:0
    (List.assoc_opt "campaign.batch_scalar"
       (Tmr_obs.Metrics.snapshot ()).Tmr_obs.Metrics.counters)

let test_loop_closing_lanes () =
  let ctx = Context.create ~scale:Context.Reduced ~seed:1 () in
  let configs =
    List.map (fun s -> (s, Tmr_core.Voter.Majority)) Partition.all_paper_designs
    @ [ (Partition.Medium_partition, Tmr_core.Voter.Detecting) ]
  in
  let total = ref 0 in
  List.iter
    (fun (strategy, voter) ->
      let run = Runs.implement_design ~voter ctx strategy in
      let name =
        Partition.name strategy
        ^ if voter = Tmr_core.Voter.Detecting then "/detecting" else ""
      in
      let lf = Loop_faults.find run in
      total := !total + Array.length lf.Loop_faults.loop;
      let no_overlay =
        Array.sub lf.Loop_faults.no_overlay 0
          (min 8 (Array.length lf.Loop_faults.no_overlay))
      in
      let faults = Array.append lf.Loop_faults.loop no_overlay in
      if faults <> [||] then begin
        let campaign ?cone_skip ~batch_width faults =
          Campaign.run ~workers:1 ?cone_skip ~batch_width ~name
            ~impl:run.Runs.impl ~golden:ctx.Context.golden_nl
            ~stimulus:ctx.Context.stimulus ~faults ()
        in
        let scalar = campaign ~batch_width:0 faults in
        (* the rebuild oracle (a full simulator per fault) on every
           fourth fault *)
        let every4 a =
          Array.of_list (List.filteri (fun i _ -> i mod 4 = 0) (Array.to_list a))
        in
        let rebuild = campaign ~cone_skip:false ~batch_width:0 (every4 faults) in
        Alcotest.(check (array result_testable))
          (name ^ ": scalar diff vs rebuild, every fourth fault")
          (every4 scalar.Campaign.results)
          rebuild.Campaign.results;
        let stats (c : Campaign.t) = c.Campaign.stats in
        List.iter
          (fun width ->
            let label = Printf.sprintf "%s: width %d" name width in
            let before = batch_scalar_count () in
            let b = campaign ~batch_width:width faults in
            Alcotest.(check int)
              (label ^ ": only no-overlay faults left the batch")
              (Array.length no_overlay)
              (batch_scalar_count () - before);
            Alcotest.(check int)
              (label ^ ": every loop-closing fault ran batched")
              (Array.length lf.Loop_faults.loop)
              (stats b).Campaign.batched;
            check_same_results (label ^ " vs scalar") b scalar;
            Alcotest.(check int) (label ^ ": diffed")
              (stats scalar).Campaign.diffed (stats b).Campaign.diffed;
            Alcotest.(check int) (label ^ ": converged")
              (stats scalar).Campaign.converged (stats b).Campaign.converged)
          [ 64; 32 ]
      end)
    configs;
  Alcotest.(check bool) "loop-closing faults found" true (!total > 0)

(* --- the baseline tape is the settled fixpoint of the base circuit:
   at every cycle every combinational base node reads the LUT of its
   base row's tape values.  The batch engine's quiet sub-words rest on
   this (a node with no overlay lane and no diverged input equals the
   tape on every lane).  Nodes of cyclic SCCs are included — the tape
   holds their least fixpoint, a fixpoint all the same; the reduced
   base graphs have none, so the rerouted simulators of a few
   loop-closing faults of the standard design stand in for them --- *)

let test_tape_fixpoint () =
  let ctx = Context.create ~scale:Context.Reduced ~seed:1 () in
  let stim = ctx.Context.stimulus in
  let cycles = stim.Campaign.cycles in
  let configs =
    List.map (fun s -> (s, Tmr_core.Voter.Majority)) Partition.all_paper_designs
    @ [ (Partition.Medium_partition, Tmr_core.Voter.Detecting) ]
  in
  let cyclic_checked = ref 0 in
  (* the tape of [sim] exactly as a campaign worker records it, checked
     node by node *)
  let check label impl sim =
    let ins =
      List.map
        (fun (port, samples) ->
          ( List.map (Fsim.pad_nodes sim) (Campaign.dut_input_wires impl port),
            samples ))
        stim.Campaign.inputs
    in
    let nn = Fsim.num_nodes sim in
    let tape = Fsim.tape_create ~nnodes:nn ~cycles in
    Fsim.reset sim;
    for c = 0 to cycles - 1 do
      List.iter
        (fun (node_sets, samples) ->
          List.iter
            (Array.iteri (fun i n ->
                 Fsim.set_node sim n
                   (Logic.of_bool ((samples.(c) asr i) land 1 = 1))))
            node_sets)
        ins;
      Fsim.eval sim;
      Fsim.tape_record tape sim ~cycle:c;
      Fsim.clock sim
    done;
    let v = Fsim.view sim in
    let cyclic = Bytes.make nn '\000' in
    for si = 0 to v.Fsim.v_nsccs - 1 do
      for i = v.Fsim.v_scc_off.(si) to v.Fsim.v_scc_off.(si + 1) - 1 do
        Bytes.set cyclic v.Fsim.v_scc_nodes.(i) (Bytes.get v.Fsim.v_scc_cyclic si)
      done
    done;
    let values = Array.make nn Logic.X in
    let bad = ref 0 and checked = ref 0 in
    for c = 0 to cycles - 1 do
      for u = 0 to nn - 1 do
        values.(u) <- Fsim.tape_get tape ~cycle:c ~node:u
      done;
      for u = 0 to nn - 1 do
        if v.Fsim.v_kind.(u) = Fsim.kind_bel_comb then begin
          incr checked;
          if Bytes.get cyclic u <> '\000' then incr cyclic_checked;
          let lut =
            Tmr_fabric.Fsim_backend.Scalar.lut_eval ~values
              ~pins:v.Fsim.v_inputs.(u) ~table:v.Fsim.v_table.(u)
              ~inv:v.Fsim.v_inv.(u)
          in
          if not (Logic.equal lut values.(u)) then begin
            if !bad = 0 then
              Printf.printf "%s: node %d cycle %d: tape %c, LUT %c\n" label u c
                (Logic.to_char values.(u)) (Logic.to_char lut);
            incr bad
          end
        end
      done
    done;
    Alcotest.(check bool) (label ^ ": combinational nodes checked") true
      (!checked > 0);
    Alcotest.(check int) (label ^ ": tape(u) <> LUT(tape(row))") 0 !bad
  in
  List.iter
    (fun (strategy, voter) ->
      let run = Runs.implement_design ~voter ctx strategy in
      let impl = run.Runs.impl in
      let name =
        Partition.name strategy
        ^ if voter = Tmr_core.Voter.Detecting then "/detecting" else ""
      in
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
      check name impl base;
      let scratch = Fsim.make_scratch () in
      let loop =
        if strategy = Partition.Unprotected then (Loop_faults.find run).Loop_faults.loop
        else [||]
      in
      Array.iteri
        (fun i bit ->
          if i < 4 then begin
            Extract.apply_bit_flip ex bit;
            Fun.protect
              ~finally:(fun () -> Extract.apply_bit_flip ex bit)
              (fun () ->
                match Fsim.reroute ~scratch cone base ex bit with
                | Some sim ->
                    check (Printf.sprintf "%s, bit %d rerouted" name bit) impl sim
                | None -> Alcotest.failf "%s: bit %d does not reroute" name bit)
          end)
        loop)
    configs;
  Alcotest.(check bool) "cyclic-SCC nodes checked" true (!cyclic_checked > 0)

let () =
  Alcotest.run "tmr_batch"
    [
      ( "campaign",
        [
          Alcotest.test_case "batched == scalar == rebuild (5 designs)"
            `Slow test_batch_vs_scalar_campaigns;
        ] );
      ( "engine",
        [
          Alcotest.test_case "verdicts == diff_run, cone reader-closed"
            `Slow test_engine_verdicts_and_grouping;
          Alcotest.test_case "constant bridges: no rebuild, == oracle"
            `Slow test_constant_bridges;
          Alcotest.test_case "loop-closing lanes: batched == oracle"
            `Slow test_loop_closing_lanes;
          Alcotest.test_case "tape is the base circuit's fixpoint" `Quick
            test_tape_fixpoint;
        ] );
    ]
