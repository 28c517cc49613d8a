(* One fast engine, one oracle: the bit-parallel batch engine equals the
   rebuild-every-fault oracle fault by fault — on every patchable bit of a
   hand-built datapath, on campaigns over all five paper designs, on the
   faults whose overlay changes a node's kind or a watched output, on the
   loop-closing lanes and as a one-lane batch — the
   bits the vote-masking proof classifies silent are silent on the
   oracle, and [tmrtool explain] reports what the campaign reports.
   Also the baseline tape: its packing and the fixpoint invariant the
   batch kernel rests on; and that packing never changes a verdict. *)

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
module Forensics = Tmr_inject.Forensics
module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs

let result_testable =
  Alcotest.testable
    (fun ppf (r : Campaign.fault_result) ->
      Format.fprintf ppf "{bit=%d; wrong=%b; effect=%s; cycle=%d; detect=%d}"
        r.Campaign.bit
        (r.Campaign.outcome = Campaign.Wrong_answer)
        (Tmr_inject.Classify.name r.Campaign.effect)
        r.Campaign.first_error_cycle r.Campaign.detect_cycle)
    ( = )

let check_same_results msg (a : Campaign.t) (b : Campaign.t) =
  Alcotest.(check int) (msg ^ ": injected") a.Campaign.injected
    b.Campaign.injected;
  Alcotest.(check (array result_testable))
    (msg ^ ": results array")
    a.Campaign.results b.Campaign.results

let logic_testable =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_char ppf (Logic.to_char v))
    Logic.equal

(* --- tape pack/unpack --- *)

let test_tape_roundtrip () =
  let nnodes = 13 and cycles = 7 in
  let tape = Fsim.tape_create ~nnodes ~cycles in
  Alcotest.(check int) "nnodes" nnodes (Fsim.tape_nnodes tape);
  Alcotest.(check int) "cycles" cycles (Fsim.tape_cycles tape);
  (* a dense pseudo-random pattern over all three values, written twice
     (the second write overwrites in place) *)
  let vals = [| Logic.Zero; Logic.One; Logic.X |] in
  let at pass c n = vals.(((pass * 11) + (c * 31) + (n * 7)) mod 3) in
  for pass = 0 to 1 do
    for c = 0 to cycles - 1 do
      for n = 0 to nnodes - 1 do
        Fsim.tape_set tape ~cycle:c ~node:n (at pass c n)
      done
    done
  done;
  for c = 0 to cycles - 1 do
    for n = 0 to nnodes - 1 do
      Alcotest.check logic_testable
        (Printf.sprintf "cycle %d node %d" c n)
        (at 1 c n)
        (Fsim.tape_get tape ~cycle:c ~node:n)
    done
  done;
  Alcotest.check_raises "cycle out of range"
    (Invalid_argument "Fsim.tape_get") (fun () ->
      ignore (Fsim.tape_get tape ~cycle:cycles ~node:0));
  Alcotest.check_raises "node out of range"
    (Invalid_argument "Fsim.tape_set") (fun () ->
      Fsim.tape_set tape ~cycle:0 ~node:nnodes Logic.One)

(* --- a small implemented datapath on the stock small device: the
   batch engine against a rebuild of the flipped configuration, fault by
   fault, with the tape and golden matrix recorded by hand --- *)

let build_datapath ?(k = -3) () =
  let nl = Netlist.create () in
  let a = Word.input nl "a" ~width:6 in
  let b = Word.input nl "b" ~width:6 in
  let s = Word.add nl a b in
  let p = Word.mul_const nl s k ~width:6 in
  let r = Word.reg nl p in
  Word.output nl "r" r;
  nl

type bench = {
  ex : Extract.t;
  base : Fsim.t;
  cone : Fsim.cone;
  out_wires : int array;
  watch : int array;
  tape : Fsim.tape;
  expected : Logic.t array array;
  oracle : unit -> int;  (** first error cycle of a rebuild of [ex] *)
  db : Bitdb.t;
}

let datapath_bench =
  lazy
    (let dev = Device.build Arch.small in
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
         Array.iteri
           (fun i n ->
             Fsim.set_node sim n (Logic.of_bool ((v asr i) land 1 = 1)))
           (Fsim.pad_nodes sim wires)
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
     let oracle () =
       let sim = Fsim.build ex ~watch_outputs:out_wires in
       let w = Fsim.watch_nodes sim out_wires in
       Fsim.reset sim;
       let err = ref (-1) in
       let c = ref 0 in
       while !err < 0 && !c < cycles do
         drive sim !c;
         Fsim.eval sim;
         for i = 0 to 5 do
           if
             !err < 0
             && not (Logic.equal (Fsim.node_value sim w.(i)) expected.(!c).(i))
           then err := !c
         done;
         Fsim.clock sim;
         incr c
       done;
       !err
     in
     { ex; base; cone; out_wires; watch; tape; expected; oracle; db })

(* every bit [plan_fault] sends to the batch engine, as (bit, plan path,
   overlay, oracle first error cycle) *)
let datapath_lanes paths =
  let b = Lazy.force datapath_bench in
  let bt = Fsim_batch.create b.base b.cone in
  let succ_off, succ = Fsim_batch.csr bt in
  let scratch = Fsim.make_scratch () in
  let lanes = ref [] in
  for bit = 0 to Bitdb.num_bits b.db - 1 do
    let plan = Fsim.plan_fault b.cone b.ex bit in
    if List.mem plan paths then begin
      Extract.apply_bit_flip b.ex bit;
      Fun.protect
        ~finally:(fun () -> Extract.apply_bit_flip b.ex bit)
        (fun () ->
          Option.iter
            (fun d -> lanes := (bit, plan, d, b.oracle ()) :: !lanes)
            (Fsim.delta_of_plan ~scratch b.cone b.base b.ex bit plan
               ~watch:b.out_wires ~succ_off ~succ
               ~bel_of:(Fsim_batch.bel_of bt)))
    end
  done;
  (bt, Array.of_list (List.rev !lanes))

(* --- every patchable bit in batches of {!Fsim_batch.width}: verdicts
   == the oracle, and the union cone of each batch is closed under the
   reader relation with every lane's seed inside it (fault effects
   cannot escape it) --- *)

let test_patch_faults () =
  let b = Lazy.force datapath_bench in
  let bt, faults = datapath_lanes [ Fsim.Path_patch ] in
  Alcotest.(check bool) "found patchable bits" true (Array.length faults > 0);
  let off, succ = Fsim_batch.csr bt in
  let nbase = Fsim.num_nodes b.base in
  let width = Fsim_batch.width in
  let nchunks = (Array.length faults + width - 1) / width in
  for chunk = 0 to nchunks - 1 do
    let lo = chunk * width in
    let n = min width (Array.length faults - lo) in
    let lanes = Array.init n (fun k -> let _, _, d, _ = faults.(lo + k) in d) in
    let verdicts =
      Fsim_batch.run bt ~tape:b.tape ~expected:b.expected ~watch:b.watch ~lanes
        ()
    in
    Array.iteri
      (fun k v ->
        let bit, _, _, oracle = faults.(lo + k) in
        Alcotest.(check int)
          (Printf.sprintf "bit %d: first error cycle" bit)
          oracle v.Fsim_batch.bv_error_cycle)
      verdicts;
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
    Array.iter
      (fun d ->
        Option.iter
          (fun (s, _) ->
            Alcotest.(check bool)
              (Printf.sprintf "seed %d inside union cone" s)
              true in_cone.(s))
          d.Fsim.dl_cell)
      lanes
  done

(* --- one-lane batches: every patch and reroute bit of the datapath
   alone in its batch equals the oracle, and equals its verdict inside a
   full batch (a lane's neighbours never change its verdict) --- *)

let test_one_lane_batch () =
  let b = Lazy.force datapath_bench in
  let bt, faults = datapath_lanes [ Fsim.Path_patch; Fsim.Path_reroute ] in
  let reroutes =
    Array.fold_left
      (fun n (_, path, _, _) ->
        if path = Fsim.Path_reroute then n + 1 else n)
      0 faults
  in
  Alcotest.(check bool) "found reroute bits" true (reroutes > 0);
  let run lanes =
    Fsim_batch.run bt ~tape:b.tape ~expected:b.expected ~watch:b.watch ~lanes ()
  in
  let width = Fsim_batch.width in
  Array.iteri
    (fun i (bit, _, lane, oracle) ->
      let alone = (run [| lane |]).(0) in
      Alcotest.(check int)
        (Printf.sprintf "bit %d alone: first error cycle" bit)
        oracle alone.Fsim_batch.bv_error_cycle;
      if i mod width = 0 then begin
        let n = min width (Array.length faults - i) in
        let batch =
          run (Array.init n (fun k -> let _, _, l, _ = faults.(i + k) in l))
        in
        Array.iteri
          (fun k v ->
            let bit, _, lane, _ = faults.(i + k) in
            let alone = (run [| lane |]).(0) in
            Alcotest.(check int)
              (Printf.sprintf "bit %d: batched == alone" bit)
              alone.Fsim_batch.bv_error_cycle v.Fsim_batch.bv_error_cycle)
          batch
      end)
    faults;
  (* a campaign given a lone batchable fault runs it as a one-lane batch *)
  let ctx = Context.create ~scale:Context.Reduced ~seed:1 ~faults_per_design:40 () in
  let run = Runs.implement_design ctx Partition.Medium_partition in
  let full = Option.get (Runs.campaign_design ~workers:1 ctx run).Runs.campaign in
  Array.iter
    (fun (r : Campaign.fault_result) ->
      let c =
        Campaign.run ~workers:1 ~name:"tmr_p2" ~impl:run.Runs.impl
          ~golden:ctx.Context.golden_nl ~stimulus:ctx.Context.stimulus
          ~faults:[| r.Campaign.bit |] ()
      in
      Alcotest.check result_testable
        (Printf.sprintf "bit %d alone in a campaign" r.Campaign.bit)
        r c.Campaign.results.(0);
      let s = c.Campaign.stats in
      Alcotest.(check int)
        (Printf.sprintf "bit %d: a lone batchable fault is batched" r.Campaign.bit)
        (s.Campaign.patched + s.Campaign.rerouted)
        s.Campaign.batched)
    full.Campaign.results

(* --- a lane reads its remapped watch position from its own node: a
   patch identical to the base, with output position 0 remapped to a
   base node that agrees with the golden value at cycle 0 only, errs
   where that node's tape first disagrees; the same patch without the
   remap, in the same batch, stays silent --- *)

let test_remapped_watch () =
  let b = Lazy.force datapath_bench in
  let v = Fsim.view b.base in
  let cycles = Fsim.tape_cycles b.tape in
  let tape c u = Fsim.tape_get b.tape ~cycle:c ~node:u in
  let first_error u =
    let rec go c =
      if c >= cycles then -1
      else if Logic.equal (tape c u) b.expected.(c).(0) then go (c + 1)
      else c
    in
    go 0
  in
  let node =
    let rec find u =
      if u >= v.Fsim.v_nnodes then Alcotest.fail "no suitable remap target"
      else if first_error u > 0 then u
      else find (u + 1)
    in
    find 0
  in
  let seed =
    let rec find u =
      if v.Fsim.v_kind.(u) = Fsim.kind_bel_comb then u else find (u + 1)
    in
    find 0
  in
  let lane dl_watch =
    {
      Fsim.dl_cell = Some (seed, Fsim.Cp_table v.Fsim.v_table.(seed));
      dl_rows = [||];
      dl_extras = [||];
      dl_watch;
    }
  in
  let bt = Fsim_batch.create b.base b.cone in
  let run lanes =
    Fsim_batch.run bt ~tape:b.tape ~expected:b.expected ~watch:b.watch ~lanes ()
  in
  let r = (run [| lane [| (0, node) |] |]).(0) in
  Alcotest.(check int) "the remapped node's first disagreement"
    (first_error node) r.Fsim_batch.bv_error_cycle;
  let rs = run [| lane [| (0, node) |]; lane [||] |] in
  Alcotest.(check (pair int int)) "remapped and plain lanes in one batch"
    (first_error node, -1)
    (rs.(0).Fsim_batch.bv_error_cycle, rs.(1).Fsim_batch.bv_error_cycle)

(* --- campaign level: the engine == the oracle on all five paper
   designs over a shared fault sample, at one and two workers --- *)

let test_campaigns () =
  let ctx =
    Context.create ~scale:Context.Reduced ~seed:2 ~faults_per_design:120 ()
  in
  let total_batched = ref 0 in
  List.iter
    (fun strategy ->
      let name = Partition.name strategy in
      let run = Runs.implement_design ctx strategy in
      let campaign ?cone_skip workers =
        Option.get
          (Runs.campaign_design ~workers ?cone_skip ctx run).Runs.campaign
      in
      let oracle = campaign ~cone_skip:false 2 in
      let o = oracle.Campaign.stats in
      Alcotest.(check int) (name ^ ": the oracle rebuilds every fault")
        oracle.Campaign.injected o.Campaign.rebuilt;
      Alcotest.(check int) (name ^ ": the oracle batches nothing") 0
        o.Campaign.batched;
      List.iter
        (fun workers ->
          let e = campaign workers in
          let s = e.Campaign.stats in
          let label = Printf.sprintf "%s w%d" name workers in
          check_same_results (label ^ ": engine vs oracle") e oracle;
          Alcotest.(check int)
            (label ^ ": every patch/reroute fault ran differentially")
            (s.Campaign.patched + s.Campaign.rerouted)
            s.Campaign.diffed;
          Alcotest.(check int) (label ^ ": every differential fault batched")
            s.Campaign.diffed s.Campaign.batched;
          total_batched := !total_batched + s.Campaign.batched)
        [ 1; 2 ])
    Partition.all_paper_designs;
  Alcotest.(check bool) "batch engine exercised" true (!total_batched > 0)

(* --- the fault-free pass that records a worker's baseline tape also
   checks the DUT against the golden device: a DUT computing (a+b)*-3
   against a golden (a+b)*5 fails the campaign with the first
   disagreeing output bit, on the engine and on the oracle --- *)

let test_baseline_check () =
  let dev = Device.build Arch.small in
  let db = Bitdb.build dev in
  let impl = Impl.implement_exn ~seed:5 dev db (build_datapath ()) in
  let stimulus =
    {
      Campaign.cycles = 8;
      inputs = [ ("a", Array.init 8 (fun i -> i + 1)); ("b", Array.make 8 2) ];
    }
  in
  let golden = build_datapath ~k:5 () in
  let expect label run =
    match run () with
    | _ -> Alcotest.failf "%s: the faulty baseline passed" label
    | exception Failure msg ->
        Alcotest.(check string) label
          "Campaign dp: fault-free DUT disagrees with golden device at cycle \
           1 (port \"r\" bit 3: expected 1, got 0)"
          msg
  in
  List.iter
    (fun cone_skip ->
      let label = Printf.sprintf "cone_skip %b" cone_skip in
      expect label (fun () ->
          Campaign.run ~workers:1 ~cone_skip ~name:"dp" ~impl ~golden
            ~stimulus ~faults:[| 0 |] ());
      (* a session checks on its first run; a failed check keeps no
         state, so the next run fails the same way *)
      let session =
        Campaign.session ~workers:1 ~cone_skip ~name:"dp" ~impl ~golden
          ~stimulus ()
      in
      List.iter
        (fun k ->
          expect
            (Printf.sprintf "%s, session run %d" label k)
            (fun () -> Campaign.run_session session ~faults:[| 0 |]))
        [ 1; 2 ])
    [ true; false ]

(* design runs and their fault classes, shared by the tests below *)
let reduced_ctx = lazy (Context.create ~scale:Context.Reduced ~seed:1 ())

let configs =
  List.map (fun s -> (s, Tmr_core.Voter.Majority)) Partition.all_paper_designs
  @ [ (Partition.Medium_partition, Tmr_core.Voter.Detecting) ]

let config_name (strategy, voter) =
  Partition.name strategy
  ^ if voter = Tmr_core.Voter.Detecting then "/detecting" else ""

let design_runs :
    ( Partition.strategy * Tmr_core.Voter.variant,
      Runs.design_run * Loop_faults.t Lazy.t )
    Hashtbl.t =
  Hashtbl.create 8

let design (strategy, voter) =
  match Hashtbl.find_opt design_runs (strategy, voter) with
  | Some r -> r
  | None ->
      let run =
        Runs.implement_design ~voter (Lazy.force reduced_ctx) strategy
      in
      let r = (run, lazy (Loop_faults.find run)) in
      Hashtbl.add design_runs (strategy, voter) r;
      r

let campaign ?cone_skip ?forensics (run : Runs.design_run) name faults =
  let ctx = Lazy.force reduced_ctx in
  Campaign.run ~workers:1 ?cone_skip ?forensics ~name ~impl:run.Runs.impl
    ~golden:ctx.Context.golden_nl ~stimulus:ctx.Context.stimulus ~faults ()

let strip (c : Campaign.t) =
  Array.map
    (fun (r : Campaign.fault_result) -> { r with Campaign.forensics = None })
    c.Campaign.results

(* [faults] on the engine twice and on the oracle: with the vote-masking
   proof, every fault ran batched but the vote-masked ones, which were
   skipped; with the proof off (forensics needs the simulated
   divergence), every fault ran batched.  Both equal the oracle. *)
let check_kernel_coverage label (run : Runs.design_run) faults =
  let e = campaign run label faults in
  let a = Forensics.attrib_of_impl run.Runs.impl in
  let kernel =
    Array.fold_left
      (fun n bit -> if Forensics.masked_domain a bit < 0 then n + 1 else n)
      0 faults
  in
  let s = e.Campaign.stats in
  Alcotest.(check (pair int int))
    (label ^ ": batched all but the vote-masked, skipped those")
    (kernel, Array.length faults - kernel)
    (s.Campaign.batched, s.Campaign.skipped);
  let all = campaign ~forensics:true run label faults in
  Alcotest.(check int) (label ^ ": proof off: all of them batched")
    (Array.length faults) all.Campaign.stats.Campaign.batched;
  let oracle = campaign ~cone_skip:false run label faults in
  check_same_results (label ^ ": engine vs oracle") e oracle;
  Alcotest.(check (array result_testable))
    (label ^ ": proof off: engine vs oracle")
    oracle.Campaign.results (strip all)

(* --- the faults the batch overlay learned last: out_sel flips (a kind
   override) and faults that re-resolve a watched output.  Every one of
   them has an overlay, and on all five designs each equals the oracle
   fault by fault, with the vote-masking proof on and off.  The class
   sizes are pinned, so they cannot shrink unnoticed --- *)

let test_kind_and_watch_faults () =
  let pinned =
    [
      ("standard", (96, 119));
      ("tmr_p1", (418, 188));
      ("tmr_p2", (358, 156));
      ("tmr_p3", (328, 165));
      ("tmr_p3_nv", (298, 212));
    ]
  in
  let total_kind = ref 0 and total_watch = ref 0 in
  List.iter
    (fun strategy ->
      let name = Partition.name strategy in
      let run, lf = design (strategy, Tmr_core.Voter.Majority) in
      let lf = Lazy.force lf in
      Alcotest.(check (array int)) (name ^ ": every planned reroute has an overlay")
        [||] lf.Loop_faults.fallback;
      let nk = Array.length lf.Loop_faults.kind
      and nw = Array.length lf.Loop_faults.watch in
      total_kind := !total_kind + nk;
      total_watch := !total_watch + nw;
      Alcotest.(check (pair int int)) (name ^ ": out_sel and watch-remap faults")
        (List.assoc name pinned) (nk, nw);
      check_kernel_coverage name run
        (Array.append lf.Loop_faults.kind lf.Loop_faults.watch))
    Partition.all_paper_designs;
  Alcotest.(check (pair int int)) "out_sel and watch-remap faults, all designs"
    (1498, 840) (!total_kind, !total_watch)

(* --- bridges onto an unused LUT: a flip that shorts a cone net onto the
   constant output of an unused combinational bel resolves to a shared
   constant node instead of forcing a rebuild.  On exactly those faults
   the engine == the oracle, and a campaign rebuilds only what
   [plan_fault] itself plans as a rebuild (pad enables) --- *)

let test_constant_bridges () =
  List.iter
    (fun strategy ->
      let name = Partition.name strategy in
      let run, _ = design (strategy, Tmr_core.Voter.Majority) in
      let impl = run.Runs.impl in
      let watch_outputs = Loop_faults.watch_outputs impl in
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
      let reads_const bit =
        let hit row = Array.exists (fun n -> n = zero || n = one) row in
        Extract.apply_bit_flip ex bit;
        Fun.protect
          ~finally:(fun () -> Extract.apply_bit_flip ex bit)
          (fun () ->
            match
              Fsim.fault_delta ~scratch cone base ex bit ~watch:watch_outputs
                ~succ_off ~succ ~bel_of
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
      check_kernel_coverage (name ^ ": bridges") run faults;
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
        plan_rebuilds (campaign run name mixed).Campaign.stats.Campaign.rebuilt)
    Partition.all_paper_designs

(* --- loop-closing lanes: planned reroute faults whose own circuit puts
   a seed on a combinational loop (a bridge closing a feedback path, a
   register turned combinational inside its feedback loop, or a seed
   inside a cyclic SCC of the base graph).  The batch engine
   Kleene-iterates them in the word; fault by fault they equal the
   oracle --- *)

let test_loop_closing_lanes () =
  let total = ref 0 in
  List.iter
    (fun cfg ->
      let name = config_name cfg in
      let run, lf = design cfg in
      let loop = (Lazy.force lf).Loop_faults.loop in
      total := !total + Array.length loop;
      if loop <> [||] then
        check_kernel_coverage (name ^ ": loop-closing faults") run loop)
    configs;
  Alcotest.(check bool) "loop-closing faults found" true (!total > 0)

(* --- the baseline tape is the settled fixpoint of the base circuit:
   at every cycle every combinational base node reads the LUT of its
   base row's tape values.  The batch kernel rests on this: every lane
   evaluates every member of the union cone, and a member outside the
   lane's own cone reads inputs that follow the tape, so it follows the
   tape too.  Nodes of
   cyclic SCCs are included — the tape holds their least fixpoint, a
   fixpoint all the same; the reduced
   base graphs have none, so rebuilt simulators of a few loop-closing
   faults of the standard design stand in for them --- *)

let test_tape_fixpoint () =
  let ctx = Lazy.force reduced_ctx in
  let stim = ctx.Context.stimulus in
  let cycles = stim.Campaign.cycles in
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
    (fun ((strategy, _) as cfg) ->
      let name = config_name cfg in
      let run, lf = design cfg in
      let impl = run.Runs.impl in
      let watch_outputs = Loop_faults.watch_outputs impl in
      let ex =
        Extract.create impl.Impl.dev impl.Impl.db
          (Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream)
      in
      check name impl (Fsim.build ex ~watch_outputs);
      let loop =
        if strategy = Partition.Unprotected then (Lazy.force lf).Loop_faults.loop
        else [||]
      in
      Array.iteri
        (fun i bit ->
          if i < 4 then begin
            Extract.apply_bit_flip ex bit;
            Fun.protect
              ~finally:(fun () -> Extract.apply_bit_flip ex bit)
              (fun () ->
                check
                  (Printf.sprintf "%s, bit %d rebuilt" name bit)
                  impl
                  (Fsim.build ex ~watch_outputs))
          end)
        loop)
    configs;
  Alcotest.(check bool) "cyclic-SCC nodes checked" true (!cyclic_checked > 0)

(* --- the vote-masking proof: on a majority TMR design, a fault whose
   footprint stays in one domain and touches no voter is silent.  A
   campaign classifies those faults without simulating them, so here a
   seeded sample of them runs on the rebuild oracle, on the paper
   designs, on the tap-group partitions of examples/partition_sweep and
   on random barrier subsets.  Every one is silent with no detection,
   and the engine skips every one.  Designs the proof does not cover
   (no voters, non-majority voters, detection ports) classify no bit.
   The per-design proof-silent counts over the full essential list are
   pinned --- *)

(* voters on the boundaries of groups of [k] consecutive taps, as in
   examples/partition_sweep *)
let taps_strategy base k =
  let group comp =
    let block = Partition.block_group comp in
    match
      if String.starts_with ~prefix:"tap" block then
        int_of_string_opt (String.sub block 3 (String.length block - 3))
      else None
    with
    | Some tap -> Printf.sprintf "group%02d" (tap / k)
    | None -> block
  in
  let barriers = Partition.boundary_cells ~group_of:group base in
  Partition.Custom
    ( Printf.sprintf "taps/%d" k,
      {
        Tmr_core.Tmr.barrier = (fun _ c -> barriers.(c));
        vote_registers = true;
        voter = Tmr_core.Voter.Majority;
      } )

(* a seeded random subset of the cells as barriers, with registers voted
   or not *)
let random_strategy base seed =
  let rng = Srand.create seed in
  let barriers = Array.init (Netlist.num_cells base) (fun _ -> Srand.int rng 3 = 0) in
  Partition.Custom
    ( Printf.sprintf "random/%d" seed,
      {
        Tmr_core.Tmr.barrier = (fun _ c -> barriers.(c));
        vote_registers = Srand.bool rng;
        voter = Tmr_core.Voter.Majority;
      } )

let test_vote_masking_proof () =
  let ctx = Lazy.force reduced_ctx in
  let base = Tmr_filter.Fir.build ctx.Context.params in
  let majority s = (s, Tmr_core.Voter.Majority) in
  (* design, proof-silent bits of its essential list *)
  let pinned =
    List.map majority Partition.all_paper_designs
    @ [
        (Partition.Medium_partition, Tmr_core.Voter.Improved);
        (Partition.Medium_partition, Tmr_core.Voter.Detecting);
      ]
    @ List.map (fun k -> majority (taps_strategy base k)) [ 1; 2; 3 ]
    @ List.map (fun seed -> majority (random_strategy base seed)) [ 1; 2; 3 ]
  in
  (* standard, tmr_p1 .. tmr_p3_nv; tmr_p2 improved and detecting;
     taps/1..3 (k = 1 and 2 build the same design at reduced scale, k = 3
     the tmr_p3 one, as the sweep's table shows); random/1..3 *)
  let expected =
    [ 0; 20863; 21330; 21203; 22857; 0; 0; 21330; 21330; 21203; 24557; 24297;
      24976 ]
  in
  let counts =
    List.map
      (fun (strategy, voter) ->
        let name =
          Partition.name strategy ^ "/" ^ Tmr_core.Voter.name voter
        in
        let run = Runs.implement_design ~voter ctx strategy in
        let essential = run.Runs.faultlist.Tmr_inject.Faultlist.bits in
        let a = Forensics.attrib_of_impl run.Runs.impl in
        let proved =
          Array.of_seq
            (Seq.filter
               (fun bit -> Forensics.masked_domain a bit >= 0)
               (Array.to_seq essential))
        in
        let n = Array.length proved in
        Alcotest.(check bool) (name ^ ": the design qualifies iff bits are proved")
          a.Forensics.vote_masking (n > 0);
        if n > 0 then begin
          Alcotest.(check bool) (name ^ ": at least 400 proved bits") true
            (n >= 400);
          let pick = Srand.sample (Srand.create 11) 400 n in
          Array.sort compare pick;
          let sample = Array.map (fun i -> proved.(i)) pick in
          let oracle = campaign ~cone_skip:false run name sample in
          Array.iter
            (fun (r : Campaign.fault_result) ->
              Alcotest.(check (pair int int))
                (Printf.sprintf "%s: bit %d: oracle error and detect cycles"
                   name r.Campaign.bit)
                (-1, -1)
                (r.Campaign.first_error_cycle, r.Campaign.detect_cycle))
            oracle.Campaign.results;
          let e = campaign run name sample in
          Alcotest.(check (pair int int))
            (name ^ ": the engine skipped every proved bit")
            (400, 0)
            (e.Campaign.stats.Campaign.skipped, e.Campaign.stats.Campaign.batched);
          check_same_results (name ^ ": engine vs oracle") e oracle
        end;
        Printf.printf "%s: %d of %d essential bits proved silent\n" name n
          (Array.length essential);
        n)
      pinned
  in
  Alcotest.(check (list int)) "proof-silent bits per design" expected counts

(* --- in-shard fault collapsing: faults whose overlays are equal share
   one lane and copy its verdict.  The collapsed faults are found here
   apart from the campaign's planner: every essential bit it would
   batch (planned patch or reroute, not vote-masked, with an overlay),
   its overlay derived on a fresh extract and compared structurally —
   rows in node order, appended nodes without their resolution wires.
   Every one-shard exhaustive campaign batches exactly those faults
   beyond its executed lanes, whose counts are pinned, and a seeded
   sample of the collapsed faults equals the oracle --- *)

let collapsed_faults (run : Runs.design_run) faults =
  let ctx = Lazy.force reduced_ctx in
  let impl = run.Runs.impl in
  let ex =
    Extract.create impl.Impl.dev impl.Impl.db
      (Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream)
  in
  let ws = Fsim.make_workspace impl.Impl.dev in
  let watch =
    Array.concat
      (List.map
         (fun (port, _) -> Campaign.dut_output_wires impl port)
         (Netlist.output_ports ctx.Context.golden_nl))
  in
  let base = Fsim.build ~ws ex ~watch_outputs:watch in
  let cone = Fsim.snapshot_cone ws in
  let bt = Fsim_batch.create base cone in
  let succ_off, succ = Fsim_batch.csr bt in
  let bel_of = Fsim_batch.bel_of bt in
  let scratch = Fsim.make_scratch () in
  let a = Forensics.attrib_of_impl impl in
  let seen = Hashtbl.create 4096 in
  let collapsed = ref [] in
  Array.iteri
    (fun i bit ->
      let masked = a.Forensics.vote_masking && Forensics.masked_domain a bit >= 0 in
      match Fsim.plan_fault cone ex bit with
      | (Fsim.Path_patch | Fsim.Path_reroute) as path when not masked -> (
          Extract.apply_bit_flip ex bit;
          let lane =
            Fsim.delta_of_plan ~scratch cone base ex bit path ~watch ~succ_off
              ~succ ~bel_of
          in
          Extract.apply_bit_flip ex bit;
          match lane with
          | None -> ()
          | Some d ->
              let rows = Array.copy d.Fsim.dl_rows in
              Array.sort (fun (u, _) (v, _) -> compare u v) rows;
              let key =
                ( d.Fsim.dl_cell,
                  rows,
                  Array.map fst d.Fsim.dl_extras,
                  d.Fsim.dl_watch )
              in
              if Hashtbl.mem seen key then collapsed := i :: !collapsed
              else Hashtbl.add seen key ())
      | _ -> ())
    faults;
  Array.of_list (List.rev !collapsed)

let test_collapsing () =
  let lanes_run () =
    Option.value ~default:0
      (List.assoc_opt "campaign.batch_lanes"
         (Tmr_obs.Metrics.snapshot ()).Tmr_obs.Metrics.counters)
  in
  let lanes =
    List.map
      (fun strategy ->
        let name = Partition.name strategy in
        let run, _ = design (strategy, Tmr_core.Voter.Majority) in
        let faults = run.Runs.faultlist.Tmr_inject.Faultlist.bits in
        let before = lanes_run () in
        let e = campaign run name faults in
        let lanes = lanes_run () - before in
        let collapsed = collapsed_faults run faults in
        let n = Array.length collapsed in
        Alcotest.(check int)
          (name ^ ": batched beyond the lanes = collapsed faults")
          (e.Campaign.stats.Campaign.batched - lanes)
          n;
        let pick = Srand.sample (Srand.create 29) (min 120 n) n in
        Array.sort compare pick;
        let idx = Array.map (fun k -> collapsed.(k)) pick in
        let oracle =
          campaign ~cone_skip:false run name (Array.map (fun i -> faults.(i)) idx)
        in
        Alcotest.(check (array result_testable))
          (name ^ ": collapsed faults == oracle")
          oracle.Campaign.results
          (Array.map (fun i -> e.Campaign.results.(i)) idx);
        Printf.printf "%s: %d lanes for %d batched faults (%d collapsed)\n"
          name lanes e.Campaign.stats.Campaign.batched n;
        lanes)
      Partition.all_paper_designs
  in
  Alcotest.(check (list int)) "kernel lanes per design"
    [ 3203; 9311; 5422; 4120; 1201 ]
    lanes

(* --- packing never changes a verdict.  The planned reroutes of the two
   reduced designs with the most union-SCC work, tmr_p1 and tmr_p3_nv,
   pack into batches with union back edges and Kleene cuts.  Packed in
   cone-key order, in reversed fault order and in a seeded shuffle, and
   a seeded sample of them as one-lane batches, they are equal fault by
   fault; a seeded sample equals the oracle --- *)

let reroute_faults (run : Runs.design_run) =
  let ctx = Lazy.force reduced_ctx in
  let impl = run.Runs.impl in
  let ex =
    Extract.create impl.Impl.dev impl.Impl.db
      (Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream)
  in
  let ws = Fsim.make_workspace impl.Impl.dev in
  let watch =
    Array.concat
      (List.map
         (fun (port, _) -> Campaign.dut_output_wires impl port)
         (Netlist.output_ports ctx.Context.golden_nl))
  in
  ignore (Fsim.build ~ws ex ~watch_outputs:watch);
  let cone = Fsim.snapshot_cone ws in
  let a = Forensics.attrib_of_impl impl in
  List.filter
    (fun bit ->
      Forensics.masked_domain a bit < 0
      && Fsim.plan_fault cone ex bit = Fsim.Path_reroute)
    (Array.to_list run.Runs.faultlist.Tmr_inject.Faultlist.bits)
  |> Array.of_list

let test_packing_independence () =
  List.iter
    (fun strategy ->
      let name = Partition.name strategy in
      let run, _ = design (strategy, Tmr_core.Voter.Majority) in
      let faults = reroute_faults run in
      let n = Array.length faults in
      Alcotest.(check bool) (name ^ ": reroute faults found") true (n > 0);
      (* the campaign over [faults] permuted by [order], results back in
         [faults] order *)
      let packed order =
        let c = campaign run name (Array.map (fun i -> faults.(i)) order) in
        let r = Array.copy c.Campaign.results in
        Array.iteri (fun k i -> r.(i) <- c.Campaign.results.(k)) order;
        r
      in
      let key = packed (Array.init n Fun.id) in
      Alcotest.(check (array result_testable))
        (name ^ ": reversed packing") key
        (packed (Array.init n (fun i -> n - 1 - i)));
      let shuffled = Array.init n Fun.id in
      Srand.shuffle (Srand.create 41) shuffled;
      Alcotest.(check (array result_testable))
        (name ^ ": shuffled packing") key (packed shuffled);
      let pick = Srand.sample (Srand.create 43) (min 40 n) n in
      Array.sort compare pick;
      Array.iter
        (fun k ->
          Alcotest.check result_testable
            (Printf.sprintf "%s: bit %d as a one-lane batch" name faults.(k))
            key.(k)
            (campaign run name [| faults.(k) |]).Campaign.results.(0))
        pick;
      let pick = Srand.sample (Srand.create 47) (min 60 n) n in
      Array.sort compare pick;
      let oracle =
        campaign ~cone_skip:false run name (Array.map (Array.get faults) pick)
      in
      Alcotest.(check (array result_testable))
        (name ^ ": sample == oracle")
        oracle.Campaign.results
        (Array.map (fun k -> key.(k)) pick);
      Printf.printf "%s: %d reroute faults\n" name n)
    [ Partition.Max_partition; Partition.Min_partition_nv ]

(* --- a session's build (attribution, golden outputs, extract) is
   setup time of the first run on it: worker 0's setup holds it and the
   wall clock covers it, so utilization stays within 1; a later run on
   the same session builds nothing --- *)

let test_session_accounting () =
  let ctx = Lazy.force reduced_ctx in
  let run, _ = design (Partition.Medium_partition, Tmr_core.Voter.Majority) in
  let faults = Array.sub run.Runs.faultlist.Tmr_inject.Faultlist.bits 0 200 in
  let t0 = Tmr_obs.Clock.now_ns () in
  let s =
    Campaign.session ~workers:1 ~name:"tmr_p2" ~impl:run.Runs.impl
      ~golden:ctx.Context.golden_nl ~stimulus:ctx.Context.stimulus ()
  in
  let build_ns = Tmr_obs.Clock.now_ns () - t0 in
  let t1 = Tmr_obs.Clock.now_ns () in
  let first = Campaign.run_session s ~faults in
  let first_ns = Tmr_obs.Clock.now_ns () - t1 in
  let second = Campaign.run_session s ~faults in
  Alcotest.(check bool)
    (Printf.sprintf "first run's setup %d ns holds the %d ns session build"
       first.Campaign.setup_ns.(0) build_ns)
    true
    (first.Campaign.setup_ns.(0) >= build_ns);
  (* the build precedes the call, so only a wall clock that counts it
     outlasts the call *)
  Alcotest.(check bool)
    (Printf.sprintf "first run's wall %d ns outlasts its %d ns call"
       first.Campaign.wall_ns first_ns)
    true
    (first.Campaign.wall_ns > first_ns);
  Alcotest.(check bool)
    (Printf.sprintf "second run's setup %d ns holds no session build"
       second.Campaign.setup_ns.(0))
    true
    (second.Campaign.setup_ns.(0) < build_ns);
  List.iter
    (fun (label, c) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s run: utilization %.3f <= 1" label
           (Campaign.utilization c))
        true
        (Campaign.utilization c <= 1.0))
    [ ("first", first); ("second", second) ];
  check_same_results "second run == first" first second

(* --- an unrouted input pin of a used bel counts as that bel: a pip
   from a used wire onto such a pin is proved only when the wire and the
   bel share a domain and neither is a voter, and [structural] reports
   the bel's domain.  No essential bit is such a pip (the fault list
   holds no buffered pip into an unused wire), so the rule is checked
   over every pip of the device, and a sample of the pin pips the proof
   does classify runs on the oracle --- *)

let test_unrouted_pins () =
  List.iter
    (fun strategy ->
      let name = Partition.name strategy in
      let run, _ = design (strategy, Tmr_core.Voter.Majority) in
      let impl = run.Runs.impl in
      let dev = impl.Impl.dev in
      let a = Forensics.attrib_of_impl impl in
      let pin_bel w =
        let b = dev.Device.wire_bel.(w) in
        if
          (not a.Forensics.wire_used.(w))
          && dev.Device.wkind.(w) = Device.BelIn
          && b >= 0 && a.Forensics.bel_used.(b)
        then b
        else -1
      in
      let blocked = ref 0 and proved = ref [] and bad = ref [] in
      for pip = 0 to dev.Device.npips - 1 do
        let s = dev.Device.pip_src.(pip) and d = dev.Device.pip_dst.(pip) in
        let bel, other =
          if pin_bel d >= 0 then (pin_bel d, s) else (pin_bel s, d)
        in
        if bel >= 0 && a.Forensics.wire_used.(other) then begin
          let bit = Bitdb.pip_bit impl.Impl.db pip in
          let dom = a.Forensics.wire_domain.(other) in
          let same =
            dom >= 0
            && dom = a.Forensics.bel_domain.(bel)
            && not (a.Forensics.bel_voter.(bel) || a.Forensics.wire_voter.(other))
          in
          if not same then incr blocked else proved := bit :: !proved;
          let bd = a.Forensics.bel_domain.(bel) in
          if
            Forensics.masked_domain a bit <> (if same then dom else -1)
            || bd >= 0
               && (Forensics.structural a bit).Forensics.domain_mask
                  land (1 lsl bd)
                  = 0
          then bad := pip :: !bad
        end
      done;
      Alcotest.(check (list int))
        (name ^ ": pin pips proved or attributed against the pin's bel") []
        !bad;
      Alcotest.(check bool) (name ^ ": the rule blocks some pin pips") true
        (!blocked > 0);
      let sample =
        Array.of_list (List.filteri (fun i _ -> i < 64) (List.rev !proved))
      in
      let oracle = campaign ~cone_skip:false run name sample in
      Alcotest.(check int) (name ^ ": proved pin pips are silent on the oracle")
        0 oracle.Campaign.wrong)
    (List.tl Partition.all_paper_designs)

(* --- [tmrtool explain --bit] prints the campaign's verdict: the
   outcome and first error cycle of its rebuilt replay, and the same
   from its one-lane batch, for one wrong and one silent bit of reduced
   TMR_p2 (both batchable, so the divergence trace runs); the detect
   cycle of a flagged bit on the detecting-voter TMR_p2; and for a
   rebuild-path bit (a pad enable on the cone) no trace and the
   oracle's outcome --- *)

let tmrtool =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/tmrtool.exe"

let explain ?(voter = "majority") bit =
  let ic =
    Unix.open_process_args_in tmrtool
      [|
        tmrtool; "explain"; "--scale"; "reduced"; "--seed"; "1"; "--design";
        "tmr_p2"; "--voter"; voter; "--bit"; string_of_int bit;
      |]
  in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "tmrtool explain --bit %d failed:\n%s" bit out);
  String.split_on_char '\n' out

let field lines key =
  match
    List.find_opt
      (fun l -> String.starts_with ~prefix:("  " ^ key) l)
      lines
  with
  | Some l ->
      let k = String.length key + 2 in
      String.trim (String.sub l k (String.length l - k))
  | None -> Alcotest.failf "explain printed no %S line" key

(* the plan path of a bit of [impl], as a campaign plans it *)
let planner impl =
  let ex =
    Extract.create impl.Impl.dev impl.Impl.db
      (Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream)
  in
  let ws = Fsim.make_workspace impl.Impl.dev in
  ignore (Fsim.build ~ws ex ~watch_outputs:(Loop_faults.watch_outputs impl));
  let cone = Fsim.snapshot_cone ws in
  fun bit -> Fsim.plan_fault cone ex bit

let batchable plan bit =
  match plan bit with
  | Fsim.Path_patch | Fsim.Path_reroute -> true
  | Fsim.Path_silent | Fsim.Path_rebuild -> false

(* the outcome line explain prints for a result, up to the port detail *)
let check_outcome label lines (r : Campaign.fault_result) =
  let outcome =
    if r.Campaign.outcome = Campaign.Wrong_answer then
      Printf.sprintf "WRONG ANSWER, first at cycle %d"
        r.Campaign.first_error_cycle
    else "silent (all outputs match golden)"
  in
  let printed = field lines "outcome" in
  Alcotest.(check string) (label ^ ": outcome") outcome
    (String.sub printed 0 (min (String.length printed) (String.length outcome)))

let test_explain () =
  let ctx =
    Context.create ~scale:Context.Reduced ~seed:1 ~faults_per_design:400 ()
  in
  let run = Runs.implement_design ctx Partition.Medium_partition in
  let c = Option.get (Runs.campaign_design ~workers:1 ctx run).Runs.campaign in
  let impl = run.Runs.impl in
  let plan = planner impl in
  let pick outcome =
    match
      Array.find_opt
        (fun (r : Campaign.fault_result) ->
          r.Campaign.outcome = outcome && batchable plan r.Campaign.bit)
        c.Campaign.results
    with
    | Some r -> r
    | None -> Alcotest.fail "no batchable fault with that outcome"
  in
  List.iter
    (fun (r : Campaign.fault_result) ->
      let bit = r.Campaign.bit in
      let lines = explain bit in
      let label = Printf.sprintf "bit %d" bit in
      let engine =
        if r.Campaign.outcome = Campaign.Wrong_answer then
          Printf.sprintf "batch lane: first error at cycle %d"
            r.Campaign.first_error_cycle
        else "batch lane: silent"
      in
      check_outcome label lines r;
      Alcotest.(check string) (label ^ ": engine") engine (field lines "engine");
      Alcotest.(check bool) (label ^ ": divergence trace printed") true
        (List.exists (String.starts_with ~prefix:"  cone ") lines);
      Alcotest.(check bool) (label ^ ": not vote-masked") false
        (String.starts_with ~prefix:"silent by" (field lines "masking")))
    [ pick Campaign.Wrong_answer; pick Campaign.Silent ];
  (* a bit the vote-masking proof classifies: explain says so, and its
     rebuild agrees *)
  let a = Forensics.attrib_of_impl impl in
  let r =
    Option.get
      (Array.find_opt
         (fun (r : Campaign.fault_result) ->
           Forensics.masked_domain a r.Campaign.bit >= 0)
         c.Campaign.results)
  in
  let lines = explain r.Campaign.bit in
  let label = Printf.sprintf "bit %d" r.Campaign.bit in
  Alcotest.(check bool) (label ^ ": masking") true
    (String.starts_with
       ~prefix:
         (Printf.sprintf "silent by the vote-masking proof: domain %d only"
            (Forensics.masked_domain a r.Campaign.bit))
       (field lines "masking"));
  Alcotest.(check string) (label ^ ": outcome")
    "silent (all outputs match golden)" (field lines "outcome");
  Alcotest.(check bool) (label ^ ": no violation line") false
    (List.exists (String.starts_with ~prefix:"  !!!") lines);
  (* a rebuild-path bit: no differential trace, the oracle's outcome *)
  let bit =
    Option.get
      (Array.find_opt
         (fun bit -> plan bit = Fsim.Path_rebuild)
         run.Runs.faultlist.Tmr_inject.Faultlist.bits)
  in
  let oracle =
    Campaign.run ~workers:1 ~cone_skip:false ~name:"tmr_p2" ~impl
      ~golden:ctx.Context.golden_nl ~stimulus:ctx.Context.stimulus
      ~faults:[| bit |] ()
  in
  let lines = explain bit in
  let label = Printf.sprintf "rebuild bit %d" bit in
  Alcotest.(check bool) (label ^ ": divergence n/a") true
    (String.starts_with ~prefix:"n/a" (field lines "divergence"));
  check_outcome label lines oracle.Campaign.results.(0);
  (* a batchable bit the detecting voter flags: the detection and engine
     flag lines give the campaign's detect cycle *)
  let drun =
    Runs.implement_design ~voter:Tmr_core.Voter.Detecting ctx
      Partition.Medium_partition
  in
  let dc = Option.get (Runs.campaign_design ~workers:1 ctx drun).Runs.campaign in
  let dplan = planner drun.Runs.impl in
  let r =
    Option.get
      (Array.find_opt
         (fun (r : Campaign.fault_result) ->
           r.Campaign.detect_cycle >= 0 && batchable dplan r.Campaign.bit)
         dc.Campaign.results)
  in
  let lines = explain ~voter:"detecting" r.Campaign.bit in
  let label = Printf.sprintf "detecting bit %d" r.Campaign.bit in
  let d = r.Campaign.detect_cycle in
  check_outcome label lines r;
  Alcotest.(check bool) (label ^ ": detection") true
    (String.ends_with
       ~suffix:(Printf.sprintf "(first flag at cycle %d)" d)
       (field lines "detection"));
  Alcotest.(check string) (label ^ ": engine flag")
    (Printf.sprintf "batch lane saw the flag at cycle %d" d)
    (field lines "engine flag")

(* --- the sign bit is a lane: in a full batch whose only erring lane
   sits in the last bit (bit 62, an int's sign bit), that lane's first
   error and detect cycles equal the oracle's and its provenance equals
   its own one-lane batch's, and every other lane stays silent; patch
   lanes and reroute lanes (rewired rows, appended resolve nodes) --- *)

let test_sign_bit_lane () =
  let b = Lazy.force datapath_bench in
  let bt, faults = datapath_lanes [ Fsim.Path_patch; Fsim.Path_reroute ] in
  let width = Fsim_batch.width in
  Alcotest.(check int) "a batch fills every bit of an int" Sys.int_size width;
  Alcotest.(check bool) "the last lane is the sign bit" true
    (1 lsl (width - 1) < 0);
  let faults = Array.to_list faults in
  let silent =
    Array.of_list
      (List.filter_map (fun (_, _, l, o) -> if o < 0 then Some l else None)
         faults)
  in
  (* the first six erring patch lanes and six erring reroute lanes that
     resolve a row of their own (a rewired resolve row or an appended
     node) *)
  let v = Fsim.view b.base in
  let splices (d : Fsim.delta) =
    d.Fsim.dl_extras <> [||]
    || Array.exists
         (fun (u, _) -> v.Fsim.v_kind.(u) = Fsim.kind_resolve)
         d.Fsim.dl_rows
  in
  let first6 f = List.filteri (fun i _ -> i < 6) (List.filter f faults) in
  let picks =
    first6 (fun (_, p, _, o) -> o >= 0 && p = Fsim.Path_patch)
    @ first6 (fun (_, _, d, o) -> o >= 0 && splices d)
  in
  Alcotest.(check bool) "found silent lanes" true (Array.length silent > 0);
  let voters = Bytes.make (Fsim.num_nodes b.base) '\000' in
  let run lanes =
    Fsim_batch.run bt ~voters ~tape:b.tape ~expected:b.expected ~watch:b.watch
      ~lanes ()
  in
  Alcotest.(check bool) "found erring patch and reroute lanes" true
    (List.exists (fun (_, p, _, _) -> p = Fsim.Path_reroute) picks
    && List.exists (fun (_, p, _, _) -> p = Fsim.Path_patch) picks);
  List.iter
    (fun (bit, _, lane, oracle) ->
      let lanes =
        Array.init width (fun k ->
            if k = width - 1 then lane else silent.(k mod Array.length silent))
      in
      let vs = run lanes in
      Array.iteri
        (fun k v ->
          if k < width - 1 then
            Alcotest.(check int)
              (Printf.sprintf "bit %d batch: lane %d silent" bit k)
              (-1) v.Fsim_batch.bv_error_cycle)
        vs;
      let v = vs.(width - 1) and alone = (run [| lane |]).(0) in
      Alcotest.(check int)
        (Printf.sprintf "bit %d in the sign-bit lane: first error cycle" bit)
        oracle v.Fsim_batch.bv_error_cycle;
      Alcotest.(check int)
        (Printf.sprintf "bit %d in the sign-bit lane: detect cycle" bit)
        (-1) v.Fsim_batch.bv_detect_cycle;
      Alcotest.(check bool)
        (Printf.sprintf "bit %d in the sign-bit lane: provenance == alone" bit)
        true
        (v.Fsim_batch.bv_provenance = alone.Fsim_batch.bv_provenance))
    picks

(* --- [bit_index] of every single-lane word, the sign bit included --- *)

let test_bit_index () =
  for i = 0 to Fsim_batch.width - 1 do
    Alcotest.(check int)
      (Printf.sprintf "bit_index (1 lsl %d)" i)
      i
      (Fsim_batch.bit_index (1 lsl i))
  done

let () =
  Alcotest.run "tmr_engine"
    [
      ( "tape",
        [ Alcotest.test_case "pack/unpack round-trip" `Quick test_tape_roundtrip ] );
      ( "engine",
        [
          Alcotest.test_case "patch faults: diff == oracle, cone closed"
            `Quick test_patch_faults;
          Alcotest.test_case "one-lane batch == oracle" `Quick
            test_one_lane_batch;
          Alcotest.test_case "campaigns: diff == full replay (5 designs)"
            `Slow test_campaigns;
          Alcotest.test_case "baseline pass checks the DUT" `Quick
            test_baseline_check;
          Alcotest.test_case "out_sel and watch-remap faults == oracle" `Slow
            test_kind_and_watch_faults;
          Alcotest.test_case "constant bridges: no rebuild, == oracle"
            `Slow test_constant_bridges;
          Alcotest.test_case "loop-closing lanes: batched == oracle"
            `Slow test_loop_closing_lanes;
          Alcotest.test_case "tape is the base circuit's fixpoint" `Quick
            test_tape_fixpoint;
          Alcotest.test_case "remapped watch reads the lane's node" `Quick
            test_remapped_watch;
          Alcotest.test_case "vote-masked bits == oracle, silent" `Slow
            test_vote_masking_proof;
          Alcotest.test_case "unrouted input pins count as their bel" `Slow
            test_unrouted_pins;
          Alcotest.test_case "collapsed faults == oracle, lanes pinned" `Slow
            test_collapsing;
          Alcotest.test_case "session build counts as first-run setup" `Quick
            test_session_accounting;
          Alcotest.test_case "packing never changes a verdict" `Slow
            test_packing_independence;
          Alcotest.test_case "the sign-bit lane == oracle" `Quick
            test_sign_bit_lane;
          Alcotest.test_case "bit_index of every lane" `Quick test_bit_index;
        ] );
      ( "explain",
        [
          Alcotest.test_case "explain --bit agrees with the campaign" `Slow
            test_explain;
        ] );
    ]
