(* Differential fault-simulation engine: baseline-tape packing, cone
   closure on a hand-built fabric, and bit-identical campaign results
   against the full-replay engine on all five paper designs. *)

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
module Partition = Tmr_core.Partition
module Campaign = Tmr_inject.Campaign
module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs

let dev = lazy (Device.build Arch.small)
let db = lazy (Bitdb.build (Lazy.force dev))

(* --- tape pack/unpack --- *)

let logic_testable =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_char ppf (Logic.to_char v))
    Logic.equal

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

(* --- cone closure + differential == full replay on a hand-built
   fabric: every patchable bit of a small implemented datapath --- *)

let build_datapath ?(k = -3) () =
  let nl = Netlist.create () in
  let a = Word.input nl "a" ~width:6 in
  let b = Word.input nl "b" ~width:6 in
  let s = Word.add nl a b in
  let p = Word.mul_const nl s k ~width:6 in
  let r = Word.reg nl p in
  Word.output nl "r" r;
  nl

let test_patch_diff_matches_oracle () =
  let dev = Lazy.force dev and db = Lazy.force db in
  let impl =
    Impl.implement_exn ~seed:5 dev db (build_datapath ())
  in
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
  let stim = Array.init cycles (fun _ -> (Srand.int rng 64, Srand.int rng 64)) in
  let drive sim c =
    let a, b = stim.(c) in
    let set wires v =
      let nodes = Fsim.pad_nodes sim wires in
      Array.iteri
        (fun i n -> Fsim.set_node sim n (Logic.of_bool ((v asr i) land 1 = 1)))
        nodes
    in
    set a_wires a;
    set b_wires b
  in
  (* the baseline tape and the expected (fault-free) watch matrix *)
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
  (* tape_record round-trips through the packing *)
  Array.iteri
    (fun i w ->
      Alcotest.check logic_testable
        (Printf.sprintf "tape holds watch bit %d" i)
        expected.(cycles - 1).(i)
        (Fsim.tape_get tape ~cycle:(cycles - 1) ~node:w))
    watch;
  (* full-replay oracle: a fresh simulator on the flipped extract *)
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
      if !err < 0 then begin
        Fsim.clock sim;
        incr c
      end
    done;
    !err
  in
  let dsc = Fsim.make_dscratch () in
  let tested = ref 0 in
  for bit = 0 to Bitdb.num_bits db - 1 do
    if Fsim.plan_fault cone ex bit = Fsim.Path_patch then begin
      incr tested;
      Extract.apply_bit_flip ex bit;
      Fun.protect
        ~finally:(fun () -> Extract.apply_bit_flip ex bit)
        (fun () ->
          let seed = Fsim.patch_node cone ex bit in
          let derr, _cv, _det =
            Fsim.with_patch cone base ex bit (fun sim ->
                Fsim.diff_run ~forensics:false ~scratch:dsc ~tape ~base ~sim
                  ~seeds:(Fsim.Seed_node seed) ~watch ~base_watch:watch
                  ~expected ())
          in
          Alcotest.(check bool)
            (Printf.sprintf "bit %d: cone closed under successors" bit)
            true
            (Fsim.diff_cone_is_closed dsc base);
          Alcotest.(check bool)
            (Printf.sprintf "bit %d: seed inside the cone" bit)
            true
            (Array.exists (fun n -> n = seed) (Fsim.diff_cone dsc));
          Alcotest.(check int)
            (Printf.sprintf "bit %d: first error cycle" bit)
            (oracle ()) derr)
    end
  done;
  Alcotest.(check bool) "exercised some patch faults" true (!tested > 0)

(* --- campaign-level: diff on == diff off, all five paper designs over
   a shared fault sample --- *)

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

let test_diff_vs_rebuild_campaigns () =
  let ctx =
    Context.create ~scale:Context.Reduced ~seed:2 ~faults_per_design:120 ()
  in
  let total_diffed = ref 0 and total_converged = ref 0 in
  List.iter
    (fun strategy ->
      let name = Partition.name strategy in
      let run = Runs.implement_design ctx strategy in
      let d =
        Option.get
          (Runs.campaign_design ~workers:2 ~diff:true ctx run).Runs.campaign
      in
      let o =
        Option.get
          (Runs.campaign_design ~workers:2 ~diff:false ctx run).Runs.campaign
      in
      let s = d.Campaign.stats in
      total_diffed := !total_diffed + s.Campaign.diffed;
      total_converged := !total_converged + s.Campaign.converged;
      Alcotest.(check int)
        (name ^ ": differential engine covers every patch/reroute fault")
        (s.Campaign.patched + s.Campaign.rerouted)
        s.Campaign.diffed;
      Alcotest.(check bool)
        (name ^ ": converged <= diffed")
        true
        (s.Campaign.converged <= s.Campaign.diffed);
      Alcotest.(check int)
        (name ^ ": no-diff ran nothing differentially")
        0 o.Campaign.stats.Campaign.diffed;
      check_same_results name d o)
    Partition.all_paper_designs;
  Alcotest.(check bool) "diff engine exercised" true (!total_diffed > 0);
  Alcotest.(check bool) "some faults converged early" true
    (!total_converged > 0)

(* --- the fault-free pass that records a worker's baseline tape also
   checks the DUT against the golden device: a DUT computing (a+b)*-3
   against a golden (a+b)*5 fails the campaign with the first
   disagreeing output bit, whichever engine runs --- *)

let test_baseline_check () =
  let dev = Lazy.force dev and db = Lazy.force db in
  let impl = Impl.implement_exn ~seed:5 dev db (build_datapath ()) in
  let stimulus =
    {
      Campaign.cycles = 8;
      inputs = [ ("a", Array.init 8 (fun i -> i + 1)); ("b", Array.make 8 2) ];
    }
  in
  List.iter
    (fun (diff, batch_width) ->
      let label = Printf.sprintf "diff %b, batch width %d" diff batch_width in
      match
        Campaign.run ~workers:1 ~diff ~batch_width ~name:"dp" ~impl
          ~golden:(build_datapath ~k:5 ()) ~stimulus ~faults:[| 0 |] ()
      with
      | _ -> Alcotest.failf "%s: the faulty baseline passed" label
      | exception Failure msg ->
          Alcotest.(check string) label
            "Campaign dp: fault-free DUT disagrees with golden device at \
             cycle 1 (port \"r\" bit 3: expected 1, got 0)"
            msg)
    [ (true, 64); (true, 0); (false, 0) ]

let () =
  Alcotest.run "tmr_diff"
    [
      ( "tape",
        [ Alcotest.test_case "pack/unpack round-trip" `Quick test_tape_roundtrip ] );
      ( "engine",
        [
          Alcotest.test_case "patch faults: diff == oracle, cone closed"
            `Slow test_patch_diff_matches_oracle;
          Alcotest.test_case "campaigns: diff == full replay (5 designs)"
            `Slow test_diff_vs_rebuild_campaigns;
          Alcotest.test_case "baseline pass checks the DUT" `Quick
            test_baseline_check;
        ] );
    ]
