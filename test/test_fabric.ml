module Logic = Tmr_logic.Logic
module Srand = Tmr_logic.Srand
module Netlist = Tmr_netlist.Netlist
module Word = Tmr_netlist.Word
module Netsim = Tmr_netlist.Netsim
module Arch = Tmr_arch.Arch
module Device = Tmr_arch.Device
module Bitdb = Tmr_arch.Bitdb
module Bitstream = Tmr_arch.Bitstream
module Impl = Tmr_pnr.Impl
module Extract = Tmr_fabric.Extract
module Fsim = Tmr_fabric.Fsim

(* The device is expensive to build; share one per test binary. *)
let dev = lazy (Device.build Arch.small)
let db = lazy (Bitdb.build (Lazy.force dev))

let build_datapath () =
  let nl = Netlist.create () in
  let a = Word.input nl "a" ~width:6 in
  let b = Word.input nl "b" ~width:6 in
  let s = Word.add nl a b in
  let p = Word.mul_const nl s (-3) ~width:6 in
  let r = Word.reg nl p in
  Word.output nl "r" r;
  nl

let implement nl =
  Impl.implement_exn ~seed:5 (Lazy.force dev) (Lazy.force db) nl

(* Drive the fabric simulator with integer stimulus on port "a"/"b" and
   read port "r", mirroring Netsim semantics. *)
let fabric_run impl stimulus =
  let width_out =
    Array.length (Netlist.find_output_port impl.Impl.mapped "r")
  in
  let out_wires = Array.init width_out (Impl.output_pad_wire impl "r") in
  let in_wires port w =
    Array.init w (Impl.input_pad_wire impl port)
  in
  let a_wires = in_wires "a" 6 and b_wires = in_wires "b" 6 in
  let ex =
    Extract.create (Lazy.force dev) (Lazy.force db)
      (Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream)
  in
  let sim = Fsim.build ex ~watch_outputs:out_wires in
  Fsim.reset sim;
  List.map
    (fun (a, b) ->
      Array.iteri
        (fun i w -> Fsim.set_pad sim w (Logic.of_bool ((a asr i) land 1 = 1)))
        a_wires;
      Array.iteri
        (fun i w -> Fsim.set_pad sim w (Logic.of_bool ((b asr i) land 1 = 1)))
        b_wires;
      Fsim.step sim;
      let bits = Array.map (fun w -> Fsim.read sim w) out_wires in
      let rec collect i acc =
        if i >= Array.length bits then Some acc
        else
          match bits.(i) with
          | Logic.X -> None
          | Logic.One -> collect (i + 1) (acc lor (1 lsl i))
          | Logic.Zero -> collect (i + 1) acc
      in
      match collect 0 0 with
      | None -> None
      | Some v ->
          if v land (1 lsl (Array.length bits - 1)) <> 0 then
            Some (v - (1 lsl Array.length bits))
          else Some v)
    stimulus

let netsim_run nl stimulus =
  let sim = Netsim.create nl in
  Netsim.reset sim;
  List.map
    (fun (a, b) ->
      Netsim.set_input sim "a" a;
      Netsim.set_input sim "b" b;
      Netsim.step sim;
      Netsim.output_int sim "r")
    stimulus

let test_fabric_matches_netsim () =
  let nl = build_datapath () in
  let impl = implement nl in
  let rng = Srand.create 99 in
  let stimulus =
    List.init 24 (fun _ -> (Srand.int rng 64 - 32, Srand.int rng 64 - 32))
  in
  let golden = netsim_run impl.Impl.mapped stimulus in
  let fabric = fabric_run impl stimulus in
  Alcotest.(check (list (option int))) "fabric == netlist" golden fabric

let test_fabric_no_loops_in_golden () =
  let nl = build_datapath () in
  let impl = implement nl in
  let out_wires =
    Array.init 6 (Impl.output_pad_wire impl "r")
  in
  let ex =
    Extract.create (Lazy.force dev) (Lazy.force db)
      (Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream)
  in
  let sim = Fsim.build ex ~watch_outputs:out_wires in
  Alcotest.(check bool) "golden config has no comb loop" false
    (Fsim.has_comb_loop sim)

(* The two shared constant nodes: the last ids of a fresh build, reading
   Zero and One from the first eval on, and unread by the golden graph
   (only a fault overlay ever points at them). *)
let test_constant_nodes () =
  let impl = implement (build_datapath ()) in
  let ex =
    Extract.create (Lazy.force dev) (Lazy.force db)
      (Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream)
  in
  let sim =
    Fsim.build ex ~watch_outputs:(Array.init 6 (Impl.output_pad_wire impl "r"))
  in
  let n = Fsim.num_nodes sim in
  let zero, one = Fsim.const_nodes sim in
  Alcotest.(check (pair int int)) "last two node ids" (n - 2, n - 1) (zero, one);
  Fsim.reset sim;
  Fsim.eval sim;
  Alcotest.(check char) "zero node reads 0" '0'
    (Logic.to_char (Fsim.node_value sim zero));
  Alcotest.(check char) "one node reads 1" '1'
    (Logic.to_char (Fsim.node_value sim one));
  let off, _ = Fsim.reader_csr sim in
  List.iter
    (fun c ->
      Alcotest.(check int)
        (Printf.sprintf "node %d has no readers" c)
        0
        (off.(c + 1) - off.(c)))
    [ zero; one ]

let test_open_fault_breaks_output () =
  (* Turning OFF a pip of a routed net must corrupt (X) or change some
     output at some point, or at least never crash. *)
  let nl = build_datapath () in
  let impl = implement nl in
  let bs = Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream in
  let ex = Extract.create (Lazy.force dev) (Lazy.force db) bs in
  (* pick an ON routing bit: first pip of the widest net *)
  let pip =
    let np = impl.Impl.route.Tmr_pnr.Route.net_pips in
    let rec find i =
      if i >= Array.length np then Alcotest.fail "no routed pips"
      else if Array.length np.(i) > 0 then np.(i).(0)
      else find (i + 1)
    in
    find 0
  in
  let addr = Bitdb.pip_bit (Lazy.force db) pip in
  Extract.apply_bit_flip ex addr;
  let out_wires = Array.init 6 (Impl.output_pad_wire impl "r") in
  let sim = Fsim.build ex ~watch_outputs:out_wires in
  Fsim.reset sim;
  Fsim.step sim;
  (* just exercising: the sim must be buildable and steppable with the fault *)
  Alcotest.(check bool) "sim has nodes" true (Fsim.num_nodes sim > 0);
  (* flip back: involution restores the golden image *)
  Extract.apply_bit_flip ex addr;
  Alcotest.(check (list int)) "bitstream restored" []
    (Bitstream.diff bs impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream)

let test_lut_fault_changes_function () =
  let nl = build_datapath () in
  let impl = implement nl in
  let stimulus = List.init 12 (fun i -> ((i * 5) mod 31 - 15, (i * 7) mod 31 - 15)) in
  let golden = netsim_run impl.Impl.mapped stimulus in
  (* flip one LUT bit of the first used bel *)
  let bel = impl.Impl.place.Tmr_pnr.Place.site_bel.(0) in
  let addr = Bitdb.lut_bit (Lazy.force db) ~bel ~idx:5 in
  let bs = Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream in
  let ex = Extract.create (Lazy.force dev) (Lazy.force db) bs in
  Extract.apply_bit_flip ex addr;
  let out_wires = Array.init 6 (Impl.output_pad_wire impl "r") in
  let sim = Fsim.build ex ~watch_outputs:out_wires in
  Fsim.reset sim;
  let faulty =
    List.map
      (fun (a, b) ->
        Array.iteri
          (fun i w ->
            Fsim.set_pad sim
              (Impl.input_pad_wire impl "a" i)
              (Logic.of_bool ((a asr i) land 1 = 1));
            ignore w)
          (Array.make 6 0);
        Array.iteri
          (fun i w ->
            Fsim.set_pad sim
              (Impl.input_pad_wire impl "b" i)
              (Logic.of_bool ((b asr i) land 1 = 1));
            ignore w)
          (Array.make 6 0);
        Fsim.step sim;
        let bits = Array.init 6 (fun i -> Fsim.read sim out_wires.(i)) in
        Array.to_list (Array.map Logic.to_char bits))
      stimulus
  in
  (* The corrupted LUT must disagree with golden on at least one vector
     (idx 5 of a used bel's table is exercised by this stimulus with very
     high probability; if not, the test would be vacuous, so assert). *)
  let golden_chars =
    List.map
      (function
        | Some v ->
            List.init 6 (fun i ->
                if (v asr i) land 1 = 1 then '1' else '0')
        | None -> List.init 6 (fun _ -> 'X'))
      golden
  in
  Alcotest.(check bool) "fault visible" true (faulty <> golden_chars)

(* Run the fabric through the stimulus and compare against golden; returns
   true when every cycle matches. *)
let matches_golden impl ex stimulus =
  let out_wires = Array.init 6 (Impl.output_pad_wire impl "r") in
  let sim = Fsim.build ex ~watch_outputs:out_wires in
  Fsim.reset sim;
  let golden = netsim_run impl.Impl.mapped stimulus in
  List.for_all2
    (fun (a, b) expected ->
      Array.iteri
        (fun i w ->
          Fsim.set_pad sim (Impl.input_pad_wire impl "a" i)
            (Logic.of_bool ((a asr i) land 1 = 1));
          ignore w)
        (Array.make 6 0);
      Array.iteri
        (fun i w ->
          Fsim.set_pad sim (Impl.input_pad_wire impl "b" i)
            (Logic.of_bool ((b asr i) land 1 = 1));
          ignore w)
        (Array.make 6 0);
      Fsim.step sim;
      let bits = Array.map (fun w -> Fsim.read sim w) out_wires in
      let rec collect i acc =
        if i >= Array.length bits then Some acc
        else
          match bits.(i) with
          | Logic.X -> None
          | Logic.One -> collect (i + 1) (acc lor (1 lsl i))
          | Logic.Zero -> collect (i + 1) acc
      in
      let v =
        match collect 0 0 with
        | None -> None
        | Some v ->
            if v land (1 lsl 5) <> 0 then Some (v - 64) else Some v
      in
      v = expected)
    stimulus golden

let fresh_extract impl =
  Extract.create (Lazy.force dev) (Lazy.force db)
    (Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream)

let stimulus_of_seed seed =
  let rng = Srand.create seed in
  List.init 16 (fun _ -> (Srand.int rng 64 - 32, Srand.int rng 64 - 32))

let test_ce_freeze_corrupts () =
  let impl = implement (build_datapath ()) in
  (* find a registered site's bel and freeze its clock enable *)
  let bel = ref (-1) in
  Array.iteri
    (fun s site ->
      if site.Tmr_pnr.Pack.registered && !bel < 0 then
        bel := impl.Impl.place.Tmr_pnr.Place.site_bel.(s))
    impl.Impl.pack.Tmr_pnr.Pack.sites;
  Alcotest.(check bool) "found registered bel" true (!bel >= 0);
  let ex = fresh_extract impl in
  Extract.apply_bit_flip ex (Bitdb.ce_inv_bit (Lazy.force db) ~bel:!bel);
  Alcotest.(check bool) "frozen register corrupts outputs" false
    (matches_golden impl ex (stimulus_of_seed 31))

let test_in_inv_corrupts () =
  let impl = implement (build_datapath ()) in
  (* invert a used input pin of some used site *)
  let target = ref None in
  Array.iteri
    (fun s site ->
      if !target = None then
        Array.iteri
          (fun j p ->
            if p >= 0 && !target = None then
              target := Some (impl.Impl.place.Tmr_pnr.Place.site_bel.(s), j))
          site.Tmr_pnr.Pack.pins)
    impl.Impl.pack.Tmr_pnr.Pack.sites;
  match !target with
  | None -> Alcotest.fail "no used pin"
  | Some (bel, pin) ->
      let ex = fresh_extract impl in
      Extract.apply_bit_flip ex (Bitdb.in_inv_bit (Lazy.force db) ~bel ~pin);
      Alcotest.(check bool) "inverted pin corrupts outputs" false
        (matches_golden impl ex (stimulus_of_seed 32))

let test_pad_disable_corrupts () =
  let impl = implement (build_datapath ()) in
  let cell = (Tmr_netlist.Netlist.find_input_port impl.Impl.mapped "a").(0) in
  let pad = impl.Impl.place.Tmr_pnr.Place.pad_of_cell.(cell) in
  let ex = fresh_extract impl in
  Extract.apply_bit_flip ex (Bitdb.pad_enable_bit (Lazy.force db) ~pad);
  Alcotest.(check bool) "disabled input pad corrupts outputs" false
    (matches_golden impl ex (stimulus_of_seed 33))

let qcheck_flip_involution =
  QCheck.Test.make ~count:40
    ~name:"double flip restores golden behaviour (any DUT bit)"
    (QCheck.make QCheck.Gen.int)
    (fun salt ->
      let impl = implement (build_datapath ()) in
      let bits = impl.Impl.bitgen.Tmr_pnr.Bitgen.dut_bits in
      let bit = bits.(abs salt mod Array.length bits) in
      let ex = fresh_extract impl in
      Extract.apply_bit_flip ex bit;
      Extract.apply_bit_flip ex bit;
      matches_golden impl ex (stimulus_of_seed 34))

let test_congestion_report () =
  let impl = implement (build_datapath ()) in
  let cong =
    Tmr_pnr.Congestion.analyze (Lazy.force dev) impl.Impl.route
      impl.Impl.mapped impl.Impl.pack
  in
  Alcotest.(check bool) "wirelength positive" true
    (cong.Tmr_pnr.Congestion.total_wirelength > 0);
  Alcotest.(check bool) "peak utilization sane" true
    (cong.Tmr_pnr.Congestion.max_utilization > 0.0
    && cong.Tmr_pnr.Congestion.max_utilization <= 1.0);
  let hm = Tmr_pnr.Congestion.heatmap cong in
  let p = (Lazy.force dev).Tmr_arch.Device.params in
  Alcotest.(check int) "heatmap size"
    (p.Tmr_arch.Arch.rows * (p.Tmr_arch.Arch.cols + 1))
    (String.length hm);
  Alcotest.(check bool) "summary mentions wirelength" true
    (String.length (Tmr_pnr.Congestion.summary cong) > 0)

(* --- the lane backend's LUT equals the scalar LUT lane by lane: one
   full plane word, each lane with its own pin values in {0, 1, X}, unused
   pins, pin inversion and truth table (or every lane sharing lane 0's
   table, the base-table kernel) --- *)

module Lanes = Tmr_fabric.Fsim_backend.Lanes
module Scalar = Tmr_fabric.Fsim_backend.Scalar

(* per lane: pin value codes (0 Zero, 1 One, 2 X), unused-pin mask,
   inversion mask, truth table *)
let lanes_lut_gen =
  QCheck.Gen.(
    pair bool
      (array_size (return Lanes.word_bits)
         (quad
            (array_size (return 4) (int_bound 2))
            (int_bound 15) (int_bound 15) (int_bound 0xffff))))

let qcheck_lanes_lut =
  QCheck.Test.make ~count:500 ~name:"Lanes LUT == Scalar.lut_eval per lane"
    (QCheck.make lanes_lut_gen) (fun (shared, lanes) ->
      let logic k = [| Logic.Zero; Logic.One; Logic.X |].(k) in
      let table li =
        let _, _, _, tb = lanes.(if shared then 0 else li) in
        tb
      in
      let lane_bits f =
        let w = ref 0 in
        Array.iteri (fun li ln -> if f li ln then w := !w lor (1 lsl li)) lanes;
        !w
      in
      let ph = Array.make 4 0 and pl = Array.make 4 0 in
      for j = 0 to 3 do
        (* an unused pin's value planes are arbitrary: the mask decides *)
        let h = lane_bits (fun _ (vals, _, _, _) -> vals.(j) <> 0) in
        let l = lane_bits (fun _ (vals, _, _, _) -> vals.(j) <> 1) in
        let im = lane_bits (fun _ (_, _, inv, _) -> (inv lsr j) land 1 = 1) in
        let unused = lane_bits (fun _ (_, un, _, _) -> (un lsr j) land 1 = 1) in
        ph.(j) <- Lanes.pin_h ~h ~l ~im ~unused;
        pl.(j) <- Lanes.pin_l ~h ~l ~im ~unused
      done;
      let dh = Array.make 2 0 and dl = Array.make 2 0 in
      if shared then
        (* stale scratch must not leak into the result *)
        Lanes.lut_words (Array.make 16 Lanes.full) (table 0) ph.(0) pl.(0)
          ph.(1) pl.(1) ph.(2) pl.(2) ph.(3) pl.(3) dh dl 1
      else begin
        (* the leaves sit behind 16 words of noise: [at] must be honoured *)
        let leaves =
          Array.init 32 (fun i ->
              if i < 16 then Lanes.full
              else lane_bits (fun li _ -> (table li lsr (i - 16)) land 1 = 1))
        in
        Lanes.lut_leaves ~ph ~pl ~leaves ~at:16 ~dh ~dl 1
      end;
      Array.for_all Fun.id
        (Array.mapi
           (fun li (vals, unused, inv, _) ->
             let pins =
               Array.init 4 (fun j -> if (unused lsr j) land 1 = 1 then -1 else j)
             in
             Logic.equal
               (Lanes.lane ~h:dh.(1) ~l:dl.(1) li)
               (Scalar.lut_eval ~values:(Array.map logic vals) ~pins
                  ~table:(table li) ~inv))
           lanes))

(* the same with one table and one pin inversion for every lane, folded
   into the table: [lut_node] over the raw planes, unused pins reading a
   constant Zero, equals the scalar LUT lane by lane *)
let qcheck_lanes_lut_node =
  QCheck.Test.make ~count:500 ~name:"Lanes.lut_node of the folded table"
    (QCheck.make
       QCheck.Gen.(
         quad
           (array_size (return Lanes.word_bits)
              (array_size (return 4) (int_bound 2)))
           (int_bound 15) (int_bound 15) (int_bound 0xffff)))
    (fun (vals, unused, inv, table) ->
      let logic k = [| Logic.Zero; Logic.One; Logic.X |].(k) in
      let lane_bits f =
        let w = ref 0 in
        Array.iteri (fun li v -> if f v then w := !w lor (1 lsl li)) vals;
        !w
      in
      (* planes at 2j; a constant Zero at 8 *)
      let h = Array.make 10 0 and l = Array.make 10 0 in
      for j = 0 to 3 do
        h.(2 * j) <- lane_bits (fun v -> v.(j) <> 0);
        l.(2 * j) <- lane_bits (fun v -> v.(j) <> 1)
      done;
      l.(8) <- Lanes.full;
      let used = lnot unused land 15 in
      let p j = if (unused lsr j) land 1 = 1 then 8 else 2 * j in
      let dh = Array.make 2 0 and dl = Array.make 2 0 in
      Lanes.lut_node (Array.make 16 Lanes.full)
        ~table:(Lanes.fold_inversion ~table ~inv:(inv land used))
        ~h ~l (p 0) (p 1) (p 2) (p 3) ~dh ~dl 1;
      let pins =
        Array.init 4 (fun j -> if (unused lsr j) land 1 = 1 then -1 else j)
      in
      Array.for_all Fun.id
        (Array.mapi
           (fun li v ->
             Logic.equal
               (Lanes.lane ~h:dh.(1) ~l:dl.(1) li)
               (Scalar.lut_eval ~values:(Array.map logic v) ~pins ~table ~inv))
           vals))

let () =
  Alcotest.run "tmr_fabric"
    [
      ( "fabric",
        [
          Alcotest.test_case "fabric sim equals netlist sim (golden)" `Quick
            test_fabric_matches_netsim;
          Alcotest.test_case "no comb loops in golden config" `Quick
            test_fabric_no_loops_in_golden;
          Alcotest.test_case "shared constant nodes" `Quick test_constant_nodes;
          Alcotest.test_case "open fault: sim robust + flip is involution"
            `Quick test_open_fault_breaks_output;
          Alcotest.test_case "lut fault changes function" `Quick
            test_lut_fault_changes_function;
        ] );
      ( "fault-semantics",
        [
          Alcotest.test_case "clock-enable freeze corrupts" `Quick
            test_ce_freeze_corrupts;
          Alcotest.test_case "pin inversion corrupts" `Quick
            test_in_inv_corrupts;
          Alcotest.test_case "pad disable corrupts" `Quick
            test_pad_disable_corrupts;
          QCheck_alcotest.to_alcotest qcheck_flip_involution;
          Alcotest.test_case "congestion report" `Quick test_congestion_report;
        ] );
      ( "lanes",
        [
          QCheck_alcotest.to_alcotest qcheck_lanes_lut;
          QCheck_alcotest.to_alcotest qcheck_lanes_lut_node;
        ] );
    ]
