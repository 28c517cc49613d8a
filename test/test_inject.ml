module Logic = Tmr_logic.Logic
module Arch = Tmr_arch.Arch
module Device = Tmr_arch.Device
module Bitdb = Tmr_arch.Bitdb
module Bitstream = Tmr_arch.Bitstream
module Partition = Tmr_core.Partition
module Impl = Tmr_pnr.Impl
module Faultlist = Tmr_inject.Faultlist
module Campaign = Tmr_inject.Campaign
module Classify = Tmr_inject.Classify
module Fir = Tmr_filter.Fir

let dev = lazy (Device.build Arch.small)
let db = lazy (Bitdb.build (Lazy.force dev))

let impl_of strategy =
  let nl = Tmr_filter.Designs.build ~params:Fir.tiny_params strategy in
  Impl.implement_exn ~seed:3 (Lazy.force dev) (Lazy.force db) nl

let standard_impl = lazy (impl_of Partition.Unprotected)
let tmr_impl = lazy (impl_of Partition.Medium_partition)

let stimulus cycles =
  { Campaign.cycles;
    inputs = [ ("x", Fir.stimulus ~cycles ~seed:7 Fir.tiny_params) ] }

let golden_nl = lazy (Fir.build Fir.tiny_params)

let test_faultlist_sane () =
  let impl = Lazy.force standard_impl in
  let fl = Faultlist.of_impl impl in
  Alcotest.(check bool) "non-empty" true (Array.length fl.Faultlist.bits > 0);
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 fl.Faultlist.by_class in
  Alcotest.(check int) "by_class sums to total" (Array.length fl.Faultlist.bits)
    total;
  (* every listed ON routing bit really is programmed *)
  Array.iter
    (fun b ->
      Alcotest.(check bool) "in range" true
        (b >= 0 && b < Bitdb.num_bits (Lazy.force db)))
    fl.Faultlist.bits

let test_faultlist_sample_deterministic () =
  let impl = Lazy.force standard_impl in
  let fl = Faultlist.of_impl impl in
  let s1 = Faultlist.sample fl ~seed:5 ~count:50 in
  let s2 = Faultlist.sample fl ~seed:5 ~count:50 in
  Alcotest.(check (array int)) "same seed same sample" s1 s2;
  let s3 = Faultlist.sample fl ~seed:6 ~count:50 in
  Alcotest.(check bool) "different seed differs" true (s1 <> s3);
  (* distinct *)
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun b ->
      Alcotest.(check bool) "distinct" false (Hashtbl.mem tbl b);
      Hashtbl.add tbl b ())
    s1

let test_classify_invariants () =
  let impl = Lazy.force standard_impl in
  let fl = Faultlist.of_impl impl in
  let d = Lazy.force dev and database = Lazy.force db in
  Array.iter
    (fun bit ->
      let eff = Classify.classify impl bit in
      match Bitdb.resource database bit with
      | Bitdb.Pip p ->
          if Bitstream.get impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream bit then
            Alcotest.(check string) "on pip is open" "Open" (Classify.name eff)
          else begin
            let used = impl.Impl.bitgen.Tmr_pnr.Bitgen.used_wires in
            let s = d.Device.pip_src.(p) and dd = d.Device.pip_dst.(p) in
            if d.Device.pip_bidir.(p) && used.(s) && used.(dd) then
              Alcotest.(check string) "used-used short is bridge" "Bridge"
                (Classify.name eff)
          end
      | Bitdb.Lut_bit (bel, _) ->
          if impl.Impl.bitgen.Tmr_pnr.Bitgen.used_bels.(bel) then
            Alcotest.(check string) "lut bit" "LUT" (Classify.name eff)
      | Bitdb.Ff_init _ | Bitdb.Sr_inv _ ->
          Alcotest.(check bool) "init class" true
            (Classify.name eff = "Initialization" || Classify.name eff = "Others")
      | Bitdb.Out_sel _ | Bitdb.Ce_inv _ | Bitdb.In_inv _ | Bitdb.Pad_enable _
      | Bitdb.Pad_cfg _ ->
          Alcotest.(check bool) "custom class" true
            (Classify.name eff = "MUX" || Classify.name eff = "Others"))
    fl.Faultlist.bits

let test_classify_antenna_and_conflict () =
  (* a routed design must expose both "new driver onto a used node" cases:
     antennas (floating source) and conflicts (second used source) — and
     every such verdict must re-derive from the golden configuration *)
  let d = Lazy.force dev and database = Lazy.force db in
  let antennas = ref 0 and conflicts = ref 0 in
  List.iter
    (fun impl ->
      let bg = impl.Impl.bitgen in
      let used = bg.Tmr_pnr.Bitgen.used_wires in
      let fl = Faultlist.of_impl impl in
      Array.iter
        (fun bit ->
          let off_pip () =
            Alcotest.(check bool) "pip bit is off in the golden image" false
              (Bitstream.get bg.Tmr_pnr.Bitgen.bitstream bit);
            match Bitdb.resource database bit with
            | Bitdb.Pip p -> p
            | _ -> Alcotest.fail "antenna/conflict must be a pip bit"
          in
          match Classify.classify impl bit with
          | Classify.Antenna_effect ->
              incr antennas;
              let p = off_pip () in
              let s = d.Device.pip_src.(p) and dst = d.Device.pip_dst.(p) in
              if d.Device.pip_bidir.(p) then
                Alcotest.(check bool) "pass antenna: exactly one end used"
                  true
                  (used.(s) <> used.(dst))
              else begin
                Alcotest.(check bool) "buffered antenna: destination used"
                  true used.(dst);
                Alcotest.(check bool) "buffered antenna: source floating"
                  false used.(s)
              end
          | Classify.Conflict_effect ->
              incr conflicts;
              let p = off_pip () in
              let s = d.Device.pip_src.(p) and dst = d.Device.pip_dst.(p) in
              Alcotest.(check bool) "conflict pip is buffered" false
                d.Device.pip_bidir.(p);
              Alcotest.(check bool) "conflict: both ends used" true
                (used.(s) && used.(dst))
          | _ -> ())
        fl.Faultlist.bits)
    [ Lazy.force standard_impl; Lazy.force tmr_impl ];
  Alcotest.(check bool) "classification produces antenna bits" true
    (!antennas > 0);
  Alcotest.(check bool) "classification produces conflict bits" true
    (!conflicts > 0)

let test_campaign_standard_vs_tmr () =
  let stim = stimulus 20 in
  let run impl =
    let fl = Faultlist.of_impl impl in
    let faults = Faultlist.sample fl ~seed:11 ~count:250 in
    Campaign.run ~name:"t" ~impl ~golden:(Lazy.force golden_nl) ~stimulus:stim
      ~faults ()
  in
  let c_std = run (Lazy.force standard_impl) in
  let c_tmr = run (Lazy.force tmr_impl) in
  Alcotest.(check bool)
    (Printf.sprintf "standard (%.1f%%) much worse than TMR (%.1f%%)"
       (Campaign.wrong_percent c_std) (Campaign.wrong_percent c_tmr))
    true
    (Campaign.wrong_percent c_std > 5.0 *. Campaign.wrong_percent c_tmr);
  Alcotest.(check bool) "standard has many wrong answers" true
    (Campaign.wrong_percent c_std > 20.0);
  (* every result carries a classification and silent faults have no error
     cycle *)
  Array.iter
    (fun r ->
      match r.Campaign.outcome with
      | Campaign.Silent ->
          Alcotest.(check int) "silent no cycle" (-1) r.Campaign.first_error_cycle
      | Campaign.Wrong_answer ->
          Alcotest.(check bool) "error cycle set" true
            (r.Campaign.first_error_cycle >= 0))
    c_std.Campaign.results

let test_campaign_no_lut_errors_in_tmr () =
  (* the paper: "No upsets in the LUTs could provoke an error in the TMR" *)
  let impl = Lazy.force tmr_impl in
  let fl = Faultlist.of_impl impl in
  let lut_bits =
    Array.of_list
      (List.filter
         (fun b -> Bitdb.class_of_bit (Lazy.force db) b = Bitdb.Class_lut)
         (Array.to_list fl.Faultlist.bits))
  in
  let subset = Array.sub lut_bits 0 (min 150 (Array.length lut_bits)) in
  let c =
    Campaign.run ~name:"lut" ~impl ~golden:(Lazy.force golden_nl)
      ~stimulus:(stimulus 20) ~faults:subset ()
  in
  Alcotest.(check int) "no LUT upset defeats TMR" 0 c.Campaign.wrong

let test_campaign_golden_matches_golden_module () =
  let stim = stimulus 20 in
  let outs = Campaign.golden_outputs (Lazy.force golden_nl) stim in
  let y = List.assoc "y" outs in
  let expected =
    Tmr_filter.Golden.run Fir.tiny_params (List.assoc "x" stim.Campaign.inputs)
  in
  Array.iteri
    (fun cycle bits ->
      let v = ref 0 in
      Array.iteri
        (fun i b -> if Logic.equal b Logic.One then v := !v lor (1 lsl i))
        bits;
      let signed =
        let w = Array.length bits in
        if !v land (1 lsl (w - 1)) <> 0 then !v - (1 lsl w) else !v
      in
      Alcotest.(check int)
        (Printf.sprintf "cycle %d" cycle)
        expected.(cycle) signed)
    y

let test_campaign_rejects_missing_port () =
  let impl = Lazy.force standard_impl in
  Alcotest.(check bool) "bad stimulus port" true
    (try
       ignore
         (Campaign.run ~name:"bad" ~impl ~golden:(Lazy.force golden_nl)
            ~stimulus:
              { Campaign.cycles = 4; inputs = [ ("nope", Array.make 4 0) ] }
            ~faults:[||] ());
       false
     with Invalid_argument _ -> true)

let test_scrub_accumulation () =
  let stim = stimulus 16 in
  let measure impl =
    let fl = Tmr_inject.Faultlist.of_impl impl in
    Tmr_inject.Scrub.accumulate ~trials:8 ~cap:30 ~seed:4 ~impl
      ~golden:(Lazy.force golden_nl) ~stimulus:stim ~faultlist:fl ()
  in
  let std = measure (Lazy.force standard_impl) in
  let tmr = measure (Lazy.force tmr_impl) in
  Alcotest.(check bool)
    (Printf.sprintf "TMR absorbs more accumulated upsets (%.1f) than standard (%.1f)"
       tmr.Tmr_inject.Scrub.mean std.Tmr_inject.Scrub.mean)
    true
    (tmr.Tmr_inject.Scrub.mean > std.Tmr_inject.Scrub.mean);
  Alcotest.(check int) "trial count" 8
    (Array.length std.Tmr_inject.Scrub.upsets_to_failure);
  Array.iter
    (fun v ->
      Alcotest.(check bool) "within cap+1" true (v >= 1 && v <= 31))
    std.Tmr_inject.Scrub.upsets_to_failure

let test_scrub_deterministic () =
  let stim = stimulus 16 in
  let impl = Lazy.force tmr_impl in
  let fl = Tmr_inject.Faultlist.of_impl impl in
  let run () =
    (Tmr_inject.Scrub.accumulate ~trials:4 ~cap:20 ~seed:9 ~impl
       ~golden:(Lazy.force golden_nl) ~stimulus:stim ~faultlist:fl ())
      .Tmr_inject.Scrub.upsets_to_failure
  in
  Alcotest.(check (array int)) "same seed same trace" (run ()) (run ())

(* a trial whose fault list runs out before the cap survives: two bits
   of an unused LUT (silent however many are injected) and an empty
   list end every trial at [cap + 1] *)
let test_scrub_list_exhausted () =
  let impl = Lazy.force standard_impl and db = Lazy.force db in
  let used = (Tmr_inject.Forensics.attrib_of_impl impl).Tmr_inject.Forensics.bel_used in
  let unused_lut bit =
    match Bitdb.resource db bit with
    | Bitdb.Lut_bit (b, _) -> not used.(b)
    | _ -> false
  in
  let two =
    Array.of_seq
      (Seq.take 2 (Seq.filter unused_lut (Seq.init (Bitdb.num_bits db) Fun.id)))
  in
  Alcotest.(check int) "two unused LUT bits" 2 (Array.length two);
  let accumulate bits =
    Tmr_inject.Scrub.accumulate ~trials:3 ~cap:10 ~seed:4 ~impl
      ~golden:(Lazy.force golden_nl) ~stimulus:(stimulus 16)
      ~faultlist:{ Faultlist.bits; by_class = [] } ()
  in
  List.iter
    (fun (label, bits) ->
      let r = accumulate bits in
      Alcotest.(check (array int)) (label ^ ": every trial survives")
        [| 11; 11; 11 |] r.Tmr_inject.Scrub.upsets_to_failure;
      Alcotest.(check int) (label ^ ": survived") 3 r.Tmr_inject.Scrub.survived)
    [ ("two silent bits", two); ("empty list", [||]) ]

let () =
  Alcotest.run "tmr_inject"
    [
      ( "scrub",
        [
          Alcotest.test_case "accumulation favours TMR" `Quick
            test_scrub_accumulation;
          Alcotest.test_case "deterministic" `Quick test_scrub_deterministic;
          Alcotest.test_case "a trial that injects the whole list survives"
            `Quick test_scrub_list_exhausted;
        ] );
      ( "faultlist",
        [
          Alcotest.test_case "sane" `Quick test_faultlist_sane;
          Alcotest.test_case "deterministic sampling" `Quick
            test_faultlist_sample_deterministic;
        ] );
      ( "classify",
        [
          Alcotest.test_case "class invariants" `Quick test_classify_invariants;
          Alcotest.test_case "antenna and conflict bits arise and re-derive"
            `Quick test_classify_antenna_and_conflict;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "standard vs TMR" `Quick
            test_campaign_standard_vs_tmr;
          Alcotest.test_case "no LUT errors in TMR" `Quick
            test_campaign_no_lut_errors_in_tmr;
          Alcotest.test_case "golden outputs match software model" `Quick
            test_campaign_golden_matches_golden_module;
          Alcotest.test_case "missing port rejected" `Quick
            test_campaign_rejects_missing_port;
        ] );
    ]
