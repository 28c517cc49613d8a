(* Pluggable voter library: the four-way detected-vs-silent verdict
   taxonomy is deterministic and engine-invariant — batched == scalar
   differential == full rebuild, including detection flags and
   latencies — on all five paper designs built with the detecting
   voter; and the plain-majority voter reproduces the historical
   (pre-library) campaigns bit-for-bit. *)

module Voter = Tmr_core.Voter
module Partition = Tmr_core.Partition
module Campaign = Tmr_inject.Campaign
module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs

let result_testable =
  Alcotest.testable
    (fun ppf (r : Campaign.fault_result) ->
      Format.fprintf ppf "{bit=%d; wrong=%b; effect=%s; err=%d; det=%d}"
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

(* --- library surface: names, detection flags, cost model --- *)

let test_library () =
  Alcotest.(check int) "three variants" 3 (List.length Voter.all);
  List.iter
    (fun v ->
      let n = Voter.name v in
      (match Voter.of_name n with
      | Some v' ->
          Alcotest.(check string)
            (n ^ ": of_name/name round-trip")
            n (Voter.name v')
      | None -> Alcotest.failf "%s: of_name failed" n);
      Alcotest.(check bool)
        (n ^ ": description non-empty")
        true
        (String.length (Voter.description v) > 0);
      let c = Voter.cost v in
      Alcotest.(check bool) (n ^ ": vote cells") true (c.Voter.vote_cells >= 1);
      Alcotest.(check bool) (n ^ ": levels") true (c.Voter.levels >= 1);
      Alcotest.(check bool) (n ^ ": delay") true (c.Voter.delay_ns > 0.0);
      Alcotest.(check bool)
        (n ^ ": detect cells iff detecting")
        (Voter.has_detection v)
        (c.Voter.detect_cells > 0))
    Voter.all;
  Alcotest.(check (option reject)) "unknown voter name" None
    (Voter.of_name "nonesuch");
  Alcotest.(check int) "three detect ports" 3 (List.length Voter.detect_ports);
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ ": is_detect_port") true
        (Voter.is_detect_port p))
    Voter.detect_ports

(* Fold the per-fault verdicts by hand and compare with the campaign's
   own counters; check the four classes partition the injected set. *)
let check_taxonomy name (c : Campaign.t) =
  let dc = Campaign.detection_counts c in
  Alcotest.(check int)
    (name ^ ": verdict classes sum to injected")
    c.Campaign.injected
    (dc.Campaign.dc_silent_correct + dc.Campaign.dc_detected_corrected
   + dc.Campaign.dc_detected_wrong + dc.Campaign.dc_silent_wrong);
  let sc = ref 0 and dcorr = ref 0 and dw = ref 0 and sw = ref 0 in
  Array.iter
    (fun r ->
      match Campaign.verdict_of r with
      | Campaign.Silent_correct -> incr sc
      | Campaign.Detected_corrected -> incr dcorr
      | Campaign.Detected_wrong -> incr dw
      | Campaign.Silent_wrong -> incr sw)
    c.Campaign.results;
  Alcotest.(check int) (name ^ ": silent-correct") !sc
    dc.Campaign.dc_silent_correct;
  Alcotest.(check int) (name ^ ": detected-corrected") !dcorr
    dc.Campaign.dc_detected_corrected;
  Alcotest.(check int) (name ^ ": detected-wrong") !dw
    dc.Campaign.dc_detected_wrong;
  Alcotest.(check int) (name ^ ": silent-wrong") !sw dc.Campaign.dc_silent_wrong

(* --- detecting voter: taxonomy engine-invariant on all five designs --- *)

let test_detecting_engine_invariance () =
  let ctx =
    let base =
      Context.create ~scale:Context.Reduced ~seed:11 ~faults_per_design:60 ()
    in
    (* the detecting voter's disagreement cells push max-partition one
       bel past the stock small device — grow it by one tile row *)
    let arch = Tmr_arch.Arch.scaled Tmr_arch.Arch.small ~rows:13 ~cols:14 in
    let dev = Tmr_arch.Device.build arch in
    let db = Tmr_arch.Bitdb.build dev in
    { base with Context.dev; db }
  in
  let saw_detection = ref false in
  List.iter
    (fun strategy ->
      let name = Partition.name strategy ^ "/detecting" in
      let run = Runs.implement_design ~voter:Voter.Detecting ctx strategy in
      let campaign ~cone_skip =
        Option.get
          (Runs.campaign_design ~workers:2 ~cone_skip ctx run).Runs.campaign
      in
      let batched = campaign ~cone_skip:true in
      let rebuild = campaign ~cone_skip:false in
      check_same_results (name ^ ": engine vs rebuild oracle") batched rebuild;
      check_taxonomy name batched;
      let dc = Campaign.detection_counts batched in
      if strategy = Partition.Unprotected then begin
        (* no voters, so no detection logic: every fault is silent *)
        Alcotest.(check int) (name ^ ": no detected-corrected") 0
          dc.Campaign.dc_detected_corrected;
        Alcotest.(check int) (name ^ ": no detected-wrong") 0
          dc.Campaign.dc_detected_wrong;
        Array.iter
          (fun r ->
            Alcotest.(check int)
              (name ^ ": detect_cycle is -1 without voters")
              (-1) r.Campaign.detect_cycle)
          batched.Campaign.results
      end
      else if dc.Campaign.dc_detected_corrected + dc.Campaign.dc_detected_wrong
              > 0
      then saw_detection := true;
      (* a fired flag always has a cycle, a silent one never does *)
      Array.iter
        (fun r ->
          match Campaign.verdict_of r with
          | Campaign.Detected_corrected | Campaign.Detected_wrong ->
              Alcotest.(check bool)
                (name ^ ": detected fault has a detect cycle")
                true
                (r.Campaign.detect_cycle >= 0)
          | Campaign.Silent_correct | Campaign.Silent_wrong ->
              Alcotest.(check int)
                (name ^ ": silent fault has no detect cycle")
                (-1) r.Campaign.detect_cycle)
        batched.Campaign.results)
    Partition.all_paper_designs;
  Alcotest.(check bool)
    "detection observed on at least one TMR design" true !saw_detection

(* --- majority voter: bit-identical to the pre-library default --- *)

let test_majority_reproduces_default () =
  let ctx =
    Context.create ~scale:Context.Reduced ~seed:11 ~faults_per_design:60 ()
  in
  List.iter
    (fun strategy ->
      let name = Partition.name strategy in
      let campaign run =
        Option.get
          (Runs.campaign_design ~workers:2 ctx run).Runs.campaign
      in
      let default_c = campaign (Runs.implement_design ctx strategy) in
      let majority_c =
        campaign (Runs.implement_design ~voter:Voter.Majority ctx strategy)
      in
      check_same_results (name ^ ": majority vs default build") default_c
        majority_c;
      (* a majority design carries no detection logic: the taxonomy
         degenerates to the historical silent/wrong split *)
      let dc = Campaign.detection_counts majority_c in
      Alcotest.(check int) (name ^ ": no detected-corrected") 0
        dc.Campaign.dc_detected_corrected;
      Alcotest.(check int) (name ^ ": no detected-wrong") 0
        dc.Campaign.dc_detected_wrong;
      Alcotest.(check (float 1e-9))
        (name ^ ": SDC rate equals wrong rate")
        (Campaign.wrong_percent majority_c)
        (Campaign.sdc_percent majority_c);
      Array.iter
        (fun r ->
          Alcotest.(check int)
            (name ^ ": detect_cycle always -1")
            (-1) r.Campaign.detect_cycle)
        majority_c.Campaign.results)
    Partition.all_paper_designs

let () =
  Alcotest.run "tmr_voters"
    [
      ( "library",
        [ Alcotest.test_case "variants, names, cost model" `Quick test_library ]
      );
      ( "taxonomy",
        [
          Alcotest.test_case
            "detecting: engine == oracle (5 designs)" `Slow
            test_detecting_engine_invariance;
          Alcotest.test_case "majority == historical default (5 designs)"
            `Slow test_majority_reproduces_default;
        ] );
    ]
