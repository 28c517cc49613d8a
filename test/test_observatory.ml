(* Campaign observatory: Stats numerics against reference values, the
   small JSON codec, injection-coverage invariants, the persistent run
   store with its regression report. *)

module Stats = Tmr_obs.Stats
module Json = Tmr_obs.Json
module Coverage = Tmr_inject.Coverage
module Campaign = Tmr_inject.Campaign
module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs
module Store = Tmr_experiments.Store
module Partition = Tmr_core.Partition

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Stats: every number below is a published reference value *)

let check_f what tol expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.6f, got %.6f" what expected actual

let test_normal () =
  check_f "z_of 0.95" 1e-5 1.959964 (Stats.z_of 0.95);
  check_f "z_of 0.99" 1e-5 2.575829 (Stats.z_of 0.99);
  check_f "z_of 0.80" 1e-5 1.281552 (Stats.z_of 0.80);
  check_f "cdf 0" 1e-9 0.5 (Stats.normal_cdf 0.0);
  check_f "cdf 1.96" 1e-6 0.975002 (Stats.normal_cdf 1.96);
  (* quantile inverts cdf across the range, including the tails *)
  List.iter
    (fun p -> check_f "quantile o cdf" 1e-7 p
        (Stats.normal_cdf (Stats.normal_quantile p)))
    [ 1e-6; 0.001; 0.02; 0.3; 0.5; 0.7; 0.98; 0.999; 1. -. 1e-6 ];
  Alcotest.check_raises "quantile rejects 0"
    (Invalid_argument "Stats.normal_quantile: p outside (0, 1)") (fun () ->
      ignore (Stats.normal_quantile 0.0))

let test_wilson () =
  let i = Stats.wilson ~n:100 ~k:10 () in
  check_f "wilson lo 10/100" 1e-3 0.0552 i.Stats.lo;
  check_f "wilson hi 10/100" 1e-3 0.1744 i.Stats.hi;
  (* never degenerate: zero wrong answers still bound the rate *)
  let z = Stats.wilson ~n:100 ~k:0 () in
  check_f "wilson lo 0/100" 1e-9 0.0 z.Stats.lo;
  Alcotest.(check bool) "wilson hi 0/100 positive, finite" true
    (z.Stats.hi > 0.0 && z.Stats.hi < 0.05);
  let f = Stats.wilson ~n:100 ~k:100 () in
  check_f "wilson hi 100/100" 1e-9 1.0 f.Stats.hi;
  Alcotest.(check bool) "wilson lo 100/100 below 1" true (f.Stats.lo < 1.0);
  let v = Stats.wilson ~n:0 ~k:0 () in
  Alcotest.(check bool) "n=0 vacuous" true (v.Stats.lo = 0.0 && v.Stats.hi = 1.0);
  (* width shrinks with n at a fixed rate *)
  let w n = let i = Stats.wilson ~n ~k:(n / 10) () in i.Stats.hi -. i.Stats.lo in
  Alcotest.(check bool) "width monotone in n" true
    (w 100 > w 1000 && w 1000 > w 10000)

let test_compatibility () =
  check_f "two-proportion z" 1e-3 (-1.9803)
    (Stats.two_proportion_z ~n1:100 ~k1:10 ~n2:100 ~k2:20);
  check_f "z symmetric" 1e-9 0.0
    (Stats.two_proportion_z ~n1:100 ~k1:10 ~n2:100 ~k2:20
     +. Stats.two_proportion_z ~n1:100 ~k1:20 ~n2:100 ~k2:10);
  check_f "p-value of 1.96" 1e-3 0.0500 (Stats.p_value 1.96);
  check_f "degenerate z" 1e-9 0.0
    (Stats.two_proportion_z ~n1:100 ~k1:0 ~n2:100 ~k2:0);
  Alcotest.(check bool) "close rates compatible" true
    (Stats.compatible ~n1:1000 ~k1:100 ~n2:1000 ~k2:110 ());
  Alcotest.(check bool) "distant rates incompatible" false
    (Stats.compatible ~n1:1000 ~k1:100 ~n2:1000 ~k2:200 ());
  Alcotest.(check bool) "overlap symmetric" true
    (Stats.overlap { Stats.lo = 0.1; hi = 0.3 } { Stats.lo = 0.25; hi = 0.5 }
     && Stats.overlap { Stats.lo = 0.25; hi = 0.5 } { Stats.lo = 0.1; hi = 0.3 });
  Alcotest.(check bool) "disjoint intervals" false
    (Stats.overlap { Stats.lo = 0.1; hi = 0.2 } { Stats.lo = 0.3; hi = 0.5 })

(* ------------------------------------------------------------------ *)
(* JSON codec *)

let test_json_roundtrip () =
  let src = {|{"a": [1, 2.5, "x\n\"y\""], "b": {"c": true, "d": null}, "e": -3}|} in
  let j = Json.parse_exn src in
  Alcotest.(check (option string)) "string accessor" (Some "x\n\"y\"")
    (Option.bind
       (Option.bind (Json.member "a" j) (fun a -> List.nth_opt (Json.arr a) 2))
       Json.str);
  Alcotest.(check (option int)) "int accessor" (Some (-3))
    (Option.bind (Json.member "e" j) Json.int);
  Alcotest.(check (option int)) "2.5 is not an int" None
    (Option.bind
       (Option.bind (Json.member "a" j) (fun a -> List.nth_opt (Json.arr a) 1))
       Json.int);
  Alcotest.(check (option bool)) "nested bool" (Some true)
    (Option.bind (Option.bind (Json.member "b" j) (Json.member "c")) Json.bool);
  (* print o parse is the identity on the tree *)
  Alcotest.(check bool) "roundtrip" true
    (Json.parse_exn (Json.to_string j) = j);
  (match Json.parse "[1, 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated JSON accepted");
  (match Json.parse "{} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted")

(* ------------------------------------------------------------------ *)
(* Coverage *)

let ctx =
  lazy (Context.create ~scale:Context.Reduced ~seed:3 ~faults_per_design:200 ())

let p2_run =
  lazy
    (let c = Lazy.force ctx in
     Runs.campaign_design ~workers:1 c
       (Runs.implement_design c Partition.Medium_partition))

let test_coverage_invariants () =
  let run = Lazy.force p2_run in
  let cov = Option.get (Runs.coverage_of run) in
  Alcotest.(check int) "injected = campaign sample" 200 cov.Coverage.injected;
  Alcotest.(check bool) "distinct <= injected" true
    (cov.Coverage.injected_distinct <= cov.Coverage.injected
     && cov.Coverage.injected_distinct > 0);
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 cov.Coverage.classes in
  Alcotest.(check int) "class essential partition the fault list"
    cov.Coverage.essential
    (sum (fun c -> c.Coverage.cc_essential));
  Alcotest.(check int) "class injected partition the distinct sample"
    cov.Coverage.injected_distinct
    (sum (fun c -> c.Coverage.cc_injected));
  List.iter
    (fun c ->
      Alcotest.(check bool) "class injected <= essential <= device" true
        (c.Coverage.cc_injected <= c.Coverage.cc_essential
         && c.Coverage.cc_essential <= c.Coverage.cc_device))
    cov.Coverage.classes;
  let gsum g = Array.fold_left (Array.fold_left ( + )) 0 g in
  Alcotest.(check int) "essential grid mass" cov.Coverage.essential
    (gsum cov.Coverage.grid_essential);
  Alcotest.(check int) "injected grid mass" cov.Coverage.injected_distinct
    (gsum cov.Coverage.grid_injected);
  (* JSON export parses back with consistent headline numbers *)
  let j = Json.parse_exn (Json.to_string (Coverage.to_json cov)) in
  let geti k = Option.bind (Json.member k j) Json.int in
  Alcotest.(check (option int)) "json essential" (Some cov.Coverage.essential)
    (geti "essential");
  Alcotest.(check (option int)) "json distinct"
    (Some cov.Coverage.injected_distinct)
    (geti "injected_distinct");
  (match Option.map Json.arr (Json.member "classes" j) with
  | Some l -> Alcotest.(check int) "four classes" 4 (List.length l)
  | None -> Alcotest.fail "classes missing");
  (* ASCII heatmap: one row per grid row plus borders and the legend *)
  let hm = Coverage.heatmap cov in
  Alcotest.(check int) "heatmap line count" (cov.Coverage.rows + 4)
    (List.length (String.split_on_char '\n' (String.trim hm)));
  Alcotest.(check bool) "heatmap legend" true (contains hm "uninjected")

(* ------------------------------------------------------------------ *)
(* Run store and regression report *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tmr_store_%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_store_roundtrip () =
  let c = Lazy.force ctx in
  let run = Lazy.force p2_run in
  let m = Store.of_run c run in
  Alcotest.(check string) "design" "tmr_p2" m.Store.m_design;
  Alcotest.(check string) "scale" "reduced" m.Store.m_scale;
  Alcotest.(check int) "injected" 200 m.Store.m_injected;
  Alcotest.(check int) "digest is md5 hex" 32
    (String.length m.Store.m_metrics_digest);
  (* to_json / of_json is the identity on the record *)
  (match Store.of_json (Json.parse_exn (Json.to_string (Store.to_json m))) with
  | Ok m' -> Alcotest.(check bool) "manifest roundtrips" true (m = m')
  | Error e -> Alcotest.failf "of_json failed: %s" e);
  (match Store.of_json (Json.parse_exn {|{"design": "x"}|}) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "incomplete manifest accepted");
  with_temp_dir (fun dir ->
      let p1 = Store.save ~dir m in
      Alcotest.(check bool) "save path inside dir" true
        (contains p1 "tmr_p2-seed3-");
      let m2 = { m with Store.m_created = m.Store.m_created +. 5.0 } in
      ignore (Store.save ~dir m2);
      match Store.load_dir ~dir () with
      | [ a; b ] ->
          Alcotest.(check bool) "oldest first" true
            (a.Store.m_created < b.Store.m_created);
          Alcotest.(check bool) "baseline is the latest" true
            (Store.baseline_for ~history:[ a; b ] m = Some b)
      | l -> Alcotest.failf "expected 2 manifests, loaded %d" (List.length l));
  Alcotest.(check (list pass)) "missing dir is empty history" []
    (Store.load_dir ~dir:"/nonexistent/tmr-store" ())

(* Manifests written while campaigns could stop at a CI width carry a
   "stop" object; the store still loads them, field ignored. *)
let test_store_legacy_stop () =
  let m = Store.of_run (Lazy.force ctx) (Lazy.force p2_run) in
  let legacy =
    match Store.to_json m with
    | Json.Obj fields ->
        Json.Obj
          (fields
          @ [
              ( "stop",
                Json.Obj
                  [
                    ("confidence", Json.Num 0.95);
                    ("half_width", Json.Num 0.03);
                    ("min_n", Json.Num 50.);
                  ] );
            ])
    | _ -> Alcotest.fail "manifest is not a JSON object"
  in
  with_temp_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let oc = open_out (Filename.concat dir "legacy.json") in
      output_string oc (Json.to_string legacy);
      close_out oc;
      match Store.load_dir ~warn:(Alcotest.failf "warning: %s") ~dir () with
      | [ m' ] -> Alcotest.(check bool) "loads unchanged" true (m = m')
      | l -> Alcotest.failf "expected 1 manifest, loaded %d" (List.length l))

let test_report_verdicts () =
  let c = Lazy.force ctx in
  let p2 = Store.of_run c (Lazy.force p2_run) in
  let standard =
    Store.of_run c
      (Runs.campaign_design ~workers:1 c
         (Runs.implement_design c Partition.Unprotected))
  in
  (* no history: everything is new *)
  let fresh = Store.report_markdown ~history:[] [ p2 ] in
  Alcotest.(check bool) "no baseline -> new" true (contains fresh "| new |");
  Alcotest.(check bool) "rate has a CI" true (contains fresh "%] |");
  (* same campaign re-observed: compatible with itself *)
  let again = Store.report_markdown ~history:[ p2 ] [ p2 ] in
  Alcotest.(check bool) "self-compare compatible" true
    (contains again "compatible");
  Alcotest.(check bool) "no spurious regression" false
    (contains again "regression");
  (* a deliberately degraded design: the unprotected campaign's counts
     masquerading as tmr_p2 must be flagged against the tmr_p2 baseline *)
  let degraded = { standard with Store.m_design = p2.Store.m_design } in
  let reg = Store.report_markdown ~history:[ p2 ] [ degraded ] in
  Alcotest.(check bool) "degraded flagged as regression" true
    (contains reg "**regression**");
  (* and the mirror image reads as an improvement *)
  let imp =
    Store.report_markdown ~history:[ degraded ] [ p2 ]
  in
  Alcotest.(check bool) "recovery flagged as improvement" true
    (contains imp "improvement");
  (* throughput collapse is called out even when rates agree *)
  let slow = { p2 with Store.m_faults_per_sec = p2.Store.m_faults_per_sec /. 10. } in
  let thr = Store.report_markdown ~history:[ p2 ] [ slow ] in
  Alcotest.(check bool) "throughput regression noted" true
    (contains thr "throughput regression");
  (* coverage section renders the per-class cells *)
  Alcotest.(check bool) "coverage section" true
    (contains fresh "## Injection coverage")

let () =
  Alcotest.run "tmr_observatory"
    [
      ( "stats",
        [
          Alcotest.test_case "normal quantile/cdf" `Quick test_normal;
          Alcotest.test_case "wilson interval" `Quick test_wilson;
          Alcotest.test_case "compatibility tests" `Quick test_compatibility;
        ] );
      ( "json",
        [ Alcotest.test_case "parse/print roundtrip" `Quick test_json_roundtrip ]
      );
      ( "coverage",
        [
          Alcotest.test_case "invariants and export" `Slow
            test_coverage_invariants;
        ] );
      ( "store",
        [
          Alcotest.test_case "manifest roundtrip and history" `Slow
            test_store_roundtrip;
          Alcotest.test_case "report verdicts" `Slow test_report_verdicts;
          Alcotest.test_case "manifest with a stop object loads" `Slow
            test_store_legacy_stop;
        ] );
    ]
