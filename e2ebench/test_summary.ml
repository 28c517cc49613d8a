(* The benchmark's order statistics and compare rule, on synthetic
   results. *)

module Summary = Tmr_e2ebench.Summary

let close = Alcotest.float 1e-12

(* expected values from Python's statistics.quantiles(values, n=4) *)
let test_quartiles () =
  let d = Summary.dist [ 5.; 1.; 4.; 2.; 3. ] in
  Alcotest.check close "q1" 1.5 d.Summary.q1;
  Alcotest.check close "median" 3. d.Summary.median;
  Alcotest.check close "q3" 4.5 d.Summary.q3;
  let d = Summary.dist (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "q1 of 10" 2.75 d.Summary.q1;
  Alcotest.check close "median of 10" 5.5 d.Summary.median;
  Alcotest.check close "q3 of 10" 8.25 d.Summary.q3;
  let d = Summary.dist [ 3.; 1. ] in
  Alcotest.check close "q1 of 2" 0.5 d.Summary.q1;
  Alcotest.check close "q3 of 2" 3.5 d.Summary.q3;
  let d = Summary.dist [ 7. ] in
  Alcotest.check close "single q1" 7. d.Summary.q1;
  Alcotest.check close "single spread" 0. (Summary.spread d);
  Alcotest.check_raises "empty" (Invalid_argument "Summary: no values") (fun () ->
      ignore (Summary.dist []))

let dist ~median ~spread =
  Summary.dist
    [
      median *. (1. -. spread); median *. (1. -. (spread /. 2.)); median;
      median *. (1. +. (spread /. 2.)); median *. (1. +. spread);
    ]

let results metrics =
  {
    Summary.version = "test";
    nproc = 2;
    ocaml = Sys.ocaml_version;
    seed = 1;
    repeats = 5;
    workloads =
      [
        ( "w",
          {
            Summary.metrics = List.map (fun (m, d) -> (m, ("s", d))) metrics;
            per_layer = [ ("pnr.route_s", ("s", 1.)) ];
          } );
      ];
  }

(* through the JSON file format, as [compare] reads it *)
let roundtrip r =
  match
    Summary.results_of_json
      (Tmr_obs.Json.parse_exn (Tmr_obs.Json.to_string (Summary.results_to_json r)))
  with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let bounds =
  [
    { Summary.metric = "total_s"; unit = "s"; better = Summary.Lower; bound = 0.1 };
    { Summary.metric = "faults_per_s"; unit = "faults/s"; better = Summary.Higher; bound = 0.1 };
  ]

let verdicts ~old ~cur =
  List.map
    (fun (r : Summary.row) -> (r.Summary.row_metric, Summary.verdict_name r.Summary.verdict))
    (Summary.compare bounds ~old:(roundtrip (results old)) ~cur:(roundtrip (results cur)))

let verdict_list = Alcotest.(list (pair string string))

let test_compare () =
  let quiet m = dist ~median:m ~spread:0.02 in
  Alcotest.check verdict_list "same numbers"
    [ ("total_s", "unchanged"); ("faults_per_s", "unchanged") ]
    (verdicts
       ~old:[ ("total_s", quiet 10.); ("faults_per_s", quiet 100.) ]
       ~cur:[ ("total_s", quiet 10.5); ("faults_per_s", quiet 95.) ]);
  Alcotest.check verdict_list "past the bound, both directions"
    [ ("total_s", "worse"); ("faults_per_s", "better") ]
    (verdicts
       ~old:[ ("total_s", quiet 10.); ("faults_per_s", quiet 100.) ]
       ~cur:[ ("total_s", quiet 11.5); ("faults_per_s", quiet 120.) ]);
  Alcotest.check verdict_list "a lower rate is worse"
    [ ("total_s", "better"); ("faults_per_s", "worse") ]
    (verdicts
       ~old:[ ("total_s", quiet 10.); ("faults_per_s", quiet 100.) ]
       ~cur:[ ("total_s", quiet 8.); ("faults_per_s", quiet 80.) ]);
  let noisy m = dist ~median:m ~spread:0.4 in
  Alcotest.check verdict_list "spread wider than the bound"
    [ ("total_s", "unresolved"); ("faults_per_s", "better") ]
    (verdicts
       ~old:[ ("total_s", noisy 10.); ("faults_per_s", noisy 100.) ]
       ~cur:[ ("total_s", noisy 11.); ("faults_per_s", noisy 300.) ]);
  Alcotest.check verdict_list "missing metric"
    [ ("total_s", "unchanged"); ("faults_per_s", "unresolved") ]
    (verdicts
       ~old:[ ("total_s", quiet 10.); ("faults_per_s", quiet 100.) ]
       ~cur:[ ("total_s", quiet 10.) ])

let test_malformed () =
  let bad s =
    match Tmr_obs.Json.parse s with
    | Error _ -> true
    | Ok j -> Result.is_error (Summary.results_of_json j)
  in
  Alcotest.(check bool) "wrong schema" true
    (bad {|{"schema":"other","version":"v","nproc":2,"ocaml":"5","seed":1,"repeats":1,"workloads":{}}|});
  Alcotest.(check bool) "non-numeric median" true
    (bad
       {|{"schema":"tmr-e2ebench-results/1","version":"v","nproc":2,"ocaml":"5","seed":1,"repeats":1,"workloads":{"w":{"metrics":{"total_s":{"unit":"s","median":"x","q1":1,"q3":1,"min":1,"max":1,"n":1}},"per_layer":{}}}}|});
  Alcotest.(check bool) "bad direction" true
    (Result.is_error
       (Summary.bounds_of_benchmark
          (Tmr_obs.Json.parse_exn
             {|{"end_to_end":[{"name":"t","unit":"s","better":"sideways","bound":0.1}]}|})))

let () =
  Alcotest.run "e2ebench"
    [
      ( "summary",
        [
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "compare rule" `Quick test_compare;
          Alcotest.test_case "malformed inputs" `Quick test_malformed;
        ] );
    ]
