(* Campaign observatory: Stats numerics against reference values, the
   small JSON codec, injection-coverage invariants, and the fault
   dictionary's entry and file. *)

module Stats = Tmr_obs.Stats
module Json = Tmr_obs.Json
module Coverage = Tmr_inject.Coverage
module Campaign = Tmr_inject.Campaign
module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs
module Store = Tmr_experiments.Store
module Partition = Tmr_core.Partition

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
  | None -> Alcotest.fail "classes missing")

(* ------------------------------------------------------------------ *)
(* Fault dictionary *)

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

(* The digest as documented, from the whole record string: one 18-byte
   little-endian record per fault (bit int64, outcome byte, effect byte
   = position in [Classify.all], first-error and detect cycles int32),
   hashed as a chain of MD5s over chunks of 3,640 records (64 KiB),
   seeded with 16 zero bytes, the last (possibly empty) chunk
   included. *)
let reference_digest (results : Campaign.fault_result array) =
  let effect_code e =
    let rec go i = function
      | x :: _ when x = e -> i
      | _ :: rest -> go (i + 1) rest
      | [] -> assert false
    in
    go 0 Tmr_inject.Classify.all
  in
  let text =
    String.concat ""
      (Array.to_list
         (Array.map
            (fun (r : Campaign.fault_result) ->
              let b = Bytes.create 18 in
              Bytes.set_int64_le b 0 (Int64.of_int r.Campaign.bit);
              Bytes.set_uint8 b 8
                (if r.Campaign.outcome = Campaign.Wrong_answer then 1 else 0);
              Bytes.set_uint8 b 9 (effect_code r.Campaign.effect);
              Bytes.set_int32_le b 10 (Int32.of_int r.Campaign.first_error_cycle);
              Bytes.set_int32_le b 14 (Int32.of_int r.Campaign.detect_cycle);
              Bytes.to_string b)
            results))
  in
  let chunk = 3640 * 18 in
  let rec go state pos =
    let len = min chunk (String.length text - pos) in
    let state = Digest.string (state ^ String.sub text pos len) in
    if len = chunk then go state (pos + chunk) else state
  in
  Digest.to_hex (go (String.make 16 '\000') 0)

let test_store_entry () =
  let c = Lazy.force ctx in
  let run = Lazy.force p2_run in
  let camp = Option.get run.Runs.campaign in
  let e = Store.of_run c run in
  Alcotest.(check string) "design" "tmr_p2" e.Store.e_design;
  Alcotest.(check string) "scale" "reduced" e.Store.e_scale;
  Alcotest.(check int) "seed" 3 e.Store.e_seed;
  Alcotest.(check string) "voter" "majority" e.Store.e_voter;
  Alcotest.(check bool) "sampled" false e.Store.e_exhaustive;
  Alcotest.(check int) "faults" 200 e.Store.e_faults;
  Alcotest.(check int) "wrong" camp.Campaign.wrong e.Store.e_wrong;
  let v = e.Store.e_verdicts in
  Alcotest.(check int) "verdict classes partition the faults" 200
    (v.Campaign.dc_silent_correct + v.Campaign.dc_detected_corrected
   + v.Campaign.dc_detected_wrong + v.Campaign.dc_silent_wrong);
  Alcotest.(check int) "effects partition the wrong answers" e.Store.e_wrong
    (List.fold_left (fun acc (_, n) -> acc + n) 0 e.Store.e_wrong_by_effect);
  Alcotest.(check int) "one wrong bit per wrong answer" e.Store.e_wrong
    (Array.length e.Store.e_wrong_bits);
  Alcotest.(check bool) "wrong bits sorted" true
    (Array.to_list e.Store.e_wrong_bits
    = List.sort compare (Array.to_list e.Store.e_wrong_bits));
  Alcotest.(check string) "digest of one chunk"
    (reference_digest camp.Campaign.results)
    e.Store.e_digest;
  (* past one chunk, and exactly two chunks *)
  List.iter
    (fun n ->
      let many = Array.init n (fun i -> camp.Campaign.results.(i mod 200)) in
      let big =
        Store.of_run c
          { run with Runs.campaign = Some { camp with Campaign.results = many } }
      in
      Alcotest.(check string)
        (Printf.sprintf "digest over %d faults" n)
        (reference_digest many) big.Store.e_digest)
    [ 10_000; 7280 ];
  with_temp_dir (fun dir ->
      let path = Store.save ~dir e in
      Alcotest.(check string) "file named after the job"
        (Filename.concat dir "tmr_p2-reduced-seed3-200-majority.json")
        path;
      let first = In_channel.with_open_bin path In_channel.input_all in
      let again = Store.save ~dir e in
      Alcotest.(check string) "a rerun overwrites its own file" path again;
      Alcotest.(check (list string)) "nothing else in the directory"
        [ Filename.basename path ]
        (Array.to_list (Sys.readdir dir));
      Alcotest.(check string) "same bytes" first
        (In_channel.with_open_bin path In_channel.input_all);
      match Json.parse first with
      | Error msg -> Alcotest.failf "entry file does not parse: %s" msg
      | Ok (Json.Obj fields as j) ->
          Alcotest.(check (option int)) "faults field" (Some 200)
            (Option.bind (Json.member "faults" j) Json.int);
          Alcotest.(check (list string)) "provenance last"
            [ "tool_version"; "git_commit" ]
            (List.filteri
               (fun i _ -> i >= List.length fields - 2)
               (List.map fst fields));
          (* one token: a described commit (maybe "-dirty") or
             "unknown" *)
          let commit =
            Option.bind (Json.member "git_commit" j) (function
              | Json.Str s -> Some s
              | _ -> None)
          in
          Alcotest.(check bool) "git_commit is one non-empty token" true
            (match commit with
            | Some s ->
                s <> ""
                && not (String.exists (fun ch -> ch = ' ' || ch = '\n') s)
            | None -> false)
      | Ok _ -> Alcotest.fail "entry file is not an object")

let () =
  Alcotest.run "tmr_observatory"
    [
      ( "stats",
        [
          Alcotest.test_case "normal quantile/cdf" `Quick test_normal;
          Alcotest.test_case "wilson interval" `Quick test_wilson;
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
          Alcotest.test_case "entry fields, digest and file" `Slow
            test_store_entry;
        ] );
    ]
