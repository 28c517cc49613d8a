(* Telemetry subsystem: exactness of the sharded metrics under domain
   concurrency, histogram percentile edge cases, Chrome-trace JSONL
   well-formedness and span nesting, and non-perturbation of campaign
   results. *)

module Metrics = Tmr_obs.Metrics
module Trace = Tmr_obs.Trace
module Progress = Tmr_obs.Progress
module Campaign = Tmr_inject.Campaign
module Partition = Tmr_core.Partition
module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs

(* ------------------------------------------------------------------ *)
(* A minimal JSON parser — just enough to validate what Tmr_obs emits
   without pulling a JSON dependency into the repo. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos >= n then '\000' else s.[!pos] in
  let advance () = incr pos in
  let bad msg = raise (Bad_json (Printf.sprintf "%s at %d in %S" msg !pos s)) in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () <> c then bad (Printf.sprintf "expected %C" c);
    advance ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' ->
          advance ();
          Buffer.contents b
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> advance (); Buffer.add_char b '"'
          | '\\' -> advance (); Buffer.add_char b '\\'
          | '/' -> advance (); Buffer.add_char b '/'
          | 'n' -> advance (); Buffer.add_char b '\n'
          | 't' -> advance (); Buffer.add_char b '\t'
          | 'r' -> advance (); Buffer.add_char b '\r'
          | 'b' -> advance (); Buffer.add_char b '\b'
          | 'f' -> advance (); Buffer.add_char b '\012'
          | 'u' ->
              advance ();
              for _ = 1 to 4 do
                (match peek () with
                | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
                | _ -> bad "bad \\u escape");
                advance ()
              done;
              Buffer.add_char b '?'
          | _ -> bad "bad escape");
          go ()
      | '\000' -> bad "eof in string"
      | c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while num_char (peek ()) do
      advance ()
    done;
    if !pos = start then bad "expected a value";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> bad "bad number"
  in
  let literal lit v =
    String.iter expect lit;
    v
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec go () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            if peek () = ',' then begin
              advance ();
              go ()
            end
            else expect '}'
          in
          go ();
          Obj (List.rev !fields)
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec go () =
            items := parse_value () :: !items;
            skip_ws ();
            if peek () = ',' then begin
              advance ();
              go ()
            end
            else expect ']'
          in
          go ();
          Arr (List.rev !items)
        end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then bad "trailing garbage";
  v

let member k = function Obj kv -> List.assoc_opt k kv | _ -> None

let num_exn what = function
  | Some (Num f) -> f
  | _ -> Alcotest.failf "%s: missing or non-numeric" what

let str_exn what = function
  | Some (Str s) -> s
  | _ -> Alcotest.failf "%s: missing or non-string" what

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_concurrent_exact () =
  let c = Metrics.counter "test.concurrent.counter" in
  let h = Metrics.histogram "test.concurrent.hist" in
  let domains = 4 and per_domain = 25_000 in
  let workers =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Metrics.incr c;
              (* spread samples over several buckets *)
              Metrics.observe h (100 * (1 + ((d + i) mod 4)))
            done))
  in
  Array.iter Domain.join workers;
  let snap = Metrics.snapshot () in
  let total = domains * per_domain in
  Alcotest.(check int)
    "counter sums exactly" total
    (List.assoc "test.concurrent.counter" snap.Metrics.counters);
  let hs = List.assoc "test.concurrent.hist" snap.Metrics.histograms in
  Alcotest.(check int) "histogram count sums exactly" total hs.Metrics.count;
  (* sum is exact too: each domain contributes a closed-form total *)
  let expected_sum = ref 0 in
  for d = 0 to domains - 1 do
    for i = 1 to per_domain do
      expected_sum := !expected_sum + (100 * (1 + ((d + i) mod 4)))
    done
  done;
  Alcotest.(check int) "histogram sum sums exactly" !expected_sum hs.Metrics.sum

let test_percentile_edge_cases () =
  (* empty *)
  let h0 = Metrics.histogram "test.pct.empty" in
  Alcotest.(check (float 0.0)) "empty p50" 0.0 (Metrics.percentile h0 0.5);
  let snap = Metrics.snapshot () in
  let s0 = List.assoc "test.pct.empty" snap.Metrics.histograms in
  Alcotest.(check int) "empty count" 0 s0.Metrics.count;
  Alcotest.(check (float 0.0)) "empty mean" 0.0 s0.Metrics.mean;
  Alcotest.(check (float 0.0)) "empty p99" 0.0 s0.Metrics.p99;
  (* single sample: all percentiles hit the same bucket, whose upper
     bound over-estimates by at most the bucket ratio (~26% + rounding) *)
  let h1 = Metrics.histogram "test.pct.single" in
  Metrics.observe h1 5000;
  let s1 =
    List.assoc "test.pct.single" (Metrics.snapshot ()).Metrics.histograms
  in
  Alcotest.(check int) "single count" 1 s1.Metrics.count;
  Alcotest.(check int) "single sum" 5000 s1.Metrics.sum;
  Alcotest.(check (float 0.0)) "single p50 = p99" s1.Metrics.p99 s1.Metrics.p50;
  Alcotest.(check bool) "single p50 >= sample" true (s1.Metrics.p50 >= 5000.0);
  Alcotest.(check bool) "single p50 within bucket ratio" true
    (s1.Metrics.p50 <= 5000.0 *. 1.3);
  (* non-positive samples land in the first bucket instead of crashing *)
  let hz = Metrics.histogram "test.pct.zero" in
  Metrics.observe hz 0;
  Metrics.observe hz (-7);
  let sz =
    List.assoc "test.pct.zero" (Metrics.snapshot ()).Metrics.histograms
  in
  Alcotest.(check int) "zero/negative counted" 2 sz.Metrics.count;
  Alcotest.(check int) "negative clamped out of sum" 0 sz.Metrics.sum;
  (* uniform 1..1000: nearest-rank percentiles, within one bucket ratio *)
  let hu = Metrics.histogram "test.pct.uniform" in
  for v = 1 to 1000 do
    Metrics.observe hu v
  done;
  let su =
    List.assoc "test.pct.uniform" (Metrics.snapshot ()).Metrics.histograms
  in
  let in_range what lo hi v =
    if v < lo || v > hi then
      Alcotest.failf "%s: %.1f outside [%.1f, %.1f]" what v lo hi
  in
  in_range "uniform p50" 500.0 650.0 su.Metrics.p50;
  in_range "uniform p95" 950.0 1300.0 su.Metrics.p95;
  in_range "uniform p99" 990.0 1300.0 su.Metrics.p99;
  Alcotest.(check (float 0.001)) "uniform mean exact" 500.5 su.Metrics.mean

let test_hist_buckets () =
  let h = Metrics.histogram "test.buckets.hist" in
  Metrics.observe h 1;
  Metrics.observe h 1000;
  Metrics.observe h 1000;
  Metrics.observe h 1_000_000;
  (* far beyond the last finite bound: lands in the max_int catch-all *)
  Metrics.observe h 1_000_000_000_000_000_000;
  let hs =
    List.assoc "test.buckets.hist" (Metrics.snapshot ()).Metrics.histograms
  in
  Alcotest.(check int) "count" 5 hs.Metrics.count;
  let bsum = Array.fold_left (fun acc (_, c) -> acc + c) 0 hs.Metrics.buckets in
  Alcotest.(check int) "bucket counts sum to count" hs.Metrics.count bsum;
  Array.iter
    (fun (_, c) -> Alcotest.(check bool) "only occupied buckets" true (c > 0))
    hs.Metrics.buckets;
  let bounds = Array.map fst hs.Metrics.buckets in
  Array.iteri
    (fun i b ->
      if i > 0 then
        Alcotest.(check bool) "bounds ascending" true (b > bounds.(i - 1)))
    bounds;
  let last_bound, _ = hs.Metrics.buckets.(Array.length hs.Metrics.buckets - 1) in
  Alcotest.(check int) "huge sample in the catch-all" max_int last_bound;
  (* the JSON snapshot exposes the same buckets, catch-all bound as -1 *)
  let j = parse_json (Metrics.to_json_string (Metrics.snapshot ())) in
  let buckets =
    Option.bind (member "histograms" j) (member "test.buckets.hist")
    |> Fun.flip Option.bind (member "buckets")
  in
  match buckets with
  | Some (Arr pairs) ->
      Alcotest.(check int) "JSON bucket count"
        (Array.length hs.Metrics.buckets)
        (List.length pairs);
      let jsum =
        List.fold_left
          (fun acc p ->
            match p with
            | Arr [ Num bound; Num c ] ->
                Alcotest.(check bool) "JSON bound is -1 or positive" true
                  (bound = -1.0 || bound > 0.0);
                acc + int_of_float c
            | _ -> Alcotest.fail "bucket is not a [bound, count] pair")
          0 pairs
      in
      Alcotest.(check int) "JSON bucket counts sum to count" hs.Metrics.count
        jsum;
      (match List.rev pairs with
      | Arr [ Num bound; Num _ ] :: _ ->
          Alcotest.(check (float 0.0)) "catch-all renders as -1" (-1.0) bound
      | _ -> Alcotest.fail "no last bucket")
  | _ -> Alcotest.fail "buckets missing from JSON snapshot"

let test_snapshot_json_parses () =
  let c = Metrics.counter "test.json.counter\"quoted\"" in
  Metrics.incr ~by:42 c;
  let json = Metrics.to_json_string (Metrics.snapshot ()) in
  match parse_json json with
  | Obj _ as j ->
      let counters = member "counters" j in
      Alcotest.(check (float 0.0))
        "escaped counter round-trips" 42.0
        (num_exn "counter"
           (Option.bind counters (member "test.json.counter\"quoted\"")))
  | _ -> Alcotest.fail "snapshot JSON is not an object"

(* ------------------------------------------------------------------ *)
(* Tracing: a traced reduced-scale campaign produces line-by-line valid
   JSONL whose spans nest properly per thread track. *)

let ctx = lazy (Context.create ~scale:Context.Reduced ~seed:2 ~faults_per_design:40 ())

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let run_traced_campaign () =
  let path = Filename.temp_file "tmr_trace" ".jsonl" in
  let ctx = Lazy.force ctx in
  Trace.to_file path;
  let campaign =
    Fun.protect
      ~finally:(fun () -> Trace.close ())
      (fun () ->
        let run = Runs.implement_design ctx Partition.Medium_partition in
        Option.get (Runs.campaign_design ~workers:1 ctx run).Runs.campaign)
  in
  (campaign, path)

let test_trace_jsonl () =
  let campaign, path = run_traced_campaign () in
  let lines = read_lines path in
  Alcotest.(check bool) "trace is non-empty" true (List.length lines > 10);
  let events = List.map parse_json lines in
  (* every line is a complete event with the mandatory fields *)
  let spans =
    List.map
      (fun ev ->
        Alcotest.(check string) "ph" "X" (str_exn "ph" (member "ph" ev));
        let name = str_exn "name" (member "name" ev) in
        let ts = num_exn "ts" (member "ts" ev) in
        let dur = num_exn "dur" (member "dur" ev) in
        let tid = num_exn "tid" (member "tid" ev) in
        ignore (num_exn "pid" (member "pid" ev));
        Alcotest.(check bool) "dur >= 0" true (dur >= 0.0);
        (name, ts, dur, tid, ev))
      events
  in
  let names = List.map (fun (n, _, _, _, _) -> n) spans in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "span %S present" expected)
        true (List.mem expected names))
    [ "techmap"; "pack"; "place"; "route"; "bitgen"; "timing"; "implement";
      "golden"; "extract"; "campaign"; "fault" ];
  (* per-fault spans carry their plan path *)
  let fault_paths =
    List.filter_map
      (fun (n, _, _, _, ev) ->
        if n = "fault" then
          Some (str_exn "fault args.path" (Option.bind (member "args" ev) (member "path")))
        else None)
      spans
  in
  Alcotest.(check int) "one fault span per fault"
    campaign.Campaign.injected (List.length fault_paths);
  List.iter
    (fun p ->
      Alcotest.(check bool) "path tag valid" true
        (List.mem p [ "silent"; "patch"; "reroute"; "rebuild" ]))
    fault_paths;
  let s = campaign.Campaign.stats in
  Alcotest.(check int) "rebuild tags match engine stats"
    s.Campaign.rebuilt
    (List.length (List.filter (( = ) "rebuild") fault_paths));
  (* spans nest: within one tid, sorted by (ts, -dur), every span lies
     inside the enclosing open span (complete events never partially
     overlap on a track) *)
  let eps = 0.005 (* µs; ts/dur carry ns precision rounded to 3 decimals *) in
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun (_, ts, dur, tid, _) ->
      Hashtbl.replace by_tid tid
        ((ts, dur) :: Option.value ~default:[] (Hashtbl.find_opt by_tid tid)))
    spans;
  Hashtbl.iter
    (fun tid evs ->
      let evs =
        List.sort
          (fun (ts1, d1) (ts2, d2) ->
            if ts1 <> ts2 then compare ts1 ts2 else compare d2 d1)
          evs
      in
      let stack = ref [] in
      List.iter
        (fun (ts, dur) ->
          while
            match !stack with
            | top_end :: rest when ts >= top_end -. eps ->
                stack := rest;
                true
            | _ -> false
          do
            ()
          done;
          (match !stack with
          | top_end :: _ ->
              if ts +. dur > top_end +. eps then
                Alcotest.failf
                  "tid %.0f: span [%f, %f] overlaps its parent ending at %f"
                  tid ts (ts +. dur) top_end
          | [] -> ());
          stack := (ts +. dur) :: !stack)
        evs)
    by_tid;
  Sys.remove path;
  (* the campaign also populated the engine metrics *)
  let snap = Metrics.snapshot () in
  Alcotest.(check bool) "pool.chunks counted" true
    (List.assoc "pool.chunks" snap.Metrics.counters > 0);
  let total_latency =
    List.fold_left
      (fun acc path ->
        match
          List.assoc_opt ("campaign.fault_ns." ^ path) snap.Metrics.histograms
        with
        | Some h -> acc + h.Metrics.count
        | None -> acc)
      0
      [ "silent"; "rebuild"; "batch" ]
  in
  Alcotest.(check bool) "per-path latency histograms cover every fault" true
    (total_latency >= campaign.Campaign.injected)

(* results must be bit-identical with tracing on and off *)
let test_trace_does_not_perturb () =
  let ctx = Lazy.force ctx in
  let run = Runs.implement_design ctx Partition.Medium_partition in
  let path = Filename.temp_file "tmr_trace" ".jsonl" in
  Trace.to_file path;
  let traced =
    Fun.protect
      ~finally:(fun () -> Trace.close ())
      (fun () ->
        Option.get (Runs.campaign_design ~workers:2 ctx run).Runs.campaign)
  in
  Sys.remove path;
  let plain =
    Option.get (Runs.campaign_design ~workers:2 ctx run).Runs.campaign
  in
  Alcotest.(check bool) "results identical traced vs untraced" true
    (traced.Campaign.results = plain.Campaign.results);
  Alcotest.(check int) "same wrong count" plain.Campaign.wrong
    traced.Campaign.wrong;
  (* engine accounting is populated either way *)
  Alcotest.(check bool) "wall time measured" true (plain.Campaign.wall_ns > 0);
  Alcotest.(check int) "one busy cell per worker" plain.Campaign.workers
    (Array.length plain.Campaign.busy_ns);
  let u = Campaign.utilization plain in
  Alcotest.(check bool) "utilization in (0, 1]" true (u > 0.0 && u <= 1.0 +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Progress renderer (non-TTY branch) *)

let test_progress_callback () =
  let path = Filename.temp_file "tmr_progress" ".txt" in
  let out = open_out path in
  let cb = Progress.callback ~out () in
  cb "alpha" 10 100;
  cb "alpha" 50 100;
  cb "alpha" 100 100;
  cb "beta" 400 400;
  close_out out;
  let lines = read_lines path in
  Sys.remove path;
  let has_prefix p l = String.length l >= String.length p
                       && String.sub l 0 (String.length p) = p in
  Alcotest.(check bool) "alpha rendered" true
    (List.exists (has_prefix "alpha: ") lines);
  Alcotest.(check bool) "alpha completed" true
    (List.exists (has_prefix "alpha: 100/100") lines);
  Alcotest.(check bool) "label switch starts a new bar" true
    (List.exists (has_prefix "beta: 400/400") lines)

(* ------------------------------------------------------------------ *)
(* Tmr_obs.Json parser error paths: every malformed input yields
   [Error], never an exception or a mangled tree. *)

let test_json_error_paths () =
  let rejects name input =
    match Tmr_obs.Json.parse input with
    | Error msg ->
        Alcotest.(check bool)
          (name ^ ": error message non-empty")
          true
          (String.length msg > 0)
    | Ok _ -> Alcotest.failf "%s: accepted %S" name input
  in
  (* truncated input *)
  rejects "empty input" "";
  rejects "truncated object" "{\"a\": 1";
  rejects "truncated array" "[1, 2";
  rejects "truncated string" "\"abc";
  rejects "key without value" "{\"a\"";
  rejects "dangling comma" "[1,";
  rejects "truncated escape" "\"\\";
  rejects "truncated unicode escape" "\"\\u12";
  (* bad escapes and tokens *)
  rejects "unknown escape" "\"\\q\"";
  rejects "non-hex unicode escape" "\"\\uzzzz\"";
  rejects "bare minus" "-";
  rejects "double dot number" "1.2.3";
  rejects "misspelled literal" "ture";
  rejects "trailing garbage" "1 2";
  (* deep nesting fails cleanly instead of overflowing the stack *)
  rejects "deep array nesting" (String.make 5000 '[');
  rejects "deep closed nesting"
    (String.make 1000 '[' ^ "1" ^ String.make 1000 ']');
  (* integral numbers outside the range of int are no int (they used to
     convert to an unspecified value, e.g. seq 0 for 1e300) *)
  List.iter
    (fun (text, want) ->
      match Tmr_obs.Json.parse text with
      | Ok v -> Alcotest.(check (option int)) ("Json.int " ^ text) want (Tmr_obs.Json.int v)
      | Error msg -> Alcotest.failf "%s rejected: %s" text msg)
    [
      ("1e300", None);
      ("-1e300", None);
      ("9.3e18", None);
      ("4611686018427387904", None);
      ("-4611686018427387904", Some min_int);
      ("1.5", None);
      ("-42", Some (-42));
    ];
  (match Tmr_obs.Json.parse "{\"a\": [1, {\"b\": null}]}" with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "valid document rejected: %s" msg);
  (* nesting below the limit still parses *)
  (match
     Tmr_obs.Json.parse (String.make 100 '[' ^ "0" ^ String.make 100 ']')
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "100-deep array rejected: %s" msg);
  (* parse_exn converts the same errors into Failure *)
  match Tmr_obs.Json.parse_exn "[1," with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "parse_exn: expected Failure on truncated array"

(* ------------------------------------------------------------------ *)
(* Coverage grid on degenerate inputs: an empty fault list yields an
   all-zero grid of the advertised shape, and a zero-density sample
   counts its essential bits with nothing injected — never a division by
   zero or a ragged row. *)

let grid_sum g = Array.fold_left (Array.fold_left ( + )) 0 g

let check_grid_shape (cov : Tmr_inject.Coverage.t) =
  List.iter
    (fun g ->
      Alcotest.(check int) "one row per grid row" cov.Tmr_inject.Coverage.rows
        (Array.length g);
      Array.iter
        (fun row ->
          Alcotest.(check int) "grid row width" cov.Tmr_inject.Coverage.cols
            (Array.length row))
        g)
    [ cov.Tmr_inject.Coverage.grid_essential;
      cov.Tmr_inject.Coverage.grid_injected ]

let test_coverage_empty_grid () =
  let dev = Tmr_arch.Device.build Tmr_arch.Arch.small in
  let db = Tmr_arch.Bitdb.build dev in
  let empty = { Tmr_inject.Faultlist.bits = [||]; by_class = [] } in
  let cov =
    Tmr_inject.Coverage.of_faults ~db ~faultlist:empty ~faults:[||]
  in
  Alcotest.(check int) "no essential bits" 0 cov.Tmr_inject.Coverage.essential;
  Alcotest.(check int) "no injected bits" 0 cov.Tmr_inject.Coverage.injected;
  Alcotest.(check int) "no distinct bits" 0
    cov.Tmr_inject.Coverage.injected_distinct;
  check_grid_shape cov;
  Alcotest.(check int) "empty essential grid" 0
    (grid_sum cov.Tmr_inject.Coverage.grid_essential);
  Alcotest.(check int) "empty injected grid" 0
    (grid_sum cov.Tmr_inject.Coverage.grid_injected);
  (* the JSON form of the degenerate record still parses *)
  match
    Tmr_obs.Json.parse
      (Tmr_obs.Json.to_string (Tmr_inject.Coverage.to_json cov))
  with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "empty coverage JSON rejected: %s" msg

let test_coverage_zero_density () =
  let dev = Tmr_arch.Device.build Tmr_arch.Arch.small in
  let db = Tmr_arch.Bitdb.build dev in
  (* a real fault list but an empty sample: density is zero everywhere *)
  let faultlist =
    {
      Tmr_inject.Faultlist.bits = Array.init 64 (fun i -> i * 7);
      by_class = [];
    }
  in
  let cov = Tmr_inject.Coverage.of_faults ~db ~faultlist ~faults:[||] in
  Alcotest.(check int) "essential bits counted" 64
    cov.Tmr_inject.Coverage.essential;
  Alcotest.(check int) "no injected bits" 0 cov.Tmr_inject.Coverage.injected;
  check_grid_shape cov;
  Alcotest.(check int) "every essential bit lands in the grid" 64
    (grid_sum cov.Tmr_inject.Coverage.grid_essential);
  Alcotest.(check int) "zero-density grid injects nothing" 0
    (grid_sum cov.Tmr_inject.Coverage.grid_injected)

(* keep last: wipes every registered instrument *)
let test_reset () =
  let c = Metrics.counter "test.reset.counter" in
  let h = Metrics.histogram "test.reset.hist" in
  Metrics.incr ~by:7 c;
  Metrics.observe h 123;
  Metrics.reset ();
  let snap = Metrics.snapshot () in
  Alcotest.(check int) "counter zeroed" 0
    (List.assoc "test.reset.counter" snap.Metrics.counters);
  let hs = List.assoc "test.reset.hist" snap.Metrics.histograms in
  Alcotest.(check int) "histogram zeroed" 0 hs.Metrics.count;
  Alcotest.(check (float 0.0)) "percentiles zeroed" 0.0 hs.Metrics.p99

let () =
  Alcotest.run "tmr_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "concurrent increments sum exactly" `Quick
            test_concurrent_exact;
          Alcotest.test_case "percentile edge cases" `Quick
            test_percentile_edge_cases;
          Alcotest.test_case "histogram buckets in snapshot" `Quick
            test_hist_buckets;
          Alcotest.test_case "snapshot JSON parses" `Quick
            test_snapshot_json_parses;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "campaign JSONL parses and nests" `Slow
            test_trace_jsonl;
          Alcotest.test_case "tracing does not perturb results" `Slow
            test_trace_does_not_perturb;
        ] );
      ( "progress",
        [ Alcotest.test_case "labelled callback" `Quick test_progress_callback ] );
      ( "json",
        [
          Alcotest.test_case "parser error paths" `Quick test_json_error_paths;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "grid on empty fault list" `Quick
            test_coverage_empty_grid;
          Alcotest.test_case "grid on zero-density sample" `Quick
            test_coverage_zero_density;
        ] );
      ( "reset", [ Alcotest.test_case "reset zeroes" `Quick test_reset ] );
    ]
