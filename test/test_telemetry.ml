(* Live telemetry: event-stream ordering and density, torn-line
   freedom of the shared JSONL sink under domain concurrency, the
   offline span profiler, exact histogram extrema, cross-process
   metrics folding, and end-to-end exactness — a campaign's event
   stream alone reproduces the engine's final verdict. *)

module Metrics = Tmr_obs.Metrics
module Json = Tmr_obs.Json
module Events = Tmr_obs.Events
module Profile = Tmr_obs.Profile
module Watch = Tmr_obs.Watch
module Jsonl = Tmr_obs.Jsonl
module Stats = Tmr_obs.Stats
module Campaign = Tmr_inject.Campaign
module Workqueue = Tmr_inject.Workqueue
module Partition = Tmr_core.Partition
module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs
module Service = Tmr_experiments.Service

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

let parse_exn line =
  match Events.parse_line line with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse_line %S: %s" line e

(* ------------------------------------------------------------------ *)
(* Jsonl: concurrent writers from several domains never tear lines. *)

let test_jsonl_concurrent () =
  let path = Filename.temp_file "tmr_jsonl" ".jsonl" in
  let sink = Jsonl.make () in
  Jsonl.to_file sink path;
  let domains = 4 and per_domain = 5_000 in
  let workers =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              (* long enough that a torn write would be visible *)
              Jsonl.emit sink
                (Printf.sprintf "{\"domain\":%d,\"i\":%d,\"pad\":%S}" d i
                   (String.make 64 (Char.chr (Char.code 'a' + d))))
            done))
  in
  Array.iter Domain.join workers;
  Jsonl.close sink;
  let lines = read_lines path in
  Alcotest.(check int) "every line written" (domains * per_domain)
    (List.length lines);
  let seen = Array.make_matrix domains (per_domain + 1) false in
  List.iter
    (fun line ->
      (* a torn or interleaved line fails this exact-shape scan *)
      Scanf.sscanf line "{\"domain\":%d,\"i\":%d,\"pad\":%S}" (fun d i pad ->
          Alcotest.(check int) "pad intact" 64 (String.length pad);
          Alcotest.(check char) "pad is the writer's byte"
            (Char.chr (Char.code 'a' + d))
            pad.[0];
          if seen.(d).(i) then Alcotest.failf "duplicate line %d/%d" d i;
          seen.(d).(i) <- true))
    lines;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Event stream: every variant round-trips through the file sink;
   sequence numbers are dense and timestamps monotone. *)

let all_events =
  [
    Events.Campaign_started { design = "tmr_p2"; faults = 150; workers = 4 };
    Events.Campaign_progress
      { design = "tmr_p2"; completed = 50; total = 150; wrong = 2 };
    Events.Campaign_stopped
      {
        design = "tmr_p2";
        requested = 150;
        injected = 150;
        wrong = 5;
        wall_ns = 1_234_567_890;
      };
    Events.Batch_dispatched { design = "tmr_p2"; lanes = 64 };
    Events.Worker_heartbeat
      { worker = 2; busy_ns = 900_000; idle_ns = 100_000; items = 17 };
    Events.Plan_paths
      {
        design = "tmr_p2";
        silent = 80;
        patched = 30;
        rerouted = 20;
        rebuilt = 10;
        diffed = 8;
        batched = 64;
      };
    Events.Manifest_written { design = "tmr_p2"; path = "/tmp/x.json" };
  ]

let test_event_roundtrip () =
  let path = Filename.temp_file "tmr_events" ".jsonl" in
  Events.to_file path;
  List.iter Events.publish all_events;
  Events.close ();
  let lines = read_lines path in
  Alcotest.(check int) "one line per event" (List.length all_events)
    (List.length lines);
  let parsed = List.map parse_exn lines in
  List.iteri
    (fun i p ->
      Alcotest.(check int) "seq dense from 0" i p.Events.p_seq;
      if i > 0 then
        Alcotest.(check bool) "ts monotone" true
          (p.Events.p_ts_ns
          >= (List.nth parsed (i - 1)).Events.p_ts_ns))
    parsed;
  List.iter2
    (fun sent p ->
      if sent <> p.Events.p_event then
        Alcotest.failf "event %s did not round-trip" (Events.type_name sent))
    all_events parsed;
  Alcotest.(check int) "published counts all" (List.length all_events)
    (Events.published ());
  Sys.remove path

let test_render_parse_inverse () =
  List.iteri
    (fun i ev ->
      let line = Events.render ~seq:i ~ts_ns:(1000 + i) ev in
      let p = parse_exn line in
      Alcotest.(check int) "seq" i p.Events.p_seq;
      Alcotest.(check int) "ts_ns" (1000 + i) p.Events.p_ts_ns;
      if p.Events.p_event <> ev then
        Alcotest.failf "render/parse not inverse for %s"
          (Events.type_name ev))
    all_events

(* Concurrent publishers share one synchronous sink: every event lands
   as a whole line and the stream's seq is dense and in file order. *)
let test_event_concurrent_dense () =
  let path = Filename.temp_file "tmr_events_conc" ".jsonl" in
  Events.to_file path;
  let domains = 4 and per_domain = 2_000 in
  let workers =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Events.publish
                (Events.Campaign_progress
                   { design = "firehose"; completed = i; total = per_domain;
                     wrong = d })
            done))
  in
  Array.iter Domain.join workers;
  Events.close ();
  let lines = read_lines path in
  Alcotest.(check int) "every publish written" (domains * per_domain)
    (List.length lines);
  Alcotest.(check int) "published = lines" (List.length lines)
    (Events.published ());
  List.iteri
    (fun i l ->
      Alcotest.(check int) "seq dense in file order" i (parse_exn l).Events.p_seq)
    lines;
  Sys.remove path

(* A follower never consumes a line whose newline has not landed: it
   reads the whole line once the rest of the write arrives. *)
let test_input_whole_line () =
  let path = Filename.temp_file "tmr_events_tail" ".jsonl" in
  let append text =
    let oc = open_out_gen [ Open_append ] 0o644 path in
    output_string oc text;
    close_out oc
  in
  append "{\"a\":1}\n{\"b\":";
  let ic = open_in path in
  let next () = Events.input_whole_line ic in
  Alcotest.(check (option string)) "whole line" (Some "{\"a\":1}") (next ());
  Alcotest.(check (option string)) "half a line is left unread" None (next ());
  Alcotest.(check (option string)) "still unread" None (next ());
  append "2}\n";
  Alcotest.(check (option string)) "rest landed" (Some "{\"b\":2}") (next ());
  Alcotest.(check (option string)) "at the end" None (next ());
  close_in ic;
  Sys.remove path

(* An origin that [origin_suffix] could not have written, an ill-typed
   oseq, or an integral seq outside the int range is an error, never a
   phantom process 0. *)
let test_parse_rejects_malformed () =
  let base = Events.render ~seq:0 ~ts_ns:0 (List.hd all_events) in
  let with_field kv = String.sub base 0 (String.length base - 1) ^ "," ^ kv ^ "}" in
  List.iter
    (fun line ->
      match Events.parse_line line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error _ -> ())
    [
      with_field "\"origin\":\"garbage\"";
      with_field "\"origin\":{}";
      with_field "\"origin\":{\"pid\":\"x\",\"worker\":1.5}";
      with_field
        "\"origin\":{\"pid\":1,\"worker\":1,\"shard\":0,\"job\":\"j\"},\"oseq\":\"x\"";
      "{\"seq\":1e300" ^ String.sub base 8 (String.length base - 8);
    ];
  let ok =
    with_field "\"origin\":{\"pid\":1,\"worker\":2,\"shard\":-1,\"job\":\"j\"}"
  in
  match (parse_exn ok).Events.p_origin with
  | Some o -> Alcotest.(check int) "well-formed origin parses" 2 o.Events.o_worker
  | None -> Alcotest.fail "well-formed origin dropped"

(* ------------------------------------------------------------------ *)
(* Substring search for report texts *)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Profiler: hand-built trace with known nesting. *)

let span ~name ~ts ~dur ~tid =
  Printf.sprintf "{\"name\":%S,\"cat\":\"flow\",\"ph\":\"X\",\"ts\":%f,\"dur\":%f,\"pid\":1,\"tid\":%d,\"args\":{}}"
    name ts dur tid

let test_profile_nesting () =
  (* tid 0: outer [0,100] containing a[10,30] and b[40,20];
     tid 1: solo [0,50].  Self(outer) = 100-30-20 = 50. *)
  let lines =
    [
      span ~name:"outer" ~ts:0.0 ~dur:100.0 ~tid:0;
      span ~name:"a" ~ts:10.0 ~dur:30.0 ~tid:0;
      span ~name:"b" ~ts:40.0 ~dur:20.0 ~tid:0;
      span ~name:"solo" ~ts:0.0 ~dur:50.0 ~tid:1;
      "{\"not\":\"a span\"}";
    ]
  in
  let t =
    match Profile.of_lines lines with
    | Ok t -> t
    | Error e -> Alcotest.failf "of_lines: %s" e
  in
  let table = Profile.span_table t in
  Alcotest.(check bool) "table lists outer" true
    (contains ~needle:"outer" table);
  let collapsed = Profile.collapsed t in
  let stacks =
    String.split_on_char '\n' collapsed |> List.filter (fun l -> l <> "")
  in
  let find path =
    match
      List.find_opt
        (fun l -> contains ~needle:(path ^ " ") l)
        stacks
    with
    | Some l ->
        let i = String.rindex l ' ' in
        int_of_string (String.sub l (i + 1) (String.length l - i - 1))
    | None -> Alcotest.failf "stack %S missing from %s" path collapsed
  in
  Alcotest.(check int) "outer self = dur - children" 50 (find "outer");
  Alcotest.(check int) "child a self" 30 (find "outer;a");
  Alcotest.(check int) "child b self" 20 (find "outer;b");
  Alcotest.(check int) "solo root on its own tid" 50 (find "solo");
  let report = Profile.report t in
  Alcotest.(check bool) "report mentions both tids" true
    (contains ~needle:"2 tids" report
    || contains ~needle:"tids: 2" report
    || contains ~needle:"tid" report)

let test_profile_errors () =
  (match Profile.of_lines [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty trace should error");
  match Profile.of_lines [ "{broken" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed JSON should error"

(* ------------------------------------------------------------------ *)
(* Histogram extrema are exact, also under concurrency. *)

let test_hist_min_max () =
  let h = Metrics.histogram "test.extrema.empty" in
  let s =
    List.assoc "test.extrema.empty" (Metrics.snapshot ()).Metrics.histograms
  in
  Alcotest.(check int) "empty min" 0 s.Metrics.min;
  Alcotest.(check int) "empty max" 0 s.Metrics.max;
  Metrics.observe h 573;
  let s =
    List.assoc "test.extrema.empty" (Metrics.snapshot ()).Metrics.histograms
  in
  Alcotest.(check int) "single sample min" 573 s.Metrics.min;
  Alcotest.(check int) "single sample max" 573 s.Metrics.max;
  let hc = Metrics.histogram "test.extrema.concurrent" in
  let domains = 4 and per_domain = 10_000 in
  let workers =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              (* the global extremes 1 and 40_000 appear on specific
                 iterations of specific domains *)
              Metrics.observe hc ((d * per_domain) + i)
            done))
  in
  Array.iter Domain.join workers;
  let s =
    List.assoc "test.extrema.concurrent"
      (Metrics.snapshot ()).Metrics.histograms
  in
  Alcotest.(check int) "concurrent min exact" 1 s.Metrics.min;
  Alcotest.(check int) "concurrent max exact" (domains * per_domain)
    s.Metrics.max

(* ------------------------------------------------------------------ *)
(* Distributed telemetry: per-worker spools, the respool relay,
   cross-process metrics folding and watch-side fleet accounting.  Anything that forks lives in test_fleet.ml: this
   binary spawns domains, and Unix.fork is unavailable after that. *)

(* spool mode: line-per-event file with a worker-local dense seq and an
   origin stamp carrying pid/worker/shard/job *)
let test_spool_roundtrip () =
  let path = Filename.temp_file "tmr_spool" ".jsonl" in
  Events.spool ~path ~worker:3 ~job:"jobX";
  Alcotest.(check bool) "spool mode counts as enabled" true (Events.enabled ());
  Events.publish (List.nth all_events 0);
  Events.set_shard 7;
  Events.publish (List.nth all_events 1);
  Events.set_shard (-1);
  Events.publish (List.nth all_events 2);
  Events.close ();
  let parsed = List.map parse_exn (read_lines path) in
  Alcotest.(check int) "three lines" 3 (List.length parsed);
  let me = Unix.getpid () in
  List.iteri
    (fun i p ->
      Alcotest.(check int) "spool seq dense from 0" i p.Events.p_seq;
      match p.Events.p_origin with
      | None -> Alcotest.fail "spool line lost its origin"
      | Some o ->
          Alcotest.(check int) "origin pid" me o.Events.o_pid;
          Alcotest.(check int) "origin worker" 3 o.Events.o_worker;
          Alcotest.(check string) "origin job" "jobX" o.Events.o_job;
          Alcotest.(check int) "origin seq mirrors spool seq" i
            o.Events.o_seq;
          Alcotest.(check int) "shard tracks set_shard"
            (if i = 1 then 7 else -1)
            o.Events.o_shard)
    parsed;
  Sys.remove path

(* respool_line + publish_payload: relaying a spool into a parent stream
   re-sequences the line, keeps the origin and records the worker-local
   seq as oseq *)
let test_respool_merge () =
  let spool = Filename.temp_file "tmr_respool_in" ".jsonl" in
  Events.spool ~path:spool ~worker:2 ~job:"relay";
  List.iter Events.publish all_events;
  Events.close ();
  let spool_lines = read_lines spool in
  let merged = Filename.temp_file "tmr_respool_out" ".jsonl" in
  Events.to_file merged;
  List.iter
    (fun line ->
      match Events.respool_line line with
      | Some (_oseq, payload) -> Events.publish_payload payload
      | None -> Alcotest.failf "respool_line rejected %S" line)
    spool_lines;
  Events.close ();
  let parsed = List.map parse_exn (read_lines merged) in
  Alcotest.(check int) "every line relayed" (List.length all_events)
    (List.length parsed);
  List.iteri
    (fun i p ->
      Alcotest.(check int) "merged seq dense" i p.Events.p_seq;
      (match p.Events.p_origin with
      | None -> Alcotest.fail "relay dropped the origin"
      | Some o ->
          Alcotest.(check int) "oseq = worker-local seq" i o.Events.o_seq;
          Alcotest.(check int) "worker slot survives" 2 o.Events.o_worker);
      if p.Events.p_event <> List.nth all_events i then
        Alcotest.failf "event %d did not survive the relay" i)
    parsed;
  Sys.remove spool;
  Sys.remove merged

(* cross-process metrics: write_file / read_file / absorb *)
let test_metrics_merge () =
  let c = Metrics.counter "test.merge.counter" in
  Metrics.incr ~by:5 c;
  let g = Metrics.gauge "test.merge.gauge" in
  Metrics.set g 2.5;
  let h = Metrics.histogram "test.merge.hist" in
  Metrics.observe h 10;
  Metrics.observe h 1000;
  let path = Filename.temp_file "tmr_metrics" ".json" in
  Metrics.write_file path;
  let from_file =
    match Metrics.read_file path with
    | Ok s -> s
    | Error e -> Alcotest.failf "read_file: %s" e
  in
  Metrics.set g 7.0;
  Metrics.absorb from_file;
  let m = Metrics.snapshot () in
  Alcotest.(check int) "counters add"
    (2 * List.assoc "test.merge.counter" from_file.Metrics.counters)
    (List.assoc "test.merge.counter" m.Metrics.counters);
  Alcotest.(check (float 1e-9)) "the absorbed gauge wins" 2.5
    (List.assoc "test.merge.gauge" m.Metrics.gauges);
  let hs = List.assoc "test.merge.hist" m.Metrics.histograms in
  Alcotest.(check int) "histogram counts add" 4 hs.Metrics.count;
  Alcotest.(check int) "histogram sums add" 2020 hs.Metrics.sum;
  Alcotest.(check int) "min exact across processes" 10 hs.Metrics.min;
  Alcotest.(check int) "max exact across processes" 1000 hs.Metrics.max;
  Alcotest.(check (float 1e-9)) "mean recomputed" 505.0 hs.Metrics.mean;
  Alcotest.(check (float 1e-9)) "p50 from the merged buckets" 10.0
    hs.Metrics.p50;
  (* buckets still sum to the count after the fold *)
  Alcotest.(check int) "bucket counts sum to count" hs.Metrics.count
    (Array.fold_left (fun a (_, n) -> a + n) 0 hs.Metrics.buckets);
  (* an empty snapshot changes nothing, and a name registered as
     another kind is skipped, not raised on *)
  let empty = { Metrics.counters = []; gauges = []; histograms = [] } in
  Metrics.absorb empty;
  Metrics.absorb
    { empty with Metrics.counters = [ ("test.merge.hist", 3) ];
      gauges = [ ("test.merge.counter", 1.0) ] };
  Alcotest.(check bool) "empty and mismatched snapshots change nothing" true
    (Metrics.snapshot () = m);
  Sys.remove path

(* watch: origin-stamped shard-local events feed the fleet table and
   in-flight progress; only origin-less events drive the verdict *)
let with_origin ~pid ~worker ~shard ~job ~oseq line =
  String.sub line 0 (String.length line - 1)
  ^ Printf.sprintf
      ",\"origin\":{\"pid\":%d,\"worker\":%d,\"shard\":%d,\"job\":%S},\"oseq\":%d}"
      pid worker shard job oseq

let test_watch_fleet () =
  let w = Watch.create () in
  let feed line = Watch.feed w (parse_exn line) in
  let s = 1_000_000_000 in
  (* origin-less: the fleet campaign *)
  feed
    (Events.render ~seq:0 ~ts_ns:0
       (Events.Campaign_started { design = "d"; faults = 100; workers = 2 }));
  (* worker 1 (pid 41) makes progress, then goes silent *)
  feed
    (with_origin ~pid:41 ~worker:1 ~shard:0 ~job:"j" ~oseq:0
       (Events.render ~seq:1 ~ts_ns:s
          (Events.Campaign_progress
             { design = "d"; completed = 10; total = 25; wrong = 0 })));
  (* worker 2 (pid 42) progresses much later *)
  feed
    (with_origin ~pid:42 ~worker:2 ~shard:1 ~job:"j" ~oseq:0
       (Events.render ~seq:2 ~ts_ns:(30 * s)
          (Events.Campaign_progress
             { design = "d"; completed = 20; total = 25; wrong = 1 })));
  Alcotest.(check int) "two fleet workers" 2 (Watch.fleet_workers w);
  Alcotest.(check int) "no origin gaps yet" 0 (Watch.origin_gaps w);
  (* live display: base (no shards merged yet) + in-flight 10 + 20 *)
  let live = Watch.render ~worker_timeout:5.0 w in
  Alcotest.(check bool) "silent worker flagged STALE" true
    (contains ~needle:"STALE" live);
  Alcotest.(check bool) "progress sums the in-flight shards" true
    (contains ~needle:"    30/100" live);
  (* a worker-local seq jump is per-origin loss accounting *)
  feed
    (with_origin ~pid:42 ~worker:2 ~shard:1 ~job:"j" ~oseq:3
       (Events.render ~seq:3 ~ts_ns:(31 * s)
          (Events.Campaign_progress
             { design = "d"; completed = 22; total = 25; wrong = 1 })));
  Alcotest.(check int) "origin gap recorded" 2 (Watch.origin_gaps w);
  (* shard-local stop: worker bookkeeping only, campaign still live *)
  feed
    (with_origin ~pid:42 ~worker:2 ~shard:1 ~job:"j" ~oseq:4
       (Events.render ~seq:4 ~ts_ns:(32 * s)
          (Events.Campaign_stopped
             { design = "d"; requested = 25; injected = 25; wrong = 1; wall_ns = s })));
  Alcotest.(check bool) "shard-local stop is not the campaign stop" false
    (Watch.finished w);
  (* origin-less stop: authoritative verdict, exact summary *)
  feed
    (Events.render ~seq:5 ~ts_ns:(33 * s)
       (Events.Campaign_stopped
          { design = "d"; requested = 100; injected = 100; wrong = 3; wall_ns = 32 * s }));
  Alcotest.(check bool) "fleet campaign finished" true (Watch.finished w);
  Alcotest.(check bool) "summary carries the authoritative verdict" true
    (contains ~needle:"\"injected\":100,\"wrong\":3"
       (Watch.summary_json w));
  (* once finished, nobody is stale *)
  Alcotest.(check bool) "no STALE after the run" false
    (contains ~needle:"STALE" (Watch.render ~worker_timeout:5.0 w))

(* ------------------------------------------------------------------ *)
(* Fuzzing the stream readers: byte flips, truncations and splices of
   rendered lines of every variant — bare, spooled (origin) and relayed
   (origin + oseq).  [parse_line] and [respool_line] never raise, and a
   line [respool_line] accepts always relays into a line that parses
   back with [o_seq] = the worker-local seq it reported. *)

let fuzz_corpus =
  lazy
    (let variants =
       all_events
       @ [
           Events.Campaign_detection
             { design = "tmr_p2"; silent_correct = 90; detected_corrected = 5;
               detected_wrong = 3; silent_wrong = 2 };
           Events.Shard_done
             { design = "tmr_p2"; shard = 3; lo = 30; hi = 40; wrong = 1;
               pending = 2 };
         ]
     in
     List.concat
       (List.mapi
          (fun i ev ->
            let line = Events.render ~seq:i ~ts_ns:(1000 * i) ev in
            let spooled =
              String.sub line 0 (String.length line - 1)
              ^ Printf.sprintf
                  ",\"origin\":{\"pid\":%d,\"worker\":1,\"shard\":%d,\"job\":\"j\"}}"
                  (100 + i) (i - 2)
            in
            [ line; spooled;
              with_origin ~pid:7 ~worker:2 ~shard:i ~job:"j" ~oseq:i line ])
          variants)
     |> Array.of_list)

let qcheck_mutated_lines_fail_closed =
  QCheck.Test.make ~count:2000 ~name:"mutated event lines fail closed"
    Fuzz.input
    (fun input ->
      let line = Fuzz.mutate (Lazy.force fuzz_corpus) input in
      (match Events.parse_line line with Ok _ | Error _ -> ());
      match Events.respool_line line with
      | None -> true
      | Some (oseq, payload) -> (
          match
            Events.parse_line
              (Printf.sprintf "{\"seq\":%d,\"ts_ns\":%d%s" 9 99 payload)
          with
          | Ok { Events.p_origin = Some o; _ } -> o.Events.o_seq = oseq
          | Ok _ | Error _ -> false))

(* The metrics-snapshot reader parses worker files from disk on every
   forked run: [Json.parse] and [Metrics.of_json_string] return a
   result on any mutation of a printed snapshot and never raise. *)

let snapshot_corpus =
  lazy
    (let h = Metrics.histogram "test.fuzz.hist" in
     List.iter (Metrics.observe h) [ 0; 7; 900; max_int ];
     Metrics.incr ~by:3 (Metrics.counter "test.fuzz.counter");
     Metrics.set (Metrics.gauge "test.fuzz.gauge") (-2.5e-3);
     let snap = Metrics.snapshot () in
     [| Metrics.to_json_string snap; Metrics.to_json_string ~indent:0 snap |])

let qcheck_mutated_snapshots_fail_closed =
  QCheck.Test.make ~count:2000 ~name:"mutated metrics snapshots fail closed"
    Fuzz.input
    (fun input ->
      let doc = Fuzz.mutate (Lazy.force snapshot_corpus) input in
      (match Json.parse doc with Ok _ | Error _ -> ());
      match Metrics.of_json_string doc with Ok _ | Error _ -> true)

(* printing then parsing any JSON value gives it back *)
let json_gen =
  let open QCheck.Gen in
  let finite f = if Float.is_finite f then f else 0.0 in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Num (finite f)) float;
        map (fun i -> Json.Num (float_of_int i)) int;
        map (fun s -> Json.Str s) string;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n / 2))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 4) (pair string (self (n / 2)))) );
             ])

let qcheck_json_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"Json.parse inverts Json.to_string"
    (QCheck.make ~print:Json.to_string json_gen)
    (fun j -> Json.parse (Json.to_string j) = Ok j)

(* Integral numbers print as the digits "%.0f" writes (negative zero as
   "-0"); others, and integers from 1e15 on, as "%.17g". *)
let test_json_numbers () =
  List.iter
    (fun (f, expected) ->
      Alcotest.(check string) (Printf.sprintf "%h" f) expected
        (Json.to_string (Json.Num f));
      Alcotest.(check string) (Printf.sprintf "%h as %%.0f" f)
        (if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
         else Printf.sprintf "%.17g" f)
        (Json.to_string (Json.Num f)))
    [
      (0.0, "0");
      (-0.0, "-0");
      (1.0, "1");
      (-7.0, "-7");
      (4242.0, "4242");
      (999_999_999_999_999.0, "999999999999999");
      (-999_999_999_999_999.0, "-999999999999999");
      (1e15, "1000000000000000");
      (0.5, "0.5");
      (-2.25, "-2.25");
    ]

(* ------------------------------------------------------------------ *)
(* End to end: events on vs. events off gives bit-identical verdicts,
   and the stream alone reproduces the final n/wrong/CI. *)

let ctx = lazy (Context.create ~scale:Context.Reduced ~seed:2 ~faults_per_design:40 ())

let test_campaign_events_exact () =
  let ctx = Lazy.force ctx in
  let run = Runs.implement_design ctx Partition.Medium_partition in
  let quiet =
    Option.get
      (Runs.campaign_design ~workers:2 ctx run).Runs.campaign
  in
  let path = Filename.temp_file "tmr_campaign_events" ".jsonl" in
  Events.to_file path;
  let live =
    Fun.protect
      ~finally:(fun () -> Events.close ())
      (fun () ->
        Option.get
          (Runs.campaign_design ~workers:2 ctx run).Runs.campaign)
  in
  Alcotest.(check bool) "verdicts bit-identical with events on" true
    (quiet.Campaign.results = live.Campaign.results);
  let w = Watch.create () in
  List.iter (fun l -> Watch.feed w (parse_exn l)) (read_lines path);
  Alcotest.(check bool) "stream is complete" true (Watch.gaps w = 0);
  Alcotest.(check bool) "watch sees the campaign finish" true
    (Watch.finished w);
  (* the watch-side summary carries the engine's exact n/wrong/CI *)
  let summary = Watch.summary_json w in
  let ci = Campaign.ci live in
  let expected =
    Printf.sprintf
      "\"injected\":%d,\"wrong\":%d,\"wrong_percent\":%.4f,\"ci\":{\"confidence\":%g,\"lo\":%.6f,\"hi\":%.6f}"
      live.Campaign.injected live.Campaign.wrong
      (Campaign.wrong_percent live)
      0.95 ci.Stats.lo ci.Stats.hi
  in
  Alcotest.(check bool)
    (Printf.sprintf "summary %s contains %s" summary expected)
    true
    (contains ~needle:expected summary);
  Sys.remove path

let () =
  Alcotest.run "telemetry"
    [
      ( "jsonl",
        [ Alcotest.test_case "concurrent writers" `Quick test_jsonl_concurrent ]
      );
      ( "events",
        [
          Alcotest.test_case "roundtrip + ordering" `Quick test_event_roundtrip;
          Alcotest.test_case "render/parse inverse" `Quick
            test_render_parse_inverse;
          Alcotest.test_case "concurrent publishers dense" `Quick
            test_event_concurrent_dense;
          Alcotest.test_case "input_whole_line waits for the newline" `Quick
            test_input_whole_line;
          Alcotest.test_case "malformed lines rejected" `Quick
            test_parse_rejects_malformed;
          QCheck_alcotest.to_alcotest qcheck_mutated_lines_fail_closed;
        ] );
      ( "profile",
        [
          Alcotest.test_case "nesting + self time" `Quick test_profile_nesting;
          Alcotest.test_case "error paths" `Quick test_profile_errors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "exact min/max" `Quick test_hist_min_max;
          QCheck_alcotest.to_alcotest qcheck_mutated_snapshots_fail_closed;
          QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
          Alcotest.test_case "Json integral numbers" `Quick test_json_numbers;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "events-on identical + watch exact" `Slow
            test_campaign_events_exact;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "spool origin roundtrip" `Quick
            test_spool_roundtrip;
          Alcotest.test_case "respool relay keeps origin + oseq" `Quick
            test_respool_merge;
          Alcotest.test_case "metrics fold across processes" `Quick
            test_metrics_merge;
          Alcotest.test_case "watch fleet table + staleness" `Quick
            test_watch_fleet;
        ] );
    ]
