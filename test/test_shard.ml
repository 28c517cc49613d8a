(* Sharded, resumable, multi-process campaigns: planner arithmetic,
   result-line and manifest codecs, the on-disk work queue (claims,
   crash reclaim), and the end-to-end guarantee — the merged sharded
   result is bit-identical to a plain single-process campaign, across
   interruption/resume and across process counts. *)

module Partition = Tmr_core.Partition
module Campaign = Tmr_inject.Campaign
module Classify = Tmr_inject.Classify
module Shard = Tmr_inject.Shard
module Workqueue = Tmr_inject.Workqueue
module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs
module Service = Tmr_experiments.Service
module Store = Tmr_experiments.Store
module Events = Tmr_obs.Events

let ctx =
  lazy (Context.create ~scale:Context.Reduced ~seed:2 ~faults_per_design:40 ())

let run_p2 =
  lazy (Runs.implement_design (Lazy.force ctx) Partition.Medium_partition)

let temp_counter = ref 0

let temp_dir tag =
  incr temp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tmr-shard-%s-%d-%d" tag (Unix.getpid ()) !temp_counter)
  in
  (* stale leftovers from a crashed previous test run *)
  if Sys.file_exists d then
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote d)));
  d

(* --- planner ---------------------------------------------------------- *)

let test_plan_tiles () =
  List.iter
    (fun (total, shards) ->
      let plan = Shard.plan ~total ~shards in
      let expect = ref 0 in
      Array.iter
        (fun r ->
          Alcotest.(check int) "contiguous" !expect r.Shard.sh_lo;
          Alcotest.(check bool) "non-empty" true (r.Shard.sh_hi > r.Shard.sh_lo);
          expect := r.Shard.sh_hi)
        plan;
      Alcotest.(check int) "covers the space" total !expect;
      (* balanced: sizes differ by at most one *)
      let sizes =
        Array.map (fun r -> r.Shard.sh_hi - r.Shard.sh_lo) plan
      in
      if Array.length sizes > 0 then begin
        let mn = Array.fold_left min max_int sizes in
        let mx = Array.fold_left max 0 sizes in
        Alcotest.(check bool) "balanced" true (mx - mn <= 1)
      end;
      Alcotest.(check int) "shard count" (min shards total) (Array.length plan))
    [ (0, 4); (1, 4); (4, 4); (5, 4); (100, 7); (1500, 16); (3, 100) ]

let test_plan_invalid () =
  Alcotest.check_raises "shards=0" (Invalid_argument "Shard.plan: shards must be positive")
    (fun () -> ignore (Shard.plan ~total:10 ~shards:0));
  Alcotest.check_raises "total<0" (Invalid_argument "Shard.plan: negative total")
    (fun () -> ignore (Shard.plan ~total:(-1) ~shards:4))

let test_ranges_missing () =
  let missing =
    Shard.ranges_missing ~total:100 ~shards:4 ~done_ids:(fun id -> id = 1)
  in
  Alcotest.(check (list int)) "skips done ids" [ 0; 2; 3 ]
    (List.map (fun r -> r.Shard.sh_id) missing)

(* --- codecs ----------------------------------------------------------- *)

(* a results body: the records of [rs], in order *)
let records_body rs =
  let b = Bytes.create (Shard.record_bytes * List.length rs) in
  List.iteri (fun i r -> Shard.put_record b (Shard.record_bytes * i) r) rs;
  Bytes.to_string b

(* Every outcome x effect, with boundary bits and cycles, survives one
   results body: records are read back by position, in order. *)
let test_record_roundtrip () =
  let bits = [ 0; 4242; -1; max_int; min_int ] in
  let cycles =
    [ -1; 0; 12; Int32.to_int Int32.max_int; Int32.to_int Int32.min_int ]
  in
  let rs =
    List.concat_map
      (fun effect ->
        List.concat_map
          (fun outcome ->
            List.concat_map
              (fun bit ->
                List.map
                  (fun cycle ->
                    {
                      Campaign.bit;
                      outcome;
                      effect;
                      first_error_cycle = cycle;
                      detect_cycle = -1 - cycle;
                      forensics = None;
                    })
                  cycles)
              bits)
          [ Campaign.Silent; Campaign.Wrong_answer ])
      Classify.all
  in
  let n = List.length rs in
  (* the trailing bytes stand for a reused buffer's stale tail *)
  let buf = Bytes.of_string (records_body rs ^ "stale") in
  match Shard.records_of_bytes buf ~len:(n * Shard.record_bytes) ~count:n with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok rs' ->
      Alcotest.(check bool)
        (Printf.sprintf "%d records survive in order" n)
        true
        (rs = Array.to_list rs')

(* The --merged-out line format, pinned byte for byte: every outcome and
   effect name, negative and extreme integers. *)
let test_result_line_encoder () =
  let line ~index bit outcome effect first_error_cycle detect_cycle =
    Shard.result_to_line ~index
      {
        Campaign.bit;
        outcome;
        effect;
        first_error_cycle;
        detect_cycle;
        forensics = None;
      }
  in
  List.iter
    (fun (expected, got) -> Alcotest.(check string) "pinned line" expected got)
    [
      ( {|{"index":0,"bit":77,"outcome":"silent","effect":"LUT","first_error_cycle":-1,"detect_cycle":-1}|},
        line ~index:0 77 Campaign.Silent Classify.Lut_effect (-1) (-1) );
      ( {|{"index":12,"bit":4242,"outcome":"wrong_answer","effect":"MUX","first_error_cycle":3,"detect_cycle":0}|},
        line ~index:12 4242 Campaign.Wrong_answer Classify.Mux_effect 3 0 );
      ( {|{"index":1,"bit":9,"outcome":"wrong_answer","effect":"Initialization","first_error_cycle":10,"detect_cycle":99}|},
        line ~index:1 9 Campaign.Wrong_answer Classify.Init_effect 10 99 );
      ( {|{"index":2,"bit":10,"outcome":"silent","effect":"Open","first_error_cycle":-10,"detect_cycle":-4242}|},
        line ~index:2 10 Campaign.Silent Classify.Open_effect (-10) (-4242) );
      ( {|{"index":3,"bit":0,"outcome":"silent","effect":"Bridge","first_error_cycle":0,"detect_cycle":1}|},
        line ~index:3 0 Campaign.Silent Classify.Bridge_effect 0 1 );
      ( {|{"index":4611686018427387903,"bit":-4611686018427387904,"outcome":"wrong_answer","effect":"Input-Antenna","first_error_cycle":123456789,"detect_cycle":-4611686018427387903}|},
        line ~index:max_int min_int Campaign.Wrong_answer Classify.Antenna_effect
          123456789 (-max_int) );
      ( {|{"index":5,"bit":6,"outcome":"wrong_answer","effect":"Conflict","first_error_cycle":7,"detect_cycle":8}|},
        line ~index:5 6 Campaign.Wrong_answer Classify.Conflict_effect 7 8 );
      ( {|{"index":6,"bit":7,"outcome":"silent","effect":"Others","first_error_cycle":8,"detect_cycle":-1}|},
        line ~index:6 7 Campaign.Silent Classify.Other_effect 8 (-1) );
    ]

(* The record reader refuses every body it cannot decode exactly. *)
let test_record_rejects () =
  let r =
    {
      Campaign.bit = 77;
      outcome = Campaign.Wrong_answer;
      effect = Classify.Other_effect;
      first_error_cycle = 12;
      detect_cycle = 4;
      forensics = None;
    }
  in
  let body n = Bytes.of_string (records_body (List.init n (fun _ -> r))) in
  let read b ~count = Shard.records_of_bytes b ~len:(Bytes.length b) ~count in
  (match read (body 3) ~count:3 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "the written body is rejected: %s" e);
  let poke k off v =
    let b = body 3 in
    Bytes.set_uint8 b ((k * Shard.record_bytes) + off) v;
    b
  in
  let bad_bit =
    let b = body 3 in
    Bytes.set_int64_le b Shard.record_bytes Int64.max_int;
    b
  in
  List.iter
    (fun (what, b, count, needle) ->
      match read b ~count with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S starts with %S" what e needle)
            true
            (String.starts_with ~prefix:needle e))
    [
      ("outcome code 2", poke 1 8 2, 3, "record 1: outcome code 2");
      ("outcome code 255", poke 2 8 255, 3, "record 2: outcome code 255");
      ( "effect code past the list",
        poke 0 9 (List.length Classify.all),
        3,
        "record 0: effect code" );
      ("effect code 255", poke 2 9 255, 3, "record 2: effect code 255");
      ("bit past max_int", bad_bit, 3, "record 1: bit");
      ("one record short", body 3, 4, "54 bytes, not 4 records");
      ("one record long", body 3, 2, "54 bytes, not 2 records");
      ("a truncated record", Bytes.sub (body 3) 0 53, 3, "53 bytes");
      ("a trailing byte", Bytes.cat (body 3) (Bytes.make 1 '\000'), 3, "55 bytes");
      ("empty for a 1-fault shard", Bytes.empty, 1, "0 bytes");
    ];
  Alcotest.check_raises "a cycle past int32"
    (Invalid_argument "Shard.put_record: cycle outside the int32 range")
    (fun () ->
      Shard.put_record (body 1) 0
        { r with Campaign.first_error_cycle = 1 lsl 31 })

let test_manifest_roundtrip () =
  let m =
    {
      Shard.sm_id = 3;
      sm_lo = 30;
      sm_hi = 40;
      sm_wrong = 2;
      sm_stats =
        {
          Campaign.skipped = 1;
          patched = 2;
          rerouted = 3;
          rebuilt = 4;
          diffed = 5;
          converged = 0;
          batched = 7;
        };
      sm_wall_ns = 123456;
      sm_busy_ns = 111111;
      sm_setup_ns = 22222;
      sm_owner = 999;
      sm_fingerprint = "cafe1234";
    }
  in
  match Shard.manifest_of_json (Shard.manifest_to_json m) with
  | Error e -> Alcotest.failf "manifest roundtrip: %s" e
  | Ok m' -> Alcotest.(check bool) "manifest survives" true (m = m')

let test_shard_events_roundtrip () =
  List.iter
    (fun ev ->
      let line = Events.render ~seq:5 ~ts_ns:123 ev in
      match Events.parse_line line with
      | Error e -> Alcotest.failf "parse %s: %s" line e
      | Ok p ->
          Alcotest.(check bool)
            (Events.type_name ev ^ " survives")
            true
            (p.Events.p_event = ev))
    [
      Events.Shard_done
        { design = "tmr_p2"; shard = 3; lo = 30; hi = 40; wrong = 1; pending = 2 };
    ]

(* Fuzzing the shard readers ({!Fuzz}) over results files of verdict
   records and a manifest.  Both come from disk, so
   [Workqueue.read_results] and [manifest_of_json] must answer [Error]
   rather than raise, however the bytes were damaged. *)

let fuzz_manifest =
  {
    Shard.sm_id = 3;
    sm_lo = 30;
    sm_hi = 40;
    sm_wrong = 2;
    sm_stats =
      {
        Campaign.skipped = 1;
        patched = 2;
        rerouted = 3;
        rebuilt = 4;
        diffed = 5;
        converged = 0;
        batched = 7;
      };
    sm_wall_ns = 123456;
    sm_busy_ns = 111111;
    sm_setup_ns = 22222;
    sm_owner = 999;
    sm_fingerprint = "cafe1234";
  }

let shard_fuzz_corpus =
  lazy
    (let results =
       List.map
         (fun effect ->
           records_body
             [
               {
                 Campaign.bit = 77;
                 outcome = Campaign.Wrong_answer;
                 effect;
                 first_error_cycle = 12;
                 detect_cycle = 4;
                 forensics = None;
               };
               {
                 Campaign.bit = 9;
                 outcome = Campaign.Silent;
                 effect;
                 first_error_cycle = -1;
                 detect_cycle = -1;
                 forensics = None;
               };
             ])
         Classify.all
     in
     let manifest =
       Tmr_obs.Json.to_string (Shard.manifest_to_json fuzz_manifest)
     in
     Array.of_list (manifest :: results))

(* every body the record reader accepts is one the encoder writes *)
let qcheck_accepted_records_reencode =
  QCheck.Test.make ~count:3000
    ~name:"accepted verdict records re-encode to themselves" Fuzz.input
    (fun input ->
      let text = Fuzz.mutate (Lazy.force shard_fuzz_corpus) input in
      let count = String.length text / Shard.record_bytes in
      match
        Shard.records_of_bytes (Bytes.of_string text) ~len:(String.length text)
          ~count
      with
      | Ok rs -> records_body (Array.to_list rs) = text
      | Error _ -> true)

(* the mutated bytes as shard 3's results file, read back through the
   queue for a shard of as many faults as whole records fit *)
let fuzz_queue = lazy (Workqueue.create ~dir:(temp_dir "fuzz"))

let qcheck_mutated_shard_files_fail_closed =
  QCheck.Test.make ~count:3000
    ~name:"mutated verdict records and manifests fail closed" Fuzz.input
    (fun input ->
      let text = Fuzz.mutate (Lazy.force shard_fuzz_corpus) input in
      let wq = Lazy.force fuzz_queue in
      Out_channel.with_open_bin
        (Filename.concat (Workqueue.dir wq) "results/00003.rec")
        (fun oc -> output_string oc text);
      let m =
        {
          fuzz_manifest with
          Shard.sm_hi =
            fuzz_manifest.Shard.sm_lo + (String.length text / Shard.record_bytes);
        }
      in
      (match Workqueue.read_results wq m with Ok _ | Error _ -> ());
      (match Tmr_obs.Json.parse text with
      | Ok j -> ( match Shard.manifest_of_json j with Ok _ | Error _ -> ())
      | Error _ -> ());
      true)

(* --- work queue ------------------------------------------------------- *)

let mk_manifest (r : Shard.range) =
  {
    Shard.sm_id = r.Shard.sh_id;
    sm_lo = r.Shard.sh_lo;
    sm_hi = r.Shard.sh_hi;
    sm_wrong = 0;
    sm_stats =
      {
        Campaign.skipped = 0;
        patched = 0;
        rerouted = 0;
        rebuilt = 0;
        diffed = 0;
        converged = 0;
        batched = 0;
      };
    sm_wall_ns = 1;
    sm_busy_ns = 1;
    sm_setup_ns = 0;
    sm_owner = Unix.getpid ();
    sm_fingerprint = "fp";
  }

let results_of (r : Shard.range) =
  Array.init
    (r.Shard.sh_hi - r.Shard.sh_lo)
    (fun i ->
      {
        Campaign.bit = 100 + r.Shard.sh_lo + i;
        outcome = Campaign.Silent;
        effect = Classify.Other_effect;
        first_error_cycle = -1;
        detect_cycle = -1;
        forensics = None;
      })

(* a pid guaranteed dead: fork a child that exits immediately *)
let dead_pid () =
  match Unix.fork () with
  | 0 -> Unix._exit 0
  | pid ->
      ignore (Unix.waitpid [] pid);
      pid

let test_workqueue_claims () =
  let wq = Workqueue.create ~dir:(temp_dir "wq") in
  let plan = Array.to_list (Shard.plan ~total:40 ~shards:4) in
  Alcotest.(check int) "seeded 4" 4 (Workqueue.seed wq plan);
  Alcotest.(check int) "seed is idempotent" 0 (Workqueue.seed wq plan);
  Alcotest.(check int) "4 pending" 4 (Workqueue.pending wq);
  let pid = Unix.getpid () in
  let r0 =
    match Workqueue.claim wq ~pid with
    | Some r -> r
    | None -> Alcotest.fail "nothing to claim"
  in
  Alcotest.(check int) "lowest id first" 0 r0.Shard.sh_id;
  (* a claimed range stays pending but cannot be claimed twice *)
  let r1 = Option.get (Workqueue.claim wq ~pid) in
  Alcotest.(check int) "next id" 1 r1.Shard.sh_id;
  Alcotest.(check int) "claims count as pending" 4 (Workqueue.pending wq);
  (* complete persists results + manifest and drops the claim *)
  Workqueue.complete wq ~pid r1 ~results:(results_of r1)
    ~manifest:(mk_manifest r1);
  Alcotest.(check int) "one less pending" 3 (Workqueue.pending wq);
  (match Workqueue.load_done wq with
  | Ok [ m ] ->
      Alcotest.(check int) "done manifest id" 1 m.Shard.sm_id;
      (match Workqueue.read_results wq m with
      | Ok rs ->
          Alcotest.(check int) "results count" (m.Shard.sm_hi - m.Shard.sm_lo)
            (Array.length rs);
          Alcotest.(check bool) "results read back in index order" true
            (rs = results_of r1)
      | Error e -> Alcotest.failf "read_results: %s" e)
  | Ok ms -> Alcotest.failf "expected 1 done manifest, got %d" (List.length ms)
  | Error e -> Alcotest.failf "load_done: %s" e);
  Alcotest.(check (list int)) "done ids" [ 1 ] (Workqueue.done_ids wq);
  (match Workqueue.load_manifest wq 1 with
  | Ok m -> Alcotest.(check int) "manifest by id" 1 m.Shard.sm_id
  | Error e -> Alcotest.failf "load_manifest: %s" e);
  (* a manifest mid-write is its tmp file: not listed, not loadable *)
  let tmp =
    Filename.concat (Filename.concat (Workqueue.dir wq) "done") "00003.json.tmp.1"
  in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc "{");
  Alcotest.(check (list int)) "in-flight id not listed" [ 1 ] (Workqueue.done_ids wq);
  (match Workqueue.load_manifest wq 3 with
  | Ok _ -> Alcotest.fail "in-flight manifest loaded"
  | Error _ -> ());
  Sys.remove tmp;
  (* live claims are not reclaimed *)
  Alcotest.(check int) "own claim is not an orphan" 0
    (Workqueue.reclaim_orphans wq)

let test_workqueue_reclaim () =
  let wq = Workqueue.create ~dir:(temp_dir "wq-orphan") in
  let plan = Array.to_list (Shard.plan ~total:40 ~shards:4) in
  ignore (Workqueue.seed wq plan);
  (* simulate a worker that died mid-shard: its claim file survives
     under a pid that is no longer alive *)
  let pid = dead_pid () in
  let r = Option.get (Workqueue.claim wq ~pid) in
  Alcotest.(check int) "claimed by the dead" 0 r.Shard.sh_id;
  Alcotest.(check int) "one orphan reclaimed" 1 (Workqueue.reclaim_orphans wq);
  let r' = Option.get (Workqueue.claim wq ~pid:(Unix.getpid ())) in
  Alcotest.(check int) "orphaned range claimable again" 0 r'.Shard.sh_id;
  (* a worker killed after its parent (kill -9 of the whole group in a
     container with no reaper) lingers as a zombie: kill(pid, 0) still
     succeeds, but the claim must be reclaimed all the same *)
  let zpid =
    match Unix.fork () with 0 -> Unix._exit 0 | pid -> pid
  in
  Unix.sleepf 0.05;
  let rz = Option.get (Workqueue.claim wq ~pid:zpid) in
  Alcotest.(check int) "claimed by the zombie" 1 rz.Shard.sh_id;
  Alcotest.(check int) "zombie's claim reclaimed" 1
    (Workqueue.reclaim_orphans wq);
  ignore (Unix.waitpid [] zpid)

(* --- merge ------------------------------------------------------------ *)

(* Four intact 10-fault shards over [0, 40), one wrong answer (index 25)
   recorded in both the results and shard 2's manifest. *)
let intact_shards () =
  Array.to_list (Shard.plan ~total:40 ~shards:4)
  |> List.map (fun (r : Shard.range) ->
         let rs =
           Array.init
             (r.Shard.sh_hi - r.Shard.sh_lo)
             (fun k ->
               let i = r.Shard.sh_lo + k in
               {
                 Campaign.bit = 100 + i;
                 outcome =
                   (if i = 25 then Campaign.Wrong_answer else Campaign.Silent);
                 effect = Classify.Other_effect;
                 first_error_cycle = (if i = 25 then 3 else -1);
                 detect_cycle = -1;
                 forensics = None;
               })
         in
         let m = mk_manifest r in
         ({ m with Shard.sm_wrong = (if r.Shard.sh_id = 2 then 1 else 0) }, rs))

let merge40 shards =
  Shard.merge ~design:"tmr_p2" ~total:40 ~procs:1 ~wall_ns:1 shards

(* apply [f] to shard [id] only *)
let with_shard id f =
  List.map (fun ((m, _) as s) -> if m.Shard.sm_id = id then f s else s)

let test_merge_intact () =
  match merge40 (List.rev (intact_shards ())) with
  | Error e -> Alcotest.failf "intact shards refused: %s" e
  | Ok c ->
      Alcotest.(check int) "injected" 40 c.Campaign.injected;
      Alcotest.(check int) "wrong" 1 c.Campaign.wrong;
      Alcotest.(check (list int)) "results in index order"
        (List.init 40 (fun i -> 100 + i))
        (Array.to_list (Array.map (fun r -> r.Campaign.bit) c.Campaign.results))

(* each defect a damaged shard directory can hold is an [Error] naming
   it, never an exception *)
let test_merge_defects () =
  let expect_error name ~needle shards =
    match merge40 shards with
    | Ok _ -> Alcotest.failf "%s: merged anyway" name
    | Error e ->
        let has =
          let n = String.length needle and h = String.length e in
          let rec go i = i + n <= h && (String.sub e i n = needle || go (i + 1)) in
          go 0
        in
        if not has then Alcotest.failf "%s: error %S lacks %S" name e needle
    | exception exn ->
        Alcotest.failf "%s: raised %s" name (Printexc.to_string exn)
  in
  let shards = intact_shards () in
  expect_error "gap" ~needle:"next uncovered"
    (List.filter (fun (m, _) -> m.Shard.sm_id <> 1) shards);
  expect_error "short cover" ~needle:"cover [0,30) of 40"
    (List.filter (fun (m, _) -> m.Shard.sm_id <> 3) shards);
  expect_error "overlap" ~needle:"next uncovered"
    (with_shard 1 (fun (m, rs) -> ({ m with Shard.sm_lo = 5 }, rs)) shards);
  expect_error "same shard twice" ~needle:"next uncovered"
    (List.nth shards 1 :: shards);
  expect_error "inverted range" ~needle:"inverted range"
    (with_shard 3 (fun (m, rs) -> ({ m with Shard.sm_hi = 20 }, rs)) shards);
  expect_error "result count" ~needle:"holds 9 results"
    (with_shard 1 (fun (m, rs) -> (m, Array.sub rs 0 9)) shards);
  expect_error "wrong-count mismatch" ~needle:"claim 999 wrong answers"
    (with_shard 3 (fun (m, rs) -> ({ m with Shard.sm_wrong = 998 }, rs)) shards)

(* --- end-to-end equivalence ------------------------------------------- *)

let result_testable =
  Alcotest.testable
    (fun ppf (r : Campaign.fault_result) ->
      Format.fprintf ppf "{bit=%d; wrong=%b; effect=%s; cycle=%d}"
        r.Campaign.bit
        (r.Campaign.outcome = Campaign.Wrong_answer)
        (Tmr_inject.Classify.name r.Campaign.effect)
        r.Campaign.first_error_cycle)
    ( = )

let check_matches_plain msg (plain : Campaign.t) (merged : Campaign.t) =
  Alcotest.(check int) (msg ^ ": injected") plain.Campaign.injected
    merged.Campaign.injected;
  Alcotest.(check int) (msg ^ ": wrong") plain.Campaign.wrong
    merged.Campaign.wrong;
  Alcotest.(check (array result_testable))
    (msg ^ ": per-fault results")
    plain.Campaign.results merged.Campaign.results;
  Alcotest.(check bool)
    (msg ^ ": plan-path stats")
    true
    (plain.Campaign.stats = merged.Campaign.stats)

(* sharded procs=1 over 4 shards == plain campaign, on all 5 designs *)
let test_sharded_equals_plain_all_designs () =
  let ctx = Lazy.force ctx in
  List.iter
    (fun strategy ->
      let run = Runs.implement_design ctx strategy in
      let plain =
        Option.get (Runs.campaign_design ~workers:1 ctx run).Runs.campaign
      in
      let job =
        Service.job ~scale:Context.Reduced ~seed:2 ~faults:40 ~shards:4
          strategy
      in
      match
        Service.run_sharded
          ~notify:(fun _ -> ())
          ~dir:(temp_dir ("eq-" ^ Partition.name strategy))
          job ctx run
      with
      | Error e -> Alcotest.failf "run_sharded: %s" e
      | Ok (Service.Incomplete _) -> Alcotest.fail "unexpectedly incomplete"
      | Ok (Service.Complete o) ->
          Alcotest.(check int) "all shards fresh" 4 o.Service.o_fresh;
          check_matches_plain (Partition.name strategy) plain
            o.Service.o_campaign)
    Partition.all_paper_designs

(* Every shard a worker process claims runs on one campaign session,
   so a shard runs on worker state earlier shards used.  The exhaustive
   list of each design as 16 shards through one session, last shard
   first (a shard's rebuild singles, which build on the worker's
   workspace, then precede the next shard's batches), at 1 and 2
   workers, equals a fresh campaign per shard and the unsharded
   campaign, fault by fault and in plan-path stats. *)
let test_session_reuse () =
  let ctx = Lazy.force ctx in
  List.iter
    (fun strategy ->
      let name = Partition.name strategy in
      let run = Runs.implement_design ctx strategy in
      let faults = run.Runs.faultlist.Tmr_inject.Faultlist.bits in
      let fresh faults =
        Campaign.run ~workers:1 ~name ~impl:run.Runs.impl
          ~golden:ctx.Context.golden_nl ~stimulus:ctx.Context.stimulus ~faults
          ()
      in
      let whole = fresh faults in
      Alcotest.(check bool) (name ^ ": some faults rebuild") true
        (whole.Campaign.stats.Campaign.rebuilt > 0);
      let shards = Shard.plan ~total:(Array.length faults) ~shards:16 in
      let sub (r : Shard.range) =
        Array.sub faults r.Shard.sh_lo (r.Shard.sh_hi - r.Shard.sh_lo)
      in
      let per_shard = Array.map (fun r -> fresh (sub r)) shards in
      Alcotest.(check (array result_testable))
        (name ^ ": fresh shards == unsharded")
        whole.Campaign.results
        (Array.concat
           (Array.to_list
              (Array.map (fun (c : Campaign.t) -> c.Campaign.results) per_shard)));
      List.iter
        (fun workers ->
          let session =
            Campaign.session ~workers ~name ~impl:run.Runs.impl
              ~golden:ctx.Context.golden_nl ~stimulus:ctx.Context.stimulus ()
          in
          for k = Array.length shards - 1 downto 0 do
            let c = Campaign.run_session session ~faults:(sub shards.(k)) in
            let label = Printf.sprintf "%s w%d shard %d" name workers k in
            Alcotest.(check (array result_testable))
              (label ^ ": reused session == fresh")
              per_shard.(k).Campaign.results c.Campaign.results;
            Alcotest.(check bool) (label ^ ": plan-path stats") true
              (per_shard.(k).Campaign.stats = c.Campaign.stats)
          done)
        [ 1; 2 ])
    Partition.all_paper_designs

(* interrupt after 2 of 4 shards, resume in a second invocation: the
   merge is bit-identical and the finished shards are not re-simulated *)
let test_resume_bit_identical () =
  let ctx = Lazy.force ctx in
  let run = Lazy.force run_p2 in
  let plain =
    Option.get (Runs.campaign_design ~workers:1 ctx run).Runs.campaign
  in
  let job =
    Service.job ~scale:Context.Reduced ~seed:2 ~faults:40 ~shards:4
      Partition.Medium_partition
  in
  let dir = temp_dir "resume" in
  let shard_events = ref 0 in
  let notify = function Events.Shard_done _ -> incr shard_events | _ -> () in
  (match Service.run_sharded ~shard_limit:2 ~notify ~dir job ctx run with
  | Ok (Service.Incomplete { done_shards; pending_shards }) ->
      Alcotest.(check int) "2 shards done" 2 done_shards;
      Alcotest.(check int) "2 shards pending" 2 pending_shards
  | Ok (Service.Complete _) -> Alcotest.fail "shard limit ignored"
  | Error e -> Alcotest.failf "interrupted run: %s" e);
  Alcotest.(check int) "2 shard_done events" 2 !shard_events;
  match Service.run_sharded ~notify ~dir job ctx run with
  | Error e -> Alcotest.failf "resume: %s" e
  | Ok (Service.Incomplete _) -> Alcotest.fail "resume left work behind"
  | Ok (Service.Complete o) ->
      (* resumed shards come from manifests — only the missing two were
         simulated (each firing one more Shard_done) *)
      Alcotest.(check int) "2 shards resumed" 2 o.Service.o_resumed;
      Alcotest.(check int) "2 shards fresh" 2 o.Service.o_fresh;
      Alcotest.(check int) "4 shard_done events total" 4 !shard_events;
      check_matches_plain "resumed merge" plain o.Service.o_campaign

(* verdicts do not depend on the domain-worker count, so neither does
   the job fingerprint: a run interrupted at 2 workers resumes at 1 *)
let test_resume_other_worker_count () =
  let ctx = Lazy.force ctx in
  let run = Lazy.force run_p2 in
  let plain =
    Option.get (Runs.campaign_design ~workers:1 ctx run).Runs.campaign
  in
  let job workers =
    Service.job ~scale:Context.Reduced ~seed:2 ~faults:40 ~shards:4 ~workers
      Partition.Medium_partition
  in
  let dir = temp_dir "workers" in
  (match
     Service.run_sharded ~shard_limit:2 ~notify:(fun _ -> ()) ~dir (job 2) ctx
       run
   with
  | Ok (Service.Incomplete { done_shards; _ }) ->
      Alcotest.(check int) "2 shards done at 2 workers" 2 done_shards
  | Ok (Service.Complete _) -> Alcotest.fail "shard limit ignored"
  | Error e -> Alcotest.failf "interrupted run: %s" e);
  match Service.run_sharded ~notify:(fun _ -> ()) ~dir (job 1) ctx run with
  | Error e -> Alcotest.failf "resume at 1 worker: %s" e
  | Ok (Service.Incomplete _) -> Alcotest.fail "resume left work behind"
  | Ok (Service.Complete o) ->
      Alcotest.(check int) "2 shards resumed" 2 o.Service.o_resumed;
      check_matches_plain "resumed at 1 worker" plain o.Service.o_campaign

(* a worker killed between writing its manifest and renaming it leaves
   [done/NNNNN.json.tmp.<pid>]: that file names no finished shard, so a
   resume re-runs the shard and the merge stays byte-identical *)
let test_resume_past_leftover_tmp () =
  let ctx = Lazy.force ctx in
  let run = Lazy.force run_p2 in
  let job =
    Service.job ~scale:Context.Reduced ~seed:2 ~faults:40 ~shards:4
      Partition.Medium_partition
  in
  let dir = temp_dir "leftover" in
  let merged () =
    match Service.run_sharded ~notify:(fun _ -> ()) ~dir job ctx run with
    | Error e -> Alcotest.failf "run_sharded: %s" e
    | Ok (Service.Incomplete _) -> Alcotest.fail "unexpectedly incomplete"
    | Ok (Service.Complete o) ->
        ( o,
          Array.to_list
            (Array.mapi
               (fun i r -> Shard.result_to_line ~index:i r)
               o.Service.o_campaign.Campaign.results) )
  in
  let _, first = merged () in
  let done_dir = Filename.concat dir "done" in
  Sys.rename
    (Filename.concat done_dir "00002.json")
    (Filename.concat done_dir "00002.json.tmp.1");
  let o, again = merged () in
  Alcotest.(check int) "3 shards resumed" 3 o.Service.o_resumed;
  Alcotest.(check int) "the leftover's shard re-ran" 1 o.Service.o_fresh;
  Alcotest.(check (list string)) "merge byte-identical" first again

(* two and three forked worker processes, same verdicts; three
   processes claim the 4 shards unevenly *)
let test_procs2_bit_identical () =
  let ctx = Lazy.force ctx in
  let run = Lazy.force run_p2 in
  let plain =
    Option.get (Runs.campaign_design ~workers:1 ctx run).Runs.campaign
  in
  let job =
    Service.job ~scale:Context.Reduced ~seed:2 ~faults:40 ~shards:4
      Partition.Medium_partition
  in
  List.iter
    (fun procs ->
      let label = Printf.sprintf "procs=%d" procs in
      match
        Service.run_sharded ~procs
          ~notify:(fun _ -> ())
          ~dir:(temp_dir (Printf.sprintf "procs%d" procs))
          job ctx run
      with
      | Error e -> Alcotest.failf "%s: %s" label e
      | Ok (Service.Incomplete _) -> Alcotest.failf "%s incomplete" label
      | Ok (Service.Complete o) ->
          Alcotest.(check int)
            (Printf.sprintf "merged campaign reports %d workers" procs)
            procs o.Service.o_campaign.Campaign.workers;
          check_matches_plain (label ^ " merge") plain o.Service.o_campaign)
    [ 2; 3 ]

(* a queue directory belonging to a different job, or to the same job
   as another build of the tool wrote it (the fingerprint hashes the
   running executable), is refused — unless [fresh] wipes it *)
let test_fingerprint_guard () =
  let ctx = Lazy.force ctx in
  let run = Lazy.force run_p2 in
  let dir = temp_dir "guard" in
  let job20 =
    Service.job ~scale:Context.Reduced ~seed:2 ~faults:20 ~shards:2
      Partition.Medium_partition
  in
  let job40 =
    Service.job ~scale:Context.Reduced ~seed:2 ~faults:40 ~shards:2
      Partition.Medium_partition
  in
  let refused label =
    match Service.run_sharded ~notify:(fun _ -> ()) ~dir job40 ctx run with
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names the mismatch" label e)
          true
          (String.ends_with
             ~suffix:"(fingerprint mismatch); pass --fresh to discard it" e)
    | Ok _ -> Alcotest.failf "%s: foreign queue dir accepted" label
  in
  let fresh_runs label =
    match
      Service.run_sharded ~fresh:true ~notify:(fun _ -> ()) ~dir job40 ctx run
    with
    | Ok (Service.Complete o) ->
        Alcotest.(check int) (label ^ ": fresh wiped the old shards") 2
          o.Service.o_fresh;
        Alcotest.(check int) (label ^ ": nothing resumed") 0 o.Service.o_resumed
    | Ok (Service.Incomplete _) | Error _ -> Alcotest.failf "%s: fresh run failed" label
  in
  (match Service.run_sharded ~notify:(fun _ -> ()) ~dir job20 ctx run with
  | Ok (Service.Complete _) -> ()
  | Ok (Service.Incomplete _) | Error _ -> Alcotest.fail "seed run failed");
  refused "another job";
  fresh_runs "another job";
  (* job40's own spec, fingerprinted by another build *)
  let json = Result.get_ok (Option.get (Workqueue.read_job (Workqueue.create ~dir))) in
  let other_build =
    match json with
    | Tmr_obs.Json.Obj fields ->
        Tmr_obs.Json.Obj
          (List.map
             (function
               | "fingerprint", _ ->
                   ( "fingerprint",
                     Tmr_obs.Json.Str (Digest.to_hex (Digest.string "another build")) )
               | field -> field)
             fields)
    | _ -> Alcotest.fail "job.json is not an object"
  in
  Workqueue.write_job (Workqueue.create ~dir) other_build;
  refused "another build";
  fresh_runs "another build"

(* a finished queue whose manifest was damaged on disk: the resume that
   merges it returns an [Error] naming the shard directory *)
let test_damaged_manifest_refused () =
  let ctx = Lazy.force ctx in
  let run = Lazy.force run_p2 in
  let dir = temp_dir "damaged" in
  let job =
    Service.job ~scale:Context.Reduced ~seed:2 ~faults:40 ~shards:4
      Partition.Medium_partition
  in
  (match Service.run_sharded ~notify:(fun _ -> ()) ~dir job ctx run with
  | Ok (Service.Complete _) -> ()
  | Ok (Service.Incomplete _) | Error _ -> Alcotest.fail "seed run failed");
  let path = Filename.concat (Filename.concat dir "done") "00003.json" in
  let m =
    match
      Result.bind
        (Tmr_obs.Json.parse (In_channel.with_open_bin path In_channel.input_all))
        Shard.manifest_of_json
    with
    | Ok m -> m
    | Error e -> Alcotest.failf "manifest unreadable: %s" e
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Tmr_obs.Json.to_string
           (Shard.manifest_to_json
              { m with Shard.sm_wrong = m.Shard.sm_wrong + 999 })));
  match Service.run_sharded ~notify:(fun _ -> ()) ~dir job ctx run with
  | Ok _ -> Alcotest.fail "damaged shard directory merged"
  | Error e ->
      let prefix = Printf.sprintf "shard dir %s: Shard.merge: " dir in
      Alcotest.(check bool)
        (Printf.sprintf "%S names the directory and the merge" e)
        true
        (String.starts_with ~prefix e)

(* --- exhaustive + job codec ------------------------------------------- *)

let test_exhaustive_faults () =
  let ctx = Lazy.force ctx in
  let run = Lazy.force run_p2 in
  let sampled =
    Service.faults_of ctx run
      (Service.job ~scale:Context.Reduced ~seed:2 ~faults:40
         Partition.Medium_partition)
  in
  Alcotest.(check int) "sampled size" 40 (Array.length sampled);
  let exhaustive =
    Service.faults_of ctx run
      (Service.job ~scale:Context.Reduced ~seed:2 ~exhaustive:true
         Partition.Medium_partition)
  in
  Alcotest.(check int) "every essential bit"
    (Array.length run.Runs.faultlist.Tmr_inject.Faultlist.bits)
    (Array.length exhaustive);
  (* the two fault spaces fingerprint differently *)
  let j1 =
    Service.job ~scale:Context.Reduced ~seed:2 ~faults:40
      Partition.Medium_partition
  in
  let j2 =
    Service.job ~scale:Context.Reduced ~seed:2 ~exhaustive:true
      Partition.Medium_partition
  in
  Alcotest.(check bool) "distinct fingerprints" false
    (Service.fingerprint j1 sampled = Service.fingerprint j2 exhaustive);
  Alcotest.(check string) "exhaustive job name"
    "tmr_p2-reduced-seed2-exhaustive" (Service.job_name j2)

(* --- fault dictionary --------------------------------------------------- *)

let entry_bytes (e : Store.entry) =
  let dir = temp_dir "entry" in
  let path = Store.save ~dir e in
  let body = In_channel.with_open_bin path In_channel.input_all in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  body

(* The dictionary entry depends on the verdicts alone: a plain campaign
   and the sharded engine at one and two processes write the same bytes,
   and one flipped verdict changes both the digest and the wrong list. *)
let test_entry_independent_of_run_path () =
  let ctx = Lazy.force ctx in
  let run = Lazy.force run_p2 in
  let job =
    Service.job ~scale:Context.Reduced ~seed:2 ~faults:40 ~shards:4
      Partition.Medium_partition
  in
  let plain =
    Campaign.run ~workers:1 ~name:"tmr_p2" ~impl:run.Runs.impl
      ~golden:ctx.Context.golden_nl ~stimulus:ctx.Context.stimulus
      ~faults:(Service.faults_of ctx run job) ()
  in
  let entry c = Store.of_run ctx { run with Runs.campaign = Some c } in
  let want = entry_bytes (entry plain) in
  List.iter
    (fun procs ->
      match
        Service.run_sharded ~procs
          ~notify:(fun _ -> ())
          ~dir:(temp_dir (Printf.sprintf "entry-procs%d" procs))
          job ctx run
      with
      | Ok (Service.Complete o) ->
          Alcotest.(check string)
            (Printf.sprintf "procs=%d entry == plain entry" procs)
            want
            (entry_bytes (entry o.Service.o_campaign))
      | Ok (Service.Incomplete _) -> Alcotest.fail "unexpectedly incomplete"
      | Error e -> Alcotest.failf "procs=%d: %s" procs e)
    [ 1; 2 ];
  let base = entry plain in
  let flipped =
    let results = Array.copy plain.Campaign.results in
    let r = results.(7) in
    results.(7) <-
      {
        r with
        Campaign.outcome =
          (match r.Campaign.outcome with
          | Campaign.Silent -> Campaign.Wrong_answer
          | Campaign.Wrong_answer -> Campaign.Silent);
      };
    entry { plain with Campaign.results }
  in
  Alcotest.(check bool) "a flipped verdict changes the digest" false
    (base.Store.e_digest = flipped.Store.e_digest);
  Alcotest.(check bool) "a flipped verdict changes the wrong list" false
    (base.Store.e_wrong_bits = flipped.Store.e_wrong_bits)

let () =
  Alcotest.run "shard"
    [
      ( "planner",
        [
          Alcotest.test_case "tiles the fault space" `Quick test_plan_tiles;
          Alcotest.test_case "rejects invalid args" `Quick test_plan_invalid;
          Alcotest.test_case "missing ranges" `Quick test_ranges_missing;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "verdict record roundtrip" `Quick
            test_record_roundtrip;
          Alcotest.test_case "manifest roundtrip" `Quick
            test_manifest_roundtrip;
          Alcotest.test_case "shard/job events roundtrip" `Quick
            test_shard_events_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_mutated_shard_files_fail_closed;
          QCheck_alcotest.to_alcotest qcheck_accepted_records_reencode;
          Alcotest.test_case "result line encoder == Printf format" `Quick
            test_result_line_encoder;
          Alcotest.test_case "verdict record reader rejects" `Quick
            test_record_rejects;
        ] );
      ( "merge",
        [
          Alcotest.test_case "intact shards merge" `Quick test_merge_intact;
          Alcotest.test_case "each defect is an Error" `Quick
            test_merge_defects;
        ] );
      ( "workqueue",
        [
          Alcotest.test_case "seed/claim/complete" `Quick
            test_workqueue_claims;
          Alcotest.test_case "orphan reclaim" `Quick test_workqueue_reclaim;
        ] );
      (* forks, so it runs before "equivalence" spawns worker domains:
         OCaml 5 refuses [Unix.fork] once a domain was spawned *)
      ( "store",
        [
          Alcotest.test_case "entry independent of the run path" `Slow
            test_entry_independent_of_run_path;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "sharded == plain, all designs" `Slow
            test_sharded_equals_plain_all_designs;
          Alcotest.test_case "interrupt + resume, bit-identical" `Slow
            test_resume_bit_identical;
          Alcotest.test_case "2 forked procs, bit-identical" `Slow
            test_procs2_bit_identical;
          Alcotest.test_case "fingerprint guard + fresh" `Slow
            test_fingerprint_guard;
          Alcotest.test_case "damaged manifest refused" `Quick
            test_damaged_manifest_refused;
          Alcotest.test_case "exhaustive fault space" `Quick
            test_exhaustive_faults;
          Alcotest.test_case "leftover manifest tmp re-runs its shard" `Slow
            test_resume_past_leftover_tmp;
          Alcotest.test_case "one session, reversed shards == fresh" `Slow
            test_session_reuse;
          Alcotest.test_case "resume at another worker count, bit-identical"
            `Slow test_resume_other_worker_count;
        ] );
    ]
