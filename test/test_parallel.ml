(* Parallel fault-injection engine: determinism of the domain pool,
   exactness of the cone-aware fast paths, and pool failure handling. *)

module Partition = Tmr_core.Partition
module Campaign = Tmr_inject.Campaign
module Pool = Tmr_inject.Pool
module Faultlist = Tmr_inject.Faultlist
module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs

let ctx = lazy (Context.create ~scale:Context.Reduced ~seed:2 ~faults_per_design:30 ())

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
  Alcotest.(check int) (msg ^ ": injected") a.Campaign.injected b.Campaign.injected;
  Alcotest.(check (float 0.0)) (msg ^ ": wrong_percent")
    (Campaign.wrong_percent a) (Campaign.wrong_percent b);
  Alcotest.(check (array result_testable))
    (msg ^ ": results array")
    a.Campaign.results b.Campaign.results

(* (a) a 4-worker campaign is byte-identical to workers:1 for all five
   paper designs *)
let test_workers_deterministic () =
  let ctx = Lazy.force ctx in
  List.iter
    (fun strategy ->
      let run = Runs.implement_design ctx strategy in
      let c1 =
        Option.get
          (Runs.campaign_design ~workers:1 ctx run).Runs.campaign
      in
      let c4 =
        Option.get
          (Runs.campaign_design ~workers:4 ctx run).Runs.campaign
      in
      Alcotest.(check int) "used 4 workers" 4 c4.Campaign.workers;
      check_same_results (Partition.name strategy) c1 c4)
    Partition.all_paper_designs

(* (b) the cone-aware fast paths never change a fault's classification:
   run the same fault list through the fast engine and the legacy
   rebuild-everything engine and diff every result *)
let test_cone_skip_exact () =
  let ctx = Lazy.force ctx in
  let ctx = { ctx with Context.faults_per_design = 150 } in
  let run = Runs.implement_design ctx Partition.Medium_partition in
  let fast =
    Option.get
      (Runs.campaign_design ~workers:1 ~cone_skip:true ctx run).Runs.campaign
  in
  let oracle =
    Option.get
      (Runs.campaign_design ~workers:1 ~cone_skip:false ctx run).Runs.campaign
  in
  (* the fast engine must actually have taken fast paths *)
  let s = fast.Campaign.stats in
  Alcotest.(check bool) "some faults skipped" true (s.Campaign.skipped > 0);
  Alcotest.(check bool) "some faults avoided a rebuild" true
    (s.Campaign.skipped + s.Campaign.patched + s.Campaign.rerouted > 0);
  Alcotest.(check int) "oracle rebuilt everything"
    oracle.Campaign.injected oracle.Campaign.stats.Campaign.rebuilt;
  check_same_results "fast vs oracle" fast oracle

(* (c) a worker exception propagates to the caller without hanging *)
let test_pool_exception () =
  Alcotest.check_raises "worker failure re-raised"
    (Failure "boom on 7")
    (fun () ->
      Pool.run ~workers:4 ~chunk:2 ~total:64 (fun _wid i ->
          if i = 7 then failwith "boom on 7"));
  (* a failing worker-local init propagates too *)
  Alcotest.check_raises "init failure re-raised" (Failure "init boom")
    (fun () ->
      Pool.run ~workers:3 ~total:64 (fun wid ->
          if wid = 1 then failwith "init boom";
          fun _i -> Domain.cpu_relax ()))

let test_pool_covers_all_items () =
  List.iter
    (fun (workers, total, chunk) ->
      let hits = Array.make (max total 1) 0 in
      let mutex = Mutex.create () in
      Pool.run ~workers ~chunk ~total (fun _wid i ->
          Mutex.lock mutex;
          hits.(i) <- hits.(i) + 1;
          Mutex.unlock mutex);
      if total > 0 then
        Alcotest.(check (array int))
          (Printf.sprintf "w=%d t=%d c=%d: each item once" workers total chunk)
          (Array.make total 1) hits)
    [ (1, 40, 16); (4, 40, 3); (4, 1, 16); (3, 0, 16); (8, 5, 2) ]

let test_pool_progress () =
  let calls = ref [] in
  Pool.run ~workers:4 ~chunk:4 ~total:200
    ~progress:(fun done_ total ->
      Alcotest.(check int) "total" 200 total;
      calls := done_ :: !calls)
    (fun _wid _i -> ());
  let calls = List.rev !calls in
  Alcotest.(check bool) "progress was reported" true (calls <> []);
  Alcotest.(check bool) "monotone non-decreasing" true
    (List.for_all2 ( <= ) calls (List.tl calls @ [ max_int ]));
  Alcotest.(check int) "final tick is 100%" 200
    (List.fold_left (fun _ x -> x) 0 calls)

(* (d) worker domains run on the minor heap a freshly spawned domain gets
   from the runtime: a per-worker nursery override costs its full size in
   resident memory for every worker *)
let test_pool_keeps_minor_heap () =
  let minor_words () = (Gc.get ()).Gc.minor_heap_size in
  let fresh = Domain.join (Domain.spawn minor_words) in
  let seen = Array.make 2 (-1) in
  (* total above the chunk, so the pool spawns domains *)
  Pool.run ~workers:2 ~chunk:16 ~total:64 (fun wid ->
      seen.(wid) <- minor_words ();
      fun _i -> ());
  Array.iteri
    (fun wid words ->
      Alcotest.(check int)
        (Printf.sprintf "worker %d minor heap (words)" wid)
        fresh words)
    seen

let () =
  Alcotest.run "tmr_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "covers all items" `Quick test_pool_covers_all_items;
          Alcotest.test_case "progress" `Quick test_pool_progress;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "workers keep the minor heap" `Quick
            test_pool_keeps_minor_heap;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "4 workers == 1 worker" `Slow
            test_workers_deterministic;
          Alcotest.test_case "cone-skip == full rebuild" `Slow
            test_cone_skip_exact;
        ] );
    ]
