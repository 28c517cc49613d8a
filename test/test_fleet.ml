(* Distributed-telemetry tests that fork.

   This binary must never spawn a domain: OCaml 5 refuses Unix.fork
   once any Domain.spawn has happened, even after the domain joins.
   Everything here runs campaigns through Service with its default
   single worker, so Pool.run stays inline and the process remains
   fork-safe.  Domain-using telemetry tests live in test_telemetry.ml. *)

module Events = Tmr_obs.Events
module Metrics = Tmr_obs.Metrics
module Watch = Tmr_obs.Watch
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

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let all_events =
  [
    Events.Campaign_started { design = "tmr_p2"; faults = 150; workers = 4 };
    Events.Campaign_progress
      { design = "tmr_p2"; completed = 50; total = 150; wrong = 2 };
    Events.Batch_dispatched { design = "tmr_p2"; lanes = 64 };
    Events.Campaign_stopped
      {
        design = "tmr_p2";
        requested = 150;
        injected = 150;
        wrong = 5;
        wall_ns = 1_234_567_890;
      };
  ]

let temp_counter = ref 0

let temp_dir tag =
  incr temp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tmr-fleet-%s-%d-%d" tag (Unix.getpid ()) !temp_counter)
  in
  if Sys.file_exists d then
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote d)));
  d

(* ------------------------------------------------------------------ *)
(* fork + detach: the sink belongs to the parent; a forked child that
   detaches publishes into the void and the parent's stream stays
   dense. *)

let test_fork_detach () =
  let path = Filename.temp_file "tmr_fork_detach" ".jsonl" in
  Events.to_file path;
  Events.publish (List.nth all_events 0);
  Events.publish (List.nth all_events 1);
  (match Unix.fork () with
  | 0 ->
      Events.detach ();
      (* all of these must be no-ops: the sink belongs to the parent *)
      List.iter Events.publish all_events;
      Unix._exit (if Events.enabled () then 1 else 0)
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "detached child saw an enabled sink"));
  Events.publish (List.nth all_events 2);
  Events.publish (List.nth all_events 3);
  Events.close ();
  let parsed = List.map parse_exn (read_lines path) in
  Alcotest.(check int) "only the parent's events" 4 (List.length parsed);
  List.iteri
    (fun i p -> Alcotest.(check int) "parent seq dense" i p.Events.p_seq)
    parsed;
  Sys.remove path

(* a worker killed mid-stream leaves a spool of whole lines only *)
let test_spool_sigterm_no_torn_lines () =
  let path = Filename.temp_file "tmr_spool_kill" ".jsonl" in
  (match Unix.fork () with
  | 0 ->
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Events.spool ~path ~worker:1 ~job:"doomed";
      (* publish until killed *)
      let i = ref 0 in
      while true do
        incr i;
        Events.publish
          (Events.Campaign_progress
             {
               design = "kill-test";
               completed = !i;
               total = 1_000_000;
               wrong = 0;
             })
      done
  | pid ->
      Unix.sleepf 0.15;
      Unix.kill pid Sys.sigterm;
      ignore (Unix.waitpid [] pid));
  let lines = read_lines path in
  Alcotest.(check bool) "child spooled something" true (List.length lines > 0);
  List.iteri
    (fun i line ->
      let p = parse_exn line in
      Alcotest.(check int) "dense up to the kill" i p.Events.p_seq)
    lines;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Fleet end to end, all five designs: a forked sharded campaign with
   events on produces the same merged verdicts as with events off, the
   merged stream carries origin-stamped worker events with dense
   worker-local seqs, and watch reproduces the final verdict. *)

let ctx =
  lazy (Context.create ~scale:Context.Reduced ~seed:2 ~faults_per_design:40 ())

let test_fleet_stream_all_designs () =
  let ctx = Lazy.force ctx in
  let parent = Unix.getpid () in
  List.iter
    (fun strategy ->
      let dname = Partition.name strategy in
      let run = Runs.implement_design ctx strategy in
      let job =
        Service.job ~scale:Context.Reduced ~seed:2 ~faults:40 ~shards:4
          strategy
      in
      let campaign_of st =
        match st with
        | Ok (Service.Complete o) -> o
        | Ok (Service.Incomplete _) ->
            Alcotest.failf "%s: unexpectedly incomplete" dname
        | Error e -> Alcotest.failf "%s: %s" dname e
      in
      (* events off *)
      let quiet =
        campaign_of
          (Service.run_sharded ~procs:2
             ~notify:(fun _ -> ())
             ~dir:(temp_dir ("off-" ^ dname))
             job ctx run)
      in
      (* events on: merged fleet stream into one file *)
      let stream = Filename.temp_file ("tmr_fleet_" ^ dname) ".jsonl" in
      Events.to_file stream;
      let live =
        Fun.protect
          ~finally:(fun () -> Events.close ())
          (fun () ->
            campaign_of
              (Service.run_sharded ~procs:2
                 ~dir:(temp_dir ("on-" ^ dname))
                 job ctx run))
      in
      Alcotest.(check bool)
        (dname ^ ": verdicts identical with spooling on")
        true
        (quiet.Service.o_campaign.Campaign.results
        = live.Service.o_campaign.Campaign.results);
      let parsed = List.map parse_exn (read_lines stream) in
      (* every spool was fully relayed: each origin's worker-local seqs
         run dense from 0 on the merged stream *)
      let oseqs = Hashtbl.create 4 in
      List.iter
        (fun p ->
          Option.iter
            (fun o ->
              Hashtbl.replace oseqs o.Events.o_pid
                (o.Events.o_seq
                :: Option.value ~default:[]
                     (Hashtbl.find_opt oseqs o.Events.o_pid)))
            p.Events.p_origin)
        parsed;
      Hashtbl.iter
        (fun pid seqs ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s: pid %d spool gap-free" dname pid)
            (List.init (List.length seqs) Fun.id)
            (List.sort compare seqs))
        oseqs;
      (* the merged stream really is a fleet: worker events from child
         pids, stamped with the job id *)
      let child_pids =
        List.filter_map
          (fun p ->
            match p.Events.p_origin with
            | Some o when o.Events.o_pid <> parent -> Some o.Events.o_pid
            | _ -> None)
          parsed
        |> List.sort_uniq compare
      in
      Alcotest.(check bool)
        (dname ^ ": events from forked workers on the stream")
        true
        (child_pids <> []);
      List.iter
        (fun p ->
          match p.Events.p_origin with
          | Some o ->
              Alcotest.(check string)
                (dname ^ ": origin job is the correlation id")
                (Service.job_name job) o.Events.o_job
          | None -> ())
        parsed;
      (* parent re-sequencing is dense, worker-local seqs have no gaps *)
      List.iteri
        (fun i p ->
          Alcotest.(check int) (dname ^ ": merged seq dense") i p.Events.p_seq)
        parsed;
      let w = Watch.create () in
      List.iter (Watch.feed w) parsed;
      Alcotest.(check int) (dname ^ ": no origin gaps") 0 (Watch.origin_gaps w);
      Alcotest.(check bool) (dname ^ ": watch sees the fleet finish") true
        (Watch.finished w);
      (* the watch summary reproduces the merged verdict exactly *)
      let c = live.Service.o_campaign in
      let expected =
        Printf.sprintf "\"injected\":%d,\"wrong\":%d" c.Campaign.injected
          c.Campaign.wrong
      in
      Alcotest.(check bool)
        (dname ^ ": watch summary matches the merged campaign")
        true
        (contains ~needle:expected (Watch.summary_json w));
      Sys.remove stream)
    Partition.all_paper_designs

(* ------------------------------------------------------------------ *)
(* Fleet metrics: forked workers count from a zeroed registry and the
   parent adds their final snapshots into its own once they are reaped,
   so a forked run reports the same deterministic counters as one that
   runs every shard in-process. *)

let fleet_counters =
  [
    "campaign.batch_evals";
    "campaign.batch_splices";
    "campaign.batch_lanes";
    "campaign.detection.silent_correct";
    "campaign.detection.detected_corrected";
    "campaign.detection.detected_wrong";
    "campaign.detection.silent_wrong";
    "fsim.reroute_fallback";
  ]

(* what [f] added to each counter of this process's registry *)
let counter_deltas f =
  let get (snap : Metrics.snapshot) name =
    Option.value ~default:0 (List.assoc_opt name snap.Metrics.counters)
  in
  let before = Metrics.snapshot () in
  let r = f () in
  let after = Metrics.snapshot () in
  (r, List.map (fun n -> (n, get after n - get before n)) fleet_counters)

let tmr_p2 =
  List.find (fun s -> Partition.name s = "tmr_p2") Partition.all_paper_designs

let complete = function
  | Ok (Service.Complete o) -> o
  | Ok (Service.Incomplete _) -> Alcotest.fail "unexpectedly incomplete"
  | Error e -> Alcotest.fail e

(* the detecting voter, so the detection counters are nonzero too *)
let test_fleet_counters_fold () =
  let ctx = Lazy.force ctx in
  let voter = Tmr_core.Voter.Detecting in
  let run = Runs.implement_design ~voter ctx tmr_p2 in
  let job =
    Service.job ~scale:Context.Reduced ~seed:2 ~exhaustive:true ~shards:4
      ~voter tmr_p2
  in
  let sharded procs () =
    complete
      (Service.run_sharded ~procs ~notify:ignore
         ~dir:(temp_dir (Printf.sprintf "counters-p%d" procs))
         job ctx run)
  in
  let inline, c1 = counter_deltas (sharded 1) in
  let forked, c2 = counter_deltas (sharded 2) in
  Alcotest.(check bool) "verdicts identical" true
    (inline.Service.o_campaign.Campaign.results
    = forked.Service.o_campaign.Campaign.results);
  Alcotest.(check bool) "the batch engine ran" true
    (List.assoc "campaign.batch_evals" c1 > 0);
  Alcotest.(check bool) "detectors fired" true
    (List.assoc "campaign.detection.detected_corrected" c1 > 0);
  List.iter
    (fun name ->
      Alcotest.(check int)
        (name ^ ": --procs 2 = --procs 1")
        (List.assoc name c1) (List.assoc name c2))
    fleet_counters

(* A worker whose snapshot cannot be read is skipped with one warning
   naming its file; the run and its verdicts are unaffected.  The file
   is blocked by a directory at its path: the worker's writes fail (and
   are ignored) and the parent's read fails. *)
let test_unreadable_worker_metrics () =
  let ctx = Lazy.force ctx in
  let run = Runs.implement_design ctx tmr_p2 in
  let job = Service.job ~scale:Context.Reduced ~seed:2 ~faults:40 ~shards:4 tmr_p2 in
  let intact =
    complete
      (Service.run_sharded ~procs:2 ~notify:ignore ~dir:(temp_dir "intact")
         job ctx run)
  in
  let dir = temp_dir "blocked" in
  let blocked = Workqueue.metrics_path (Workqueue.create ~dir) ~worker:2 in
  Unix.mkdir blocked 0o755;
  let log = Filename.temp_file "tmr_fleet_stderr" ".txt" in
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let damaged =
    Fun.protect
      ~finally:(fun () ->
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      (fun () ->
        complete
          (Service.run_sharded ~procs:2 ~notify:ignore ~dir job ctx run))
  in
  Alcotest.(check bool) "verdicts unchanged" true
    (intact.Service.o_campaign.Campaign.results
    = damaged.Service.o_campaign.Campaign.results);
  let warnings =
    List.filter (contains ~needle:"warning: skipping worker metrics")
      (read_lines log)
  in
  Alcotest.(check int) "one warning" 1 (List.length warnings);
  Alcotest.(check bool) "the warning names the file" true
    (contains ~needle:blocked (List.hd warnings));
  Sys.remove log

(* A truncated snapshot is an Error from the reader the fold uses *)
let test_truncated_snapshot () =
  let path = Filename.temp_file "tmr_fleet_metrics" ".json" in
  Metrics.write_file path;
  let body = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.sub body 0 (String.length body / 2)));
  Alcotest.(check bool) "truncated file is an Error" true
    (Result.is_error (Metrics.read_file path));
  Sys.remove path

(* A traced --procs 2 run names where the parent's share of the sharded
   wall goes: one fork, one wait and one merge span, each on the
   parent's own lane, and the profiler attributes them. *)
let test_shard_overhead_spans () =
  let ctx = Lazy.force ctx in
  let run = Runs.implement_design ctx tmr_p2 in
  let job =
    Service.job ~scale:Context.Reduced ~seed:2 ~faults:40 ~shards:4 tmr_p2
  in
  let path = Filename.temp_file "tmr_fleet_trace" ".jsonl" in
  Tmr_obs.Trace.to_file path;
  ignore
    (Fun.protect ~finally:Tmr_obs.Trace.close (fun () ->
         complete
           (Service.run_sharded ~procs:2 ~notify:ignore ~dir:(temp_dir "spans")
              job ctx run)));
  let lines = read_lines path in
  let parent = Printf.sprintf "\"pid\":%d," (Unix.getpid ()) in
  List.iter
    (fun name ->
      let mine =
        List.filter
          (fun l ->
            contains ~needle:(Printf.sprintf "{\"name\":\"%s\"" name) l
            && contains ~needle:parent l)
          lines
      in
      Alcotest.(check int) (name ^ ": one span in the parent") 1
        (List.length mine))
    [ "shard_fork"; "shard_wait"; "shard_merge" ];
  (match Tmr_obs.Profile.of_lines lines with
  | Error e -> Alcotest.failf "profile: %s" e
  | Ok p ->
      let table = Tmr_obs.Profile.span_table p in
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " in the span table") true
            (contains ~needle:name table))
        [ "shard_fork"; "shard_wait"; "shard_merge" ]);
  Sys.remove path

let () =
  Alcotest.run "fleet"
    [
      ( "fork",
        [
          Alcotest.test_case "fork + detach is a no-op" `Quick test_fork_detach;
          Alcotest.test_case "SIGTERM leaves no torn spool line" `Quick
            test_spool_sigterm_no_torn_lines;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "fleet stream == quiet run, all designs" `Slow
            test_fleet_stream_all_designs;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "forked counters == in-process counters" `Slow
            test_fleet_counters_fold;
          Alcotest.test_case "unreadable worker snapshot skipped" `Quick
            test_unreadable_worker_metrics;
          Alcotest.test_case "truncated snapshot is an Error" `Quick
            test_truncated_snapshot;
        ] );
      ( "trace",
        [
          Alcotest.test_case "fork, wait and merge spans" `Quick
            test_shard_overhead_spans;
        ] );
    ]
