(* Benchmark harness: regenerates every table and figure of the paper and
   runs Bechamel micro-benchmarks of the flow stages.

   Usage:
     dune exec bench/main.exe                    # everything, paper scale
     dune exec bench/main.exe -- table3 fig1     # selected experiments
     dune exec bench/main.exe -- quick           # everything, reduced scale
     dune exec bench/main.exe -- micro           # Bechamel micro-benchmarks

   TMR_FAULTS=<n> overrides the faults-per-design sample size.
   TMR_JOBS=<n> overrides the campaign worker-domain count. *)

module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs
module Tables = Tmr_experiments.Tables
module Figures = Tmr_experiments.Figures
module Reports = Tmr_experiments.Reports
module Partition = Tmr_core.Partition
module Campaign = Tmr_inject.Campaign
module Service = Tmr_experiments.Service
module Stats = Tmr_obs.Stats
module Events = Tmr_obs.Events

let say fmt = Printf.printf (fmt ^^ "\n%!")

let int_env name =
  match Sys.getenv_opt name with
  | None -> None
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> Some n
      | None ->
          Printf.eprintf "bench: %s must be an integer, got %S\n" name v;
          exit 2)

let jobs () = int_env "TMR_JOBS"

let time name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  say "[%s: %.1fs]" name (Unix.gettimeofday () -. t0);
  r

(* ------------------------------------------------------------------ *)
(* Experiment registry *)

type wants = {
  mutable device : bool;
  mutable memory : bool;
  mutable t1 : bool;
  mutable t2 : bool;
  mutable t3 : bool;
  mutable t4 : bool;
  mutable f1 : bool;
  mutable f2 : bool;
  mutable f3 : bool;
  mutable f4 : bool;
  mutable micro : bool;
  mutable ablation : bool;
  mutable scrub : bool;
  mutable scale : Context.scale;
}

let needs_runs w = w.t3 || w.t4
let needs_impls w = needs_runs w || w.t1 || w.t2 || w.f1 || w.f3 || w.f4

let run_experiments w ~faults ~seed =
  let ctx = Context.create ~scale:w.scale ~seed ~faults_per_design:faults () in
  say "device: %s"
    (Format.asprintf "%a" Tmr_arch.Arch.pp ctx.Context.dev.Tmr_arch.Device.params);
  if w.device then begin
    print_string (Reports.device_report ctx);
    print_newline ()
  end;
  if w.memory then begin
    print_string (Reports.memory_report ctx);
    print_newline ()
  end;
  if w.f2 then begin
    print_string (time "fig2" (fun () -> Figures.fig2 ctx));
    print_newline ()
  end;
  if needs_impls w then begin
    let impls =
      time "implement 5 designs" (fun () ->
          List.map (Runs.implement_design ctx) Partition.all_paper_designs)
    in
    let find strategy = List.find (fun r -> r.Runs.strategy = strategy) impls in
    if w.t1 then begin
      print_string
        (time "table1" (fun () ->
             Tables.table1 ctx (find Partition.Medium_partition)));
      print_newline ()
    end;
    if w.f1 then begin
      print_string
        (time "fig1" (fun () ->
             Figures.fig1 ctx (find Partition.Min_partition_nv)));
      print_newline ()
    end;
    if w.f3 then begin
      print_string
        (time "fig3" (fun () ->
             Figures.fig3 ctx
               (find Partition.Min_partition_nv)
               (find Partition.Medium_partition)));
      print_newline ()
    end;
    if w.f4 then begin
      print_string (Figures.fig4 impls);
      print_newline ()
    end;
    if w.t2 then begin
      print_string (Tables.table2 impls);
      print_newline ()
    end;
    if needs_runs w then begin
      let last_design = ref "" in
      (* the pool already rate-limits the callback; print every tick *)
      let progress name (p : Campaign.progress) =
        if name <> !last_design then begin
          say "campaign %s: %d faults..." name p.Campaign.p_total;
          last_design := name
        end;
        say "  %s: %d/%d (%d wrong)" name p.Campaign.p_completed
          p.Campaign.p_total p.Campaign.p_wrong
      in
      let runs =
        time "fault-injection campaigns" (fun () ->
            List.map (Runs.campaign_design ~progress ?workers:(jobs ()) ctx) impls)
      in
      if w.t3 then begin
        print_string (Tables.table3 runs);
        print_newline ()
      end;
      if w.t4 then begin
        print_string (Tables.table4 runs);
        print_newline ()
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Parallel-campaign throughput: BENCH_campaign.json *)

(* One measured campaign configuration.  Every row of the throughput
   table runs through [measure_row], so the five rows stay comparable:
   same GC leveling, same telemetry isolation, same console line. *)
type crow = {
  cr_name : string;
  cr_cone_skip : bool;
  cr_c : Campaign.t;
  cr_dt : float;
  cr_fps : float;
  cr_snap : Tmr_obs.Metrics.snapshot;
}

let measure_row ?(forensics = false) ?(repeat = 1) ~name ~workers
    ~cone_skip ctx run =
  (* level the field between rows: the sequential oracle leaves a major
     heap full of dead simulators that would slow later rows' GC; the
     telemetry reset isolates each row's snapshot to its own engine.
     Rows that finish in a few seconds are noise-dominated on a loaded
     runner, so they report the best of [repeat] runs (campaigns are
     deterministic, only the clock varies); minute-long rows
     self-average and run once. *)
  let once () =
    Gc.compact ();
    Tmr_obs.Metrics.reset ();
    let t0 = Unix.gettimeofday () in
    let r =
      Runs.campaign_design ~workers ~cone_skip ~forensics ctx run
    in
    let dt = Unix.gettimeofday () -. t0 in
    let snap = Tmr_obs.Metrics.snapshot () in
    (r, dt, snap)
  in
  let best = ref (once ()) in
  for _ = 2 to repeat do
    let (_, dt, _) as m = once () in
    let _, best_dt, _ = !best in
    if dt < best_dt then best := m
  done;
  let r, dt, snap = !best in
  let c = Option.get r.Runs.campaign in
  let fps = float_of_int c.Campaign.injected /. dt in
  say
    "  %-24s workers=%d cone_skip=%b: %.2fs, %.1f faults/s (skipped %d, \
     patched %d, rerouted %d, rebuilt %d, diffed %d, converged %d)"
    name workers cone_skip dt fps c.Campaign.stats.Campaign.skipped
    c.Campaign.stats.Campaign.patched c.Campaign.stats.Campaign.rerouted
    c.Campaign.stats.Campaign.rebuilt c.Campaign.stats.Campaign.diffed
    c.Campaign.stats.Campaign.converged;
  {
    cr_name = name;
    cr_cone_skip = cone_skip;
    cr_c = c;
    cr_dt = dt;
    cr_fps = fps;
    cr_snap = snap;
  }

let row_json r =
  let c = r.cr_c in
  Printf.sprintf
    "    { \"name\": %S, \"workers\": %d, \"cone_skip\": %b, \"seconds\": \
     %.3f, \"faults_per_sec\": %.2f,\n\
    \      \"requested\": %d, \"injected\": %d, \"skipped\": %d, \"patched\": \
     %d, \"rerouted\": %d, \"rebuilt\": %d, \"diffed\": %d, \"converged\": \
     %d,\n\
    \      \"wrong_percent\": %.3f, \"worker_utilization\": %.3f, \
     \"inject_utilization\": %.3f }"
    r.cr_name c.Campaign.workers r.cr_cone_skip r.cr_dt r.cr_fps
    c.Campaign.requested c.Campaign.injected c.Campaign.stats.Campaign.skipped
    c.Campaign.stats.Campaign.patched c.Campaign.stats.Campaign.rerouted
    c.Campaign.stats.Campaign.rebuilt c.Campaign.stats.Campaign.diffed
    c.Campaign.stats.Campaign.converged
    (Campaign.wrong_percent c)
    (Campaign.utilization c)
    (Campaign.inject_utilization c)

(* Multi-process sharded throughput: the same exhaustive fault space
   pushed through the shard queue at 1, 2 and 4 worker processes.
   Exhaustive on the reduced device keeps one measurement in the
   seconds range while still covering every essential bit; each
   configuration reports the best of three runs (the verdicts are
   deterministic, only the clock varies). *)
let distributed_bench () =
  say "distributed exhaustive campaign (reduced-scale %s, every essential bit):"
    (Partition.name Partition.Medium_partition);
  let ctx = Context.create ~scale:Context.Reduced ~seed:1 () in
  let run =
    time "implement (reduced)" (fun () ->
        Runs.implement_design ctx Partition.Medium_partition)
  in
  let job =
    Service.job ~scale:Context.Reduced ~seed:1 ~exhaustive:true ~shards:16
      ?workers:(jobs ()) Partition.Medium_partition
  in
  let total = Array.length (Service.faults_of ctx run job) in
  let bench_root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tmr-bench-shards-%d" (Unix.getpid ()))
  in
  let measure ?(events = false) procs =
    let label =
      if events then "distributed-spooled" else "distributed-exhaustive"
    in
    let best_dt = ref infinity in
    let best_c = ref None in
    for i = 1 to 3 do
      (* a fresh queue directory per run: resume must never hide work *)
      let dir =
        Filename.concat bench_root
          (Printf.sprintf "%s-p%d-r%d" (if events then "ev" else "plain")
             procs i)
      in
      Gc.compact ();
      (* with events on, the timed region includes the per-worker spool
         writes and the parent's tail-and-relay of the merged stream *)
      let stream =
        if events then begin
          let s = Filename.temp_file "tmr_bench_fleet" ".jsonl" in
          Events.to_file s;
          Some s
        end
        else None
      in
      let t0 = Unix.gettimeofday () in
      (match
         Service.run_sharded ~procs ~notify:(fun _ -> ()) ~dir job ctx run
       with
      | Ok (Service.Complete o) ->
          let dt = Unix.gettimeofday () -. t0 in
          if dt < !best_dt then begin
            best_dt := dt;
            best_c := Some o.Service.o_campaign
          end
      | Ok (Service.Incomplete _) -> failwith "distributed bench: incomplete"
      | Error e -> failwith ("distributed bench: " ^ e));
      Option.iter
        (fun s ->
          Events.close ();
          Sys.remove s)
        stream;
      ignore
        (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))
    done;
    let c = Option.get !best_c in
    let fps = float_of_int total /. !best_dt in
    say
      "  %-24s procs=%d: %.2fs, %.1f faults/s, utilization %.3f, wrong %d"
      label procs !best_dt fps
      (Campaign.utilization c) c.Campaign.wrong;
    (!best_dt, fps, c)
  in
  (* OCaml 5 forbids [fork] once a domain exists: the forked
     configurations run before the in-process one, whose campaign may
     spawn worker domains *)
  let d2, fps2, c2 = measure 2 in
  let d4, fps4, c4 = measure 4 in
  let dev, fps_ev, cev = measure ~events:true 2 in
  let d1, fps1, c1 = measure 1 in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote bench_root)));
  let identical =
    c1.Campaign.results = c2.Campaign.results
    && c1.Campaign.results = c4.Campaign.results
    && c1.Campaign.results = cev.Campaign.results
  in
  let spool_overhead_pct = 100.0 *. (1.0 -. (fps_ev /. fps2)) in
  let spool_ok = fps_ev >= 0.97 *. fps2 in
  say
    "  exact wrong rate %.4f%% over %d essential bits; 2-proc speedup \
     %.2fx, 4-proc %.2fx, identical results: %b"
    (Campaign.wrong_percent c1)
    total (fps2 /. fps1) (fps4 /. fps1) identical;
  say
    "  spooled telemetry at procs=2: %.1f vs %.1f faults/s (%.1f%% \
     overhead)%s"
    fps_ev fps2 spool_overhead_pct
    (if spool_ok then "" else "  ** exceeds 3% budget **");
  let row name procs dt fps (c : Campaign.t) =
    Printf.sprintf
      "    { \"name\": %S, \"procs\": %d, \"shards\": 16, \"seconds\": \
       %.3f, \"faults_per_sec\": %.2f, \"wrong\": %d, \
       \"worker_utilization\": %.3f }"
      name procs dt fps c.Campaign.wrong (Campaign.utilization c)
  in
  Printf.sprintf
    "{\n\
    \    \"design\": %S, \"scale\": \"reduced\", \"exhaustive\": true, \
     \"faults\": %d,\n\
    \    \"rows\": [\n\
     %s,\n\
     %s,\n\
     %s,\n\
     %s\n\
    \    ],\n\
    \    \"wrong_percent_exact\": %.4f,\n\
    \    \"speedup_2procs\": %.3f,\n\
    \    \"speedup_4procs\": %.3f,\n\
    \    \"spool_overhead_percent\": %.2f,\n\
    \    \"spool_overhead_ok\": %b,\n\
    \    \"identical_results\": %b\n\
    \  }"
    (Partition.name Partition.Medium_partition)
    total
    (row "distributed-exhaustive" 1 d1 fps1 c1)
    (row "distributed-exhaustive" 2 d2 fps2 c2)
    (row "distributed-exhaustive" 4 d4 fps4 c4)
    (row "distributed-spooled" 2 dev fps_ev cev)
    (Campaign.wrong_percent c1)
    (fps2 /. fps1) (fps4 /. fps1) spool_overhead_pct spool_ok identical

let campaign_bench ~distributed =
  let faults =
    match int_env "TMR_FAULTS" with Some n -> n | None -> 1000
  in
  let parallel_workers = match jobs () with Some j -> j | None -> 4 in
  say "campaign throughput (paper-scale FIR, %s, %d faults):"
    (Partition.name Partition.Medium_partition)
    faults;
  let ctx = Context.create ~scale:Context.Paper ~seed:1 ~faults_per_design:faults () in
  let run =
    time "implement" (fun () ->
        Runs.implement_design ctx Partition.Medium_partition)
  in
  let base =
    measure_row ~name:"sequential-rebuild" ~workers:1 ~cone_skip:false ctx run
  in
  let batched =
    measure_row ~repeat:3 ~name:"parallel-batched" ~workers:parallel_workers
      ~cone_skip:true ctx run
  in
  let forn =
    measure_row ~repeat:3 ~forensics:true ~name:"parallel-diff-forensics"
      ~workers:parallel_workers ~cone_skip:true ctx run
  in
  (* live telemetry cost: same batched configuration with every progress
     tick, batch dispatch and heartbeat appended to a JSONL sink.  Each
     event is one synchronous line write, and events are per batch and
     per tick, not per fault, so the fault loop should pay ≤3%. *)
  let events_path = Filename.temp_file "tmr_bench_events" ".jsonl" in
  Tmr_obs.Events.to_file events_path;
  let ev =
    Fun.protect
      ~finally:(fun () -> Tmr_obs.Events.close ())
      (fun () ->
        measure_row ~repeat:3 ~name:"parallel-batched-events"
          ~workers:parallel_workers ~cone_skip:true ctx run)
  in
  let ev_published = Tmr_obs.Events.published () in
  Sys.remove events_path;
  (* detecting-voter cost: the self-checking voter adds pairwise
     disagreement detectors and an OR tree, and the campaign watches
     three extra error ports per cycle — throughput should stay within
     5% of the plain-majority batched row, and the four-way taxonomy
     must refine, never change, the functional wrong/silent split.  The
     detecting TMR_p2 needs more bels than the paper device has; the row
     is then left out and the block reads null, as [tables] renders a
     voter that does not fit. *)
  let det =
    match
      time "implement (detecting voter)" (fun () ->
          Runs.implement_design ~voter:Tmr_core.Voter.Detecting ctx
            Partition.Medium_partition)
    with
    | det_run ->
        Some
          (measure_row ~repeat:3 ~name:"detecting-voter"
             ~workers:parallel_workers ~cone_skip:true ctx det_run)
    | exception Failure msg ->
        say "  detecting voter skipped: %s" msg;
        None
  in
  let strip (r : Campaign.fault_result) =
    { r with Campaign.forensics = None }
  in
  let identical =
    base.cr_c.Campaign.results = batched.cr_c.Campaign.results
    && base.cr_c.Campaign.results
       = Array.map strip forn.cr_c.Campaign.results
  in
  let events_identical =
    base.cr_c.Campaign.results = ev.cr_c.Campaign.results
  in
  let events_overhead = batched.cr_fps /. ev.cr_fps in
  let events_ok = ev.cr_fps >= 0.97 *. batched.cr_fps in
  let speedup = batched.cr_fps /. base.cr_fps in
  let skip_rate =
    float_of_int batched.cr_c.Campaign.stats.Campaign.skipped
    /. float_of_int (max 1 batched.cr_c.Campaign.injected)
  in
  let converge_rate =
    float_of_int batched.cr_c.Campaign.stats.Campaign.converged
    /. float_of_int (max 1 batched.cr_c.Campaign.stats.Campaign.diffed)
  in
  let forensics_overhead = forn.cr_dt /. batched.cr_dt in
  let fs = Option.get (Campaign.forensic_summary forn.cr_c) in
  let detection =
    match det with
    | None -> "null"
    | Some det ->
        let overhead = batched.cr_fps /. det.cr_fps in
        let ok = det.cr_fps >= 0.95 *. batched.cr_fps in
        let counts = Campaign.detection_counts det.cr_c in
        let wrong =
          Array.fold_left
            (fun acc (r : Campaign.fault_result) ->
              if r.Campaign.outcome = Campaign.Wrong_answer then acc + 1
              else acc)
            0 det.cr_c.Campaign.results
        in
        let split_identical =
          counts.Campaign.dc_detected_wrong + counts.Campaign.dc_silent_wrong
          = wrong
          && counts.Campaign.dc_silent_correct
             + counts.Campaign.dc_detected_corrected
             = det.cr_c.Campaign.injected - wrong
        in
        say
          "  detecting voter: %.3fx overhead (%.1f faults/s vs %.1f), within \
           5%%: %b, corrected %d, detected-wrong %d, SDC %d (%.2f%%), \
           wrong/silent split identical: %b"
          overhead det.cr_fps batched.cr_fps ok
          counts.Campaign.dc_detected_corrected
          counts.Campaign.dc_detected_wrong counts.Campaign.dc_silent_wrong
          (Campaign.sdc_percent det.cr_c)
          split_identical;
        Printf.sprintf
          "{ \"overhead\": %.4f, \"overhead_ok\": %b, \"silent_correct\": \
           %d, \"detected_corrected\": %d, \"detected_wrong\": %d, \
           \"silent_wrong\": %d, \"sdc_percent\": %.4f, \
           \"detected_percent\": %.4f, \"wrong_split_identical\": %b }"
          overhead ok counts.Campaign.dc_silent_correct
          counts.Campaign.dc_detected_corrected
          counts.Campaign.dc_detected_wrong counts.Campaign.dc_silent_wrong
          (Campaign.sdc_percent det.cr_c)
          (Campaign.detected_percent det.cr_c)
          split_identical
  in
  say
    "  speedup %.2fx over the rebuild oracle, skip-rate %.1f%%, \
     converge-rate %.1f%%, identical results: %b"
    speedup (100. *. skip_rate) (100. *. converge_rate) identical;
  say
    "  forensics: %.2fx overhead (%.1f faults/s), cross-domain %d, \
     voter-masked %d of %d silent-diverged"
    forensics_overhead forn.cr_fps fs.Campaign.fs_cross
    fs.Campaign.fs_voter_masked fs.Campaign.fs_silent_diverged;
  say
    "  events: %.3fx overhead (%.1f faults/s vs %.1f), within 3%%: %b, \
     %d published, identical results: %b"
    events_overhead ev.cr_fps batched.cr_fps events_ok ev_published
    events_identical;
  (* nest the snapshots under the top-level object's 2-space indent *)
  let indent_json snap =
    String.concat "\n  "
      (String.split_on_char '\n'
         (String.trim (Tmr_obs.Metrics.to_json_string snap)))
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"benchmark\": \"fault-injection campaign\",\n\
      \  \"design\": %S,\n\
      \  \"scale\": \"paper\",\n\
      \  \"faults\": %d,\n\
      \  \"rows\": [\n\
       %s\n\
      \  ],\n\
      \  \"speedup\": %.3f,\n\
      \  \"skip_rate\": %.4f,\n\
      \  \"converge_rate\": %.4f,\n\
      \  \"identical_results\": %b,\n\
      \  \"forensics\": { \"overhead\": %.3f, \"faults\": %d, \
       \"cross_domain\": %d, \"cross_domain_wrong\": %d, \
       \"multi_partition\": %d, \"voter_touch\": %d, \"diverged\": %d, \
       \"silent_diverged\": %d, \"voter_masked\": %d },\n\
      \  \"events\": { \"overhead\": %.4f, \"overhead_ok\": %b, \
       \"published\": %d, \"identical_results\": %b },\n\
      \  \"detection\": %s,\n\
      \  \"distributed\": %s,\n\
      \  \"metrics\": %s,\n\
      \  \"metrics_batch\": %s\n\
       }\n"
      (Partition.name Partition.Medium_partition)
      faults
      (String.concat ",\n"
         (List.map row_json
            ([ base; batched; ev; forn ] @ Option.to_list det)))
      speedup skip_rate converge_rate identical
      forensics_overhead fs.Campaign.fs_faults fs.Campaign.fs_cross
      fs.Campaign.fs_cross_wrong fs.Campaign.fs_multi_part
      fs.Campaign.fs_voter_touch fs.Campaign.fs_diverged
      fs.Campaign.fs_silent_diverged fs.Campaign.fs_voter_masked
      events_overhead events_ok ev_published events_identical detection
      distributed
      (indent_json base.cr_snap) (indent_json batched.cr_snap)
  in
  let oc = open_out "BENCH_campaign.json" in
  output_string oc json;
  close_out oc;
  say "  wrote BENCH_campaign.json"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the flow stages *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  (* first, while this process has no domain yet: it forks workers *)
  let distributed = distributed_bench () in
  say "micro-benchmarks (reduced device, 3-tap filter):";
  let dev = Tmr_arch.Device.build Tmr_arch.Arch.small in
  let db = Tmr_arch.Bitdb.build dev in
  let params = Tmr_filter.Fir.tiny_params in
  let nl = Tmr_filter.Designs.build ~params Partition.Medium_partition in
  let impl = Tmr_pnr.Impl.implement_exn ~seed:4 dev db nl in
  let faultlist = Tmr_inject.Faultlist.of_impl impl in
  let faults = Tmr_inject.Faultlist.sample faultlist ~seed:5 ~count:16 in
  let golden_nl = Tmr_filter.Fir.build params in
  let stimulus =
    {
      Tmr_inject.Campaign.cycles = 16;
      inputs = [ ("x", Tmr_filter.Fir.stimulus ~cycles:16 ~seed:3 params) ];
    }
  in
  let mapped () = Tmr_techmap.Techmap.run nl in
  let packed () = Tmr_pnr.Pack.run impl.Tmr_pnr.Impl.mapped in
  let placed () =
    Tmr_pnr.Place.run ~seed:4 ~moves_per_site:16 dev impl.Tmr_pnr.Impl.pack
      impl.Tmr_pnr.Impl.mapped
  in
  let routed () =
    match
      Tmr_pnr.Route.run dev impl.Tmr_pnr.Impl.pack impl.Tmr_pnr.Impl.place
    with
    | Ok r -> r
    | Error e -> failwith e
  in
  let ex =
    Tmr_fabric.Extract.create dev db
      (Tmr_arch.Bitstream.copy impl.Tmr_pnr.Impl.bitgen.Tmr_pnr.Bitgen.bitstream)
  in
  let out_wires =
    let bits = Tmr_netlist.Netlist.find_output_port impl.Tmr_pnr.Impl.mapped "y" in
    Array.init (Array.length bits) (Tmr_pnr.Impl.output_pad_wire impl "y")
  in
  let ws = Tmr_fabric.Fsim.make_workspace dev in
  let fsim_build () = Tmr_fabric.Fsim.build ~ws ex ~watch_outputs:out_wires in
  let campaign () =
    Tmr_inject.Campaign.run ~name:"micro" ~impl ~golden:golden_nl ~stimulus
      ~faults ()
  in
  let tests =
    [
      Test.make ~name:"techmap tmr_p2 (tiny)" (Staged.stage mapped);
      Test.make ~name:"pack tmr_p2 (tiny)" (Staged.stage packed);
      Test.make ~name:"place tmr_p2 (tiny)" (Staged.stage placed);
      Test.make ~name:"route tmr_p2 (tiny)" (Staged.stage routed);
      Test.make ~name:"fsim build per fault" (Staged.stage fsim_build);
      Test.make ~name:"campaign of 16 faults" (Staged.stage campaign);
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> say "%-28s %12.0f ns/run" name est
          | Some _ | None -> say "%-28s (no estimate)" name)
        results)
    tests;
  campaign_bench ~distributed

(* ------------------------------------------------------------------ *)

let () =
  let w =
    {
      device = false; memory = false; t1 = false; t2 = false; t3 = false;
      t4 = false; f1 = false; f2 = false; f3 = false; f4 = false;
      micro = false; ablation = false; scrub = false; scale = Context.Paper;
    }
  in
  let all () =
    w.device <- true; w.memory <- true; w.t1 <- true; w.t2 <- true;
    w.t3 <- true; w.t4 <- true; w.f1 <- true; w.f2 <- true; w.f3 <- true;
    w.f4 <- true; w.ablation <- true; w.scrub <- true
  in
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [] then all ()
  else
    List.iter
      (function
        | "all" -> all ()
        | "quick" ->
            all ();
            w.scale <- Context.Reduced
        | "device" -> w.device <- true
        | "memory" -> w.memory <- true
        | "table1" -> w.t1 <- true
        | "table2" -> w.t2 <- true
        | "table3" -> w.t3 <- true
        | "table4" -> w.t4 <- true
        | "fig1" -> w.f1 <- true
        | "fig2" -> w.f2 <- true
        | "fig3" -> w.f3 <- true
        | "fig4" -> w.f4 <- true
        | "micro" -> w.micro <- true
        | "ablation" -> w.ablation <- true
        | "scrub" -> w.scrub <- true
        | "reduced" -> w.scale <- Context.Reduced
        | other ->
            Printf.eprintf
              "unknown experiment %S (device memory table1-4 fig1-4 \
               ablation scrub micro quick all reduced)\n"
              other;
            exit 2)
      args;
  let faults =
    match int_env "TMR_FAULTS" with
    | Some n -> n
    | None -> if w.scale = Context.Paper then 1500 else 400
  in
  if w.device || w.memory || needs_impls w || w.f2 then
    run_experiments w ~faults ~seed:1;
  if w.ablation || w.scrub then begin
    let ctx = Context.create ~scale:w.scale ~seed:1 ~faults_per_design:faults () in
    if w.ablation then begin
      print_string
        (time "ablation" (fun () ->
             Tmr_experiments.Ablation.floorplan ctx Partition.Medium_partition));
      print_newline ()
    end;
    if w.scrub then begin
      print_string (time "scrub" (fun () -> Tmr_experiments.Ablation.scrub ctx));
      print_newline ()
    end
  end;
  if w.micro then micro ()
