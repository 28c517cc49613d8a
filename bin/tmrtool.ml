(* tmrtool — command-line driver for the TMR voter-partition study.

   Subcommands:
     report     device / memory composition, Table 1, Figs. 1-4, ablations
     implement  run one filter version through the CAD flow
     inject     fault-injection campaign on one design (--store: its
                fault-dictionary entry)
     explain    forensic deep-dive of one fault bit
     tables     regenerate the paper's Tables 2/3/4 (+ forensics) *)

open Cmdliner

module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs
module Tables = Tmr_experiments.Tables
module Reports = Tmr_experiments.Reports
module Figures = Tmr_experiments.Figures
module Ablation = Tmr_experiments.Ablation
module Store = Tmr_experiments.Store
module Service = Tmr_experiments.Service
module Shard = Tmr_inject.Shard
module Partition = Tmr_core.Partition
module Voter = Tmr_core.Voter
module Impl = Tmr_pnr.Impl
module Campaign = Tmr_inject.Campaign
module Classify = Tmr_inject.Classify
module Forensics = Tmr_inject.Forensics
module Metrics = Tmr_obs.Metrics
module Stats = Tmr_obs.Stats
module Trace = Tmr_obs.Trace
module Progress = Tmr_obs.Progress
module Fsim = Tmr_fabric.Fsim
module Extract = Tmr_fabric.Extract
module Footprint = Tmr_fabric.Footprint
module Bitdb = Tmr_arch.Bitdb
module Bitstream = Tmr_arch.Bitstream
module Logic = Tmr_logic.Logic
module Vcd = Tmr_netlist.Vcd

let scale_conv =
  let parse = function
    | "paper" -> Ok Context.Paper
    | "reduced" -> Ok Context.Reduced
    | s -> Error (`Msg (Printf.sprintf "unknown scale %S (paper|reduced)" s))
  in
  let print ppf = function
    | Context.Paper -> Format.pp_print_string ppf "paper"
    | Context.Reduced -> Format.pp_print_string ppf "reduced"
  in
  Arg.conv (parse, print)

let design_conv =
  let parse s =
    match
      List.find_opt
        (fun d -> Partition.name d = s)
        Partition.all_paper_designs
    with
    | Some d -> Ok d
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown design %S (%s)" s
               (String.concat "|" (List.map Partition.name Partition.all_paper_designs))))
  in
  let print ppf d = Format.pp_print_string ppf (Partition.name d) in
  Arg.conv (parse, print)

let scale_t =
  Arg.(value & opt scale_conv Context.Paper & info [ "scale" ] ~doc:"paper or reduced")

(* Numeric options checked at parse time, so an out-of-range value is a
   usage error naming the option rather than a crash further in. *)
let checked conv ok what =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%s is not %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = checked Arg.int (fun n -> n > 0) "a positive integer"

let seed_t = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"random seed")

let faults_t =
  Arg.(
    value & opt positive_int 1500 & info [ "faults" ] ~doc:"faults per design")

let design_t =
  Arg.(
    value
    & opt design_conv Partition.Medium_partition
    & info [ "design" ] ~doc:"filter version (standard|tmr_p1|tmr_p2|tmr_p3|tmr_p3_nv)")

let voter_conv =
  let parse s =
    match Voter.of_name s with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown voter %S (%s)" s
               (String.concat "|" (List.map Voter.name Voter.all))))
  in
  let print ppf v = Format.pp_print_string ppf (Voter.name v) in
  Arg.conv (parse, print)

let voter_t =
  Arg.(
    value
    & opt voter_conv Voter.Majority
    & info [ "voter" ] ~docv:"V"
        ~doc:
          "Voter macro the TMR designs instantiate: $(b,majority) (the \
           paper's opaque 3-input vote), $(b,improved) (Balasubramanian & \
           Prasad's 2-input-gate decomposition) or $(b,detecting) \
           (majority plus pairwise disagreement flags exported as \
           tmr_err_* ports; campaigns classify every fault into the \
           detected-vs-silent verdict taxonomy).")

let oracle_t =
  Arg.(
    value & flag
    & info [ "oracle" ]
        ~doc:
          "Rebuild the fault simulator from the flipped configuration for \
           every fault and replay the whole stimulus, instead of running \
           the batched differential engine.  This is the oracle the engine \
           is checked against: per-fault results are byte-identical, only \
           much slower.")

let mk_ctx scale seed faults =
  Context.create ~scale ~seed ~faults_per_design:faults ()

let forensics_file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "forensics" ] ~docv:"FILE"
        ~doc:
          "Stream one JSON object per injected fault to $(docv): domain \
           attribution (which redundancy domains and voter partitions the \
           fault touches, cross-domain flag), divergence trace \
           (first-divergence node/cycle, propagation depth) and the \
           masked-at-voter verdict.  Enables forensic collection; campaign \
           results are bit-identical either way.")

(* Install the forensic sink around the work, flushing also on crash. *)
let with_forensics file f =
  Option.iter Forensics.to_file file;
  Fun.protect ~finally:Forensics.close f

(* --- telemetry (global options, every subcommand) --- *)

let trace_file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write Chrome-trace-event JSONL spans (CAD phases, campaigns, \
           per-fault injections) to $(docv).  With $(b,--procs) > 1 each \
           worker traces to its own file and the spans are stitched into \
           $(docv) (pid-qualified) after the run.  Open with \
           ui.perfetto.dev, or wrap into an array for chrome://tracing.")

let metrics_file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a JSON metrics snapshot (counters, gauges, latency \
           histogram percentiles) to $(docv) on exit.")

let events_file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:
          "Stream live structured campaign events (started / progress / \
           worker heartbeats / batch dispatches / stopped) to $(docv) as \
           JSONL, one whole line appended and flushed per \
           event, so the sequence numbers are dense and $(b,tmrtool watch \
           -f) $(docv) can tail the file live.  With $(b,--procs) > 1 \
           every worker spools its events beside the shard queue and the \
           parent relays them into $(docv) live, origin-stamped \
           ($(i,pid)/$(i,worker)/$(i,shard)/$(i,job)), so $(docv) is one \
           merged fleet stream.")

let telemetry_t =
  Term.(
    const (fun trace metrics events -> (trace, metrics, events))
    $ trace_file_t $ metrics_file_t $ events_file_t)

(* An interrupted run should still leave its telemetry behind: first
   wind down any forked worker fleet (terminate, reap, drain the spool
   tails onto the bus — so the merged stream ends on whole lines — and
   fold the workers' metrics), then flush every sink and exit with the
   conventional 128+SIGINT status. *)
let install_sigint metrics =
  ignore
    (Sys.signal Sys.sigint
       (Sys.Signal_handle
          (fun _ ->
            (try Service.interrupt () with _ -> ());
            (try Trace.close () with _ -> ());
            (try Tmr_obs.Events.close () with _ -> ());
            (try Forensics.close () with _ -> ());
            (try Option.iter Metrics.write_file metrics with _ -> ());
            exit 130)))

(* Install the trace/event sinks before the work and always flush
   everything after — also when the command raises or is interrupted,
   so a crashed run still leaves its telemetry behind. *)
let with_telemetry (trace, metrics, events) f =
  Option.iter Trace.to_file trace;
  Option.iter Tmr_obs.Events.to_file events;
  install_sigint metrics;
  Fun.protect
    ~finally:(fun () ->
      Trace.close ();
      Tmr_obs.Events.close ();
      Option.iter Metrics.write_file metrics)
    f

(* engine-summary pretty-printing *)

let dur_pp ns =
  if ns < 1e3 then Printf.sprintf "%.0fns" ns
  else if ns < 1e6 then Printf.sprintf "%.1fµs" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.1fms" (ns /. 1e6)
  else Printf.sprintf "%.2fs" (ns /. 1e9)

let engine_summary (c : Campaign.t) =
  let s = c.Campaign.stats in
  Printf.printf "engine: %d workers, wall %s, worker utilization %.0f%%\n"
    c.Campaign.workers
    (dur_pp (float_of_int c.Campaign.wall_ns))
    (100.0 *. Campaign.utilization c);
  let pct n = 100.0 *. float_of_int n /. float_of_int (max 1 c.Campaign.injected) in
  Printf.printf
    "  plan paths: silent %d (%.1f%%), patched %d (%.1f%%), rerouted %d \
     (%.1f%%), rebuilt %d (%.1f%%)\n"
    s.Campaign.skipped (pct s.Campaign.skipped) s.Campaign.patched
    (pct s.Campaign.patched) s.Campaign.rerouted (pct s.Campaign.rerouted)
    s.Campaign.rebuilt (pct s.Campaign.rebuilt);
  let snap = Metrics.snapshot () in
  if s.Campaign.batched > 0 then begin
    match List.assoc_opt "campaign.batch_occupancy" snap.Metrics.histograms with
    | Some h when h.Metrics.count > 0 ->
        Printf.printf
          "  batch engine: %d faults word-parallel in %d batches, lane \
           occupancy p50 %.0f p95 %.0f\n"
          s.Campaign.batched h.Metrics.count h.Metrics.p50 h.Metrics.p95
    | _ -> Printf.printf "  batch engine: %d faults word-parallel\n" s.Campaign.batched
  end;
  Printf.printf "  %-18s %8s %9s %9s %9s\n" "fault latency" "count" "p50"
    "p95" "p99";
  List.iter
    (fun path ->
      match
        List.assoc_opt ("campaign.fault_ns." ^ path) snap.Metrics.histograms
      with
      | Some h when h.Metrics.count > 0 ->
          Printf.printf "  %-18s %8d %9s %9s %9s\n" ("  " ^ path)
            h.Metrics.count (dur_pp h.Metrics.p50) (dur_pp h.Metrics.p95)
            (dur_pp h.Metrics.p99)
      | _ -> ())
    [ "silent"; "rebuild"; "batch" ]

(* --- campaign statistics options --- *)

let confidence_t =
  let level =
    checked Arg.float (fun c -> c > 0. && c < 1.) "a level between 0 and 1"
  in
  Arg.(
    value & opt level 0.95
    & info [ "confidence" ] ~docv:"LEVEL"
        ~doc:
          "Confidence level for every interval and compatibility test \
           (0 < LEVEL < 1).")

(* Progress with the running wrong-answer rate ± CI in the bar.  Returns
   the callback (for [Runs.campaign_design ~progress]) and a flush that
   closes a bar left open (a campaign that never reported its total). *)
let ci_progress ~confidence () =
  let cb, flush = Progress.callback_note () in
  let progress name (p : Campaign.progress) =
    let note =
      if p.Campaign.p_completed <= 0 then ""
      else begin
        let n = p.Campaign.p_completed and k = p.Campaign.p_wrong in
        let i = Stats.wilson ~confidence ~n ~k () in
        Printf.sprintf "wrong %.2f%% ±%.2f%%"
          (100.0 *. float_of_int k /. float_of_int n)
          (50.0 *. (i.Stats.hi -. i.Stats.lo))
      end
    in
    cb name note p.Campaign.p_completed p.Campaign.p_total
  in
  (progress, flush)

let rate_ci_line ~confidence (c : Campaign.t) =
  let i = Campaign.ci ~confidence c in
  Printf.sprintf "%.2f%% [%.2f%%, %.2f%%] at %.0f%% confidence"
    (Campaign.wrong_percent c)
    (100.0 *. i.Stats.lo) (100.0 *. i.Stats.hi) (100.0 *. confidence)

(* Campaign worker-domain count; default picked by Campaign. *)
let jobs () =
  match Sys.getenv_opt "TMR_JOBS" with
  | None -> None
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> Some n
      | Some _ | None ->
          Printf.eprintf "tmrtool: TMR_JOBS must be a positive integer, got %S\n"
            v;
          exit 2)

(* --- report --- *)

(* Every experiment [report] runs, by name.  Each prints its text block
   from the shared context and the five implemented designs, looked up
   by strategy; the designs are built on first use, once per call. *)
let experiments =
  let text f ctx impl = print_string (f ctx impl) in
  let medium = Partition.Medium_partition
  and unpartitioned = Partition.Min_partition_nv in
  [
    ("device", text (fun ctx _ -> Reports.device_report ctx));
    ("memory", text (fun ctx _ -> Reports.memory_report ctx));
    ("table1", text (fun ctx impl -> Tables.table1 ctx (impl medium)));
    ("fig1", text (fun ctx impl -> Figures.fig1 ctx (impl unpartitioned)));
    ("fig2", text (fun ctx _ -> Figures.fig2 ctx));
    ( "fig3",
      text (fun ctx impl ->
          Figures.fig3 ctx (impl unpartitioned) (impl medium)) );
    ( "fig4",
      text (fun _ impl ->
          Figures.fig4 (List.map impl Partition.all_paper_designs)) );
    ("ablation", text (fun ctx _ -> Ablation.floorplan ctx medium));
    ("scrub", text (fun ctx _ -> Ablation.scrub ctx));
  ]

let report_cmd =
  let what =
    Arg.(
      value
      & pos_all string [ "device" ]
      & info [] ~docv:"WHAT"
          ~doc:
            "one or more of device, memory, table1, fig1, fig2, fig3, fig4, \
             ablation and scrub, printed in the order given (default: \
             device)")
  in
  let run telem scale seed faults whats =
    with_telemetry telem @@ fun () ->
    let chosen =
      List.map
        (fun what ->
          match List.assoc_opt what experiments with
          | Some f -> f
          | None ->
              Printf.eprintf "unknown report %S (%s)\n" what
                (String.concat "|" (List.map fst experiments));
              exit 2)
        whats
    in
    let ctx = mk_ctx scale seed faults in
    let impls =
      lazy (List.map (Runs.implement_design ctx) Partition.all_paper_designs)
    in
    let impl s =
      List.find (fun r -> r.Runs.strategy = s) (Lazy.force impls)
    in
    List.iteri
      (fun i f ->
        if i > 0 then print_newline ();
        f ctx impl)
      chosen
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "the paper experiments outside Tables 2-4: device and memory \
          composition, Table 1, Figs. 1-4, the floorplan and scrub \
          ablations")
    Term.(const run $ telemetry_t $ scale_t $ seed_t $ faults_t $ what)

(* --- implement --- *)

let implement_cmd =
  let run telem scale seed design voter =
    with_telemetry telem @@ fun () ->
    let ctx = mk_ctx scale seed 0 in
    let r = Runs.implement_design ~voter ctx design in
    let impl = r.Runs.impl in
    Printf.printf "%s (%s)\n" (Partition.paper_name design)
      (Tmr_filter.Designs.description design);
    let vc = Voter.cost voter in
    Printf.printf
      "  voter         %s (%d vote + %d detect cells/bit, %d levels, %.2f ns)\n"
      (Voter.name voter) vc.Voter.vote_cells vc.Voter.detect_cells
      vc.Voter.levels vc.Voter.delay_ns;
    Printf.printf "  slices        %d\n" (Impl.used_slices impl);
    Printf.printf "  LUTs          %d\n" (Impl.used_luts impl);
    Printf.printf "  flip-flops    %d\n" (Impl.used_ffs impl);
    Printf.printf "  route iters   %d\n"
      impl.Impl.route.Tmr_pnr.Route.iterations;
    Printf.printf "  route digest  %s\n" (Impl.route_digest impl);
    Printf.printf "  est. clock    %.1f MHz (critical %.1f ns, %d LUT levels)\n"
      impl.Impl.timing.Tmr_pnr.Timing.mhz
      impl.Impl.timing.Tmr_pnr.Timing.critical_ns
      impl.Impl.timing.Tmr_pnr.Timing.logic_levels;
    List.iter
      (fun (cls, n) ->
        Printf.printf "  DUT %-13s %d bits\n" (Tmr_arch.Bitdb.class_name cls) n)
      r.Runs.faultlist.Tmr_inject.Faultlist.by_class
  in
  Cmd.v
    (Cmd.info "implement" ~doc:"map, place and route one filter version")
    Term.(const run $ telemetry_t $ scale_t $ seed_t $ design_t $ voter_t)

(* --- inject --- *)

(* sharded / distributed campaign options *)

let exhaustive_t =
  Arg.(
    value & flag
    & info [ "exhaustive" ]
        ~doc:
          "Inject the design's $(i,entire) essential-bit list instead of a \
           random sample: the exact wrong-answer rate, no confidence \
           interval.  Runs through the sharded engine; combine with \
           $(b,--shards)/$(b,--procs)/$(b,--shard-dir) to checkpoint and \
           parallelise.")

let shards_t =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "shards" ] ~docv:"K"
        ~doc:
          "Plan the fault space as $(docv) checkpointable ranges (default \
           16 when sharded).  Every completed shard persists a manifest \
           plus its per-fault verdict records under the shard directory, \
           so an interrupted run resumes from what is already done.")

let procs_t =
  Arg.(
    value & opt positive_int 1
    & info [ "procs" ] ~docv:"P"
        ~doc:
          "Fork $(docv) worker processes that claim shards concurrently \
           from the on-disk queue (rename-based claims; a crashed worker's \
           claim is reclaimed by the next invocation).  The merged result \
           is bit-identical to $(b,--procs) 1.")

let shard_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "shard-dir" ] ~docv:"DIR"
        ~doc:
          "Shard queue directory (default $(b,.tmr-shards/)<job name>): \
           job.json, todo/, claims/, done/ manifests, results/ verdict \
           records.  Rerunning with the same $(docv) resumes; a directory \
           holding a different job, or one another build of the tool \
           wrote, is refused unless $(b,--fresh).")

let shard_limit_t =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "shard-limit" ] ~docv:"N"
        ~doc:
          "Stop this invocation after claiming $(docv) shards (per process \
           when forked) — time-boxing for incremental exhaustive runs; the \
           campaign reports incomplete and the next run continues.")

let fresh_t =
  Arg.(
    value & flag
    & info [ "fresh" ]
        ~doc:
          "Discard existing shard state in the queue directory instead of \
           refusing on a job-fingerprint mismatch.")

let merged_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "merged-out" ] ~docv:"FILE"
        ~doc:
          "Write the merged per-fault verdicts (index-ordered JSONL, one \
           object per fault) to $(docv) — the byte-comparable artifact for \
           sharded-equivalence checks.")

let effect_table (c : Campaign.t) =
  List.iter
    (fun eff ->
      let n =
        Array.fold_left
          (fun acc fr ->
            if
              fr.Campaign.outcome = Campaign.Wrong_answer
              && fr.Campaign.effect = eff
            then acc + 1
            else acc)
          0 c.Campaign.results
      in
      if n > 0 then Printf.printf "  %-14s %d\n" (Classify.name eff) n)
    Classify.all

(* the four-way detected-vs-silent split, printed only when the design
   actually carries detection logic *)
let detection_summary voter (c : Campaign.t) =
  if Voter.has_detection voter then begin
    let d = Campaign.detection_counts c in
    Printf.printf
      "  detection: corrected %d, detected-wrong %d, SDC %d (%.2f%% silent \
       wrong), silent-correct %d\n"
      d.Campaign.dc_detected_corrected d.Campaign.dc_detected_wrong
      d.Campaign.dc_silent_wrong (Campaign.sdc_percent c)
      d.Campaign.dc_silent_correct
  end

let json_t =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Print the campaign summary as one JSON object on stdout instead \
           of the human-readable text (progress still goes to stderr).")

let inject_cmd =
  let inject_store_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "write this campaign's fault-dictionary entry into $(docv): \
             counts, verdict classes, a digest of the per-bit verdicts and \
             the wrong-answer bits, one file per job (a rerun overwrites \
             it)")
  in
  (* inject via the shard engine: plan → (resume) → claim → merge *)
  let run_sharded_inject ~confidence ~scale ~seed ~faults ~design
      ~voter ~oracle ~json ~store ~exhaustive ~shards ~procs ~shard_dir
      ~shard_limit ~fresh ~merged_out =
    let ctx = mk_ctx scale seed faults in
    let r = Runs.implement_design ~voter ctx design in
    let job =
      Service.job ~scale ~seed ~faults ~exhaustive ?shards
        ?workers:(jobs ()) ~cone_skip:(not oracle) ~voter design
    in
    let dir =
      match shard_dir with
      | Some d -> d
      | None -> Filename.concat ".tmr-shards" (Service.job_name job)
    in
    (* keep the event stream fed and give the terminal one line per
       checkpointed range *)
    let notify ev =
      Tmr_obs.Events.publish ev;
      match ev with
      | Tmr_obs.Events.Shard_done { shard; lo; hi; wrong; pending; _ } ->
          Printf.eprintf "shard %3d [%7d,%7d) done: wrong %d, %d pending\n%!"
            shard lo hi wrong pending
      | _ -> ()
    in
    match
      Service.run_sharded ~procs ?shard_limit ~fresh ~notify ~dir job ctx r
    with
    | Error e ->
        Printf.eprintf "tmrtool: %s\n" e;
        exit 1
    | Ok (Service.Incomplete { done_shards; pending_shards } as st) ->
        if json then print_endline (Service.summary_json job st)
        else
          Printf.printf
            "%s: incomplete — %d shards done, %d pending; rerun with \
             --shard-dir %s to continue\n"
            (Partition.paper_name design) done_shards pending_shards dir
    | Ok (Service.Complete o as st) ->
        let c = o.o_campaign in
        Option.iter
          (fun path ->
            let oc = open_out path in
            Array.iteri
              (fun i res ->
                output_string oc (Shard.result_to_line ~index:i res);
                output_char oc '\n')
              c.Campaign.results;
            close_out oc;
            Printf.eprintf "merged per-fault results written to %s\n" path)
          merged_out;
        Option.iter
          (fun dir ->
            let e =
              Store.of_run ~exhaustive ctx { r with Runs.campaign = Some c }
            in
            Printf.eprintf "stored %s\n" (Store.save ~dir e))
          store;
        if json then print_endline (Service.summary_json job st)
        else begin
          Printf.printf "%s: injected %d, wrong answers %d (%s)\n"
            (Partition.paper_name design) c.Campaign.injected c.Campaign.wrong
            (if exhaustive then
               Printf.sprintf "exact rate %.4f%% over every essential bit"
                 (Campaign.wrong_percent c)
             else rate_ci_line ~confidence c);
          Printf.printf
            "  shards: %d merged (%d resumed from manifests, %d simulated), \
             %d process%s\n"
            (o.Service.o_resumed + o.Service.o_fresh)
            o.Service.o_resumed o.Service.o_fresh procs
            (if procs = 1 then "" else "es");
          effect_table c;
          detection_summary voter c;
          engine_summary c
        end
  in
  let run telem forensics scale seed faults design voter oracle json
      confidence store exhaustive shards procs shard_dir shard_limit fresh
      merged_out =
    let sharded =
      exhaustive || procs > 1 || shards <> None || shard_dir <> None
      || shard_limit <> None || merged_out <> None
    in
    (* fail fast on options the sharded engine cannot honour *)
    if sharded && forensics <> None then begin
      Printf.eprintf
        "tmrtool: --forensics does not combine with sharded campaigns \
         (shard verdict records carry no forensic records)\n";
      exit 2
    end;
    with_telemetry telem @@ fun () ->
    with_forensics forensics @@ fun () ->
    if sharded then
      run_sharded_inject ~confidence ~scale ~seed ~faults ~design
        ~voter ~oracle ~json ~store ~exhaustive ~shards ~procs ~shard_dir
        ~shard_limit ~fresh ~merged_out
    else begin
      let ctx = mk_ctx scale seed faults in
      let r = Runs.implement_design ~voter ctx design in
      let progress, flush = ci_progress ~confidence () in
      let r =
        Runs.campaign_design ~progress ?workers:(jobs ())
          ~cone_skip:(not oracle) ctx r
      in
      flush ();
      match r.Runs.campaign with
      | None -> assert false
      | Some c ->
          Option.iter
            (fun dir ->
              Printf.eprintf "stored %s\n" (Store.save ~dir (Store.of_run ctx r)))
            store;
          if json then print_endline (Campaign.summary_json c)
          else begin
            Printf.printf "%s: injected %d, wrong answers %d (%s)\n"
              (Partition.paper_name design) c.Campaign.injected
              c.Campaign.wrong (rate_ci_line ~confidence c);
            effect_table c;
            detection_summary voter c;
            engine_summary c
          end
    end
  in
  Cmd.v
    (Cmd.info "inject" ~doc:"fault-injection campaign on one design")
    Term.(
      const run $ telemetry_t $ forensics_file_t $ scale_t $ seed_t $ faults_t
      $ design_t $ voter_t $ oracle_t $ json_t $ confidence_t
      $ inject_store_t $ exhaustive_t $ shards_t $ procs_t $ shard_dir_t
      $ shard_limit_t $ fresh_t $ merged_out_t)

(* --- explain --- *)

let explain_cmd =
  let bit_t =
    Arg.(
      required
      & opt (some int) None
      & info [ "bit" ] ~docv:"N" ~doc:"configuration bit address to explain")
  in
  let vcd_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "vcd" ] ~docv:"FILE"
          ~doc:
            "Write the faulty run's output waveforms to $(docv) in VCD \
             format, one signal per output port plus its golden reference.")
  in
  let run telem scale seed design voter bit vcd_out =
    with_telemetry telem @@ fun () ->
    let ctx = mk_ctx scale seed 0 in
    let r = Runs.implement_design ~voter ctx design in
    let impl = r.Runs.impl in
    let dev = impl.Impl.dev and db = impl.Impl.db in
    if bit < 0 || bit >= Bitdb.num_bits db then begin
      Printf.eprintf "tmrtool: bit %d out of range (device has %d bits)\n" bit
        (Bitdb.num_bits db);
      exit 2
    end;
    Printf.printf "bit %d on %s (seed %d)\n" bit
      (Partition.paper_name design) seed;
    Printf.printf "  class        %s\n"
      (Bitdb.class_name (Bitdb.class_of_bit db bit));
    let fp = Footprint.of_bit dev db bit in
    Printf.printf "  footprint    %s\n" (Footprint.describe dev fp);
    if
      not
        (Array.exists
           (Int.equal bit)
           r.Runs.faultlist.Tmr_inject.Faultlist.bits)
    then
      print_endline
        "  note         bit is outside the DUT fault list (unused resource)";
    Printf.printf "  effect       %s\n" (Classify.name (Classify.classify impl bit));
    (* structural attribution: domains / partitions the footprint touches *)
    let a = Forensics.attrib_of_impl impl in
    let st = Forensics.structural a bit in
    let domains =
      List.filter
        (fun d -> st.Forensics.domain_mask land (1 lsl d) <> 0)
        [ 0; 1; 2 ]
    in
    Printf.printf "  domains      %s%s\n"
      (if domains = [] then "none (unused or domain-neutral resources)"
       else String.concat "," (List.map string_of_int domains))
      (if st.Forensics.cross_domain then
         "   <- cross-domain: bridges redundancy domains, the vote cannot fix it"
       else "");
    Printf.printf "  partitions   %s\n"
      (if Array.length st.Forensics.partitions = 0 then "-"
       else
         String.concat ", "
           (Array.to_list
              (Array.map (Forensics.part_name a) st.Forensics.partitions)));
    if st.Forensics.voter_touch then
      print_endline "  voter        footprint touches voter logic or a voter net";
    (* one forensic session: the campaign's plan, its lane verdict and
       provenance, and its replay of the faulted fabric *)
    let session =
      Campaign.session ~workers:1 ~forensics:true
        ~name:(Partition.name design) ~impl ~golden:ctx.Context.golden_nl
        ~stimulus:ctx.Context.stimulus ()
    in
    let cone = Campaign.golden_cone session in
    let ex =
      Extract.create dev db
        (Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream)
    in
    let plan = Fsim.plan_fault cone ex bit in
    Printf.printf "  plan path    %s\n" (Fsim.path_name plan);
    (* campaigns classify a vote-masked bit silent before planning it *)
    let masked = Forensics.masked_domain a bit in
    Printf.printf "  masking      %s\n"
      (if masked >= 0 then
         Printf.sprintf
           "silent by the vote-masking proof: domain %d only, no voter \
            (campaigns do not simulate it)"
           masked
       else if not a.Forensics.vote_masking then
         "n/a: the design's voters do not qualify (one majority LUT over \
          three domains each, no detection ports)"
       else if st.Forensics.cross_domain then
         "not proved: the footprint crosses domains"
       else if st.Forensics.voter_touch then
         "not proved: the footprint touches a voter"
       else if st.Forensics.domain_mask = 0 then
         "not proved: the footprint touches no domain's resources"
       else "not proved: the footprint touches a pad or a used resource \
             with no domain");
    let c = Campaign.run_session session ~faults:[| bit |] in
    (* ground truth: the faulted fabric replayed end to end (also feeds
       the waveform) *)
    Extract.apply_bit_flip ex bit;
    let vcd = Option.map (fun _ -> Vcd.writer ()) vcd_out in
    let vcd_sigs = ref [] in
    let err_detail = ref None in
    (* per disagreement flag: the first cycle it left zero *)
    let flags = ref [] in
    let first_err, _ =
      Campaign.replay session ex ~observe:(fun cyc ports ->
          let dets, outs = List.partition (fun p -> p.Campaign.ps_flag) ports in
          if cyc = 0 then begin
            flags := List.map (fun p -> (p.Campaign.ps_port, ref (-1))) dets;
            match vcd with
            | Some w ->
                vcd_sigs :=
                  List.map
                    (fun p ->
                      let port = p.Campaign.ps_port in
                      let width = Array.length p.Campaign.ps_golden in
                      ( Vcd.add_signal w ~label:port ~width,
                        Vcd.add_signal w ~label:(port ^ ".golden") ~width ))
                    outs
            | None -> ()
          end;
          if !err_detail = None then err_detail := Campaign.first_mismatch ports;
          List.iter2
            (fun p (_, first) ->
              if
                !first < 0
                && Array.exists
                     (fun v -> not (Logic.equal v Logic.Zero))
                     p.Campaign.ps_got
              then first := cyc)
            dets !flags;
          match vcd with
          | Some w ->
              List.iter2
                (fun (fs, gs) p ->
                  Vcd.set w fs p.Campaign.ps_got;
                  Vcd.set w gs p.Campaign.ps_golden)
                !vcd_sigs outs;
              Vcd.tick w
          | None -> ())
    in
    (match !err_detail with
    | None -> print_endline "  outcome      silent (all outputs match golden)"
    | Some (p, i) ->
        Printf.printf
          "  outcome      WRONG ANSWER, first at cycle %d (port %S bit %d)\n"
          first_err p.Campaign.ps_port i);
    if masked >= 0 && first_err >= 0 then
      Printf.printf
        "  !!! PROOF VIOLATED: the vote-masking proof classifies this bit \
         silent, but the rebuilt fabric answers wrongly at cycle %d; \
         campaigns report it silent\n"
        first_err;
    if !flags <> [] then begin
      let fired =
        List.filter_map
          (fun (port, first) ->
            if !first >= 0 then Some (port, !first) else None)
          !flags
      in
      match fired with
      | [] ->
          print_endline
            (if first_err >= 0 then
               "  detection    NONE — silent data corruption: no \
                disagreement flag ever fired"
             else "  detection    none (no voter pair ever disagreed)")
      | l ->
          let earliest = List.fold_left (fun a (_, c) -> min a c) max_int l in
          Printf.printf "  detection    %s  (first flag at cycle %d)\n"
            (String.concat ", "
               (List.map (fun (p, c) -> Printf.sprintf "%s@%d" p c) l))
            earliest
    end;
    (* the campaign's verdict: a batch lane's, with its divergence
       provenance, when the fault ran batched *)
    let r = c.Campaign.results.(0) in
    (if c.Campaign.stats.Campaign.batched = 0 then
       match plan with
       | Fsim.Path_silent ->
           print_endline
             "  divergence   none: the bit is outside the DUT's active \
              fabric (cone-silent)"
       | _ ->
           print_endline
             "  divergence   n/a: the fault restructures the netlist \
              (rebuild path), no differential trace"
     else
       let err = r.Campaign.first_error_cycle in
       if err >= 0 then
         Printf.printf "  engine       batch lane: first error at cycle %d\n" err
       else print_endline "  engine       batch lane: silent";
       if r.Campaign.detect_cycle >= 0 then
         Printf.printf "  engine flag  batch lane saw the flag at cycle %d\n"
           r.Campaign.detect_cycle;
       let f = Option.get r.Campaign.forensics in
       Printf.printf "  cone         %d nodes\n" f.Forensics.cone_nodes;
       if f.Forensics.diverged = 0 then
         print_endline
           (if first_err >= 0 then
              "  divergence   confined to rewired/appended nodes (no \
               baseline-comparable node diverged)"
            else
              "  divergence   cone never left the baseline (masked at the \
               fault site)")
       else begin
         Printf.printf
           "  divergence   %d cone nodes diverged; first at cycle %d, \
            propagation depth %d\n"
           f.Forensics.diverged f.Forensics.diverge_cycle f.Forensics.depth;
         (* describe the first diverging node (the one nearest the fault
            site on the first diverging cycle) via its bel, if it has one *)
         let node = f.Forensics.first_diverged_node in
         let bel = ref (-1) in
         for b = 0 to dev.Tmr_arch.Device.nbels - 1 do
           if !bel < 0 && Fsim.cone_node_of_bel cone b = node then bel := b
         done;
         if !bel >= 0 then
           Printf.printf
             "  first node   %d = bel %d (domain %d, partition %s%s), \
              nearest the fault site\n"
             node !bel
             a.Forensics.bel_domain.(!bel)
             (Forensics.part_name a a.Forensics.bel_part.(!bel))
             (if a.Forensics.bel_voter.(!bel) then ", voter" else "")
         else
           Printf.printf
             "  first node   %d (routing/pad node), nearest the fault site\n"
             node;
         (* voter masking: silent overall, yet some voter in the cone
            held its baseline value every cycle *)
         if err < 0 then
           print_endline
             (if f.Forensics.masked_at_voter then
                "  verdict      masked at a voter: internal corruption \
                 stopped at (or before) a majority vote"
              else
                "  verdict      silent but diverged; no voter in the cone \
                 held its baseline (logic masking)")
       end);
    match (vcd, vcd_out) with
    | Some w, Some path ->
        Vcd.writer_save w path;
        Printf.printf "  waveform     wrote %s (%d cycles)\n" path
          ctx.Context.stimulus.Campaign.cycles
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"forensic deep-dive of one configuration bit on one design")
    Term.(
      const run $ telemetry_t $ scale_t $ seed_t $ design_t $ voter_t $ bit_t
      $ vcd_t)

(* --- congestion --- *)

let congestion_cmd =
  let run telem scale seed design =
    with_telemetry telem @@ fun () ->
    let ctx = mk_ctx scale seed 0 in
    let r = Runs.implement_design ctx design in
    let impl = r.Runs.impl in
    let cong =
      Tmr_pnr.Congestion.analyze ctx.Context.dev impl.Impl.route
        impl.Impl.mapped impl.Impl.pack
    in
    Printf.printf "%s: %s\n\n" (Partition.paper_name design)
      (Tmr_pnr.Congestion.summary cong);
    print_endline "channel utilization (decile per tile):";
    print_string (Tmr_pnr.Congestion.heatmap cong);
    print_endline "\ndistinct TMR domains routed per tile (upset-b surface):";
    print_string (Tmr_pnr.Congestion.mix_map cong)
  in
  Cmd.v
    (Cmd.info "congestion"
       ~doc:"routing utilization and domain-mix heatmaps for one design")
    Term.(const run $ telemetry_t $ scale_t $ seed_t $ design_t)

(* --- export --- *)

let export_cmd =
  let out_t =
    Arg.(value & opt (some string) None & info [ "o" ] ~doc:"output file")
  in
  let mapped_t =
    Arg.(value & flag & info [ "mapped" ] ~doc:"export the post-techmap netlist")
  in
  let run telem scale seed design voter mapped out =
    with_telemetry telem @@ fun () ->
    let ctx = mk_ctx scale seed 0 in
    let nl =
      Tmr_filter.Designs.build ~params:ctx.Context.params ~voter design
    in
    let nl =
      if mapped then (Tmr_techmap.Techmap.run nl).Tmr_techmap.Techmap.mapped
      else nl
    in
    match out with
    | None -> print_string (Tmr_netlist.Export.to_string nl)
    | Some path ->
        let oc = open_out path in
        Tmr_netlist.Export.to_channel oc nl;
        close_out oc;
        Printf.eprintf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "export" ~doc:"dump a design netlist in the text interchange format")
    Term.(
      const run $ telemetry_t $ scale_t $ seed_t $ design_t $ voter_t
      $ mapped_t $ out_t)

(* --- tables --- *)

let tables_cmd =
  let tables_json_t =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print one JSON object on stdout instead of the text tables: \
             per design, the same engine-summary schema as $(b,inject \
             --json) extended with slices, MHz, DUT bits by class, the \
             paper's Table 3 row and the injection-coverage record.")
  in
  let voters_t =
    Arg.(
      value
      & opt (list voter_conv) [ Voter.Majority; Voter.Improved; Voter.Detecting ]
      & info [ "voters" ] ~docv:"LIST"
          ~doc:
            "Comma-separated voter variants to campaign for the detection \
             coverage table (default all three).  The first listed voter \
             feeds Tables 2/3/4 and the forensics table, so the default \
             reproduces the paper's majority-voter numbers while \
             re-measuring the partition optimum under every variant.")
  in
  let run telem forensics scale seed faults oracle voters json =
    with_telemetry telem @@ fun () ->
    with_forensics forensics @@ fun () ->
    let ctx = mk_ctx scale seed faults in
    let voters = match voters with [] -> [ Voter.Majority ] | vs -> vs in
    let primary = List.hd voters in
    let impls =
      List.map
        (Runs.implement_design ~voter:primary ctx)
        Partition.all_paper_designs
    in
    if not json then begin
      print_string (Tables.table2 impls);
      print_newline ()
    end;
    let progress, flush = ci_progress ~confidence:0.95 () in
    let campaign =
      Runs.campaign_design ~progress ?workers:(jobs ()) ~cone_skip:(not oracle)
        ~forensics:true ctx
    in
    let runs = List.map campaign impls in
    (* the remaining voter variants, campaigned over the same fault
       sample for the per-voter SDC comparison *)
    let extra =
      List.concat_map
        (fun v ->
          List.filter_map
            (fun strategy ->
              (* a costlier voter can overflow the device on the larger
                 partitionings; the detection table renders those as "-" *)
              match Runs.implement_design ~voter:v ctx strategy with
              | r -> Some (campaign r)
              | exception Failure msg ->
                  Printf.eprintf "tables: skipping %s with %s voter (%s)\n%!"
                    (Partition.name strategy) (Voter.name v) msg;
                  None)
            Partition.all_paper_designs)
        (List.filter (fun v -> v <> primary) voters)
    in
    flush ();
    if json then print_endline (Tables.tables_json ctx (runs @ extra))
    else begin
      print_string (Tables.table3 runs);
      print_newline ();
      print_string (Tables.table4 runs);
      print_newline ();
      print_string (Tables.table_forensics runs);
      print_newline ();
      print_string (Tables.table_voters ());
      print_newline ();
      print_string (Tables.table_detection (runs @ extra))
    end
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:
         "regenerate the paper's Tables 2, 3 and 4 plus fault forensics \
          and the per-voter detection coverage comparison")
    Term.(
      const run $ telemetry_t $ forensics_file_t $ scale_t $ seed_t $ faults_t
      $ oracle_t $ voters_t $ tables_json_t)

(* --- profile --- *)

let profile_cmd =
  let trace_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE.jsonl"
          ~doc:"Chrome-trace JSONL file written by $(b,--trace).")
  in
  let collapsed_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "collapsed" ] ~docv:"FILE"
          ~doc:
            "Also write collapsed stacks ($(i,path;to;span count) per \
             line, counts = self time in µs) to $(docv) for \
             flamegraph.pl / inferno / speedscope.")
  in
  let width_t =
    Arg.(
      value & opt int 60
      & info [ "timeline-width" ] ~docv:"N"
          ~doc:"Buckets in the per-worker utilization timeline.")
  in
  let run path collapsed width =
    match Tmr_obs.Profile.load_file path with
    | Error e ->
        Printf.eprintf "tmrtool profile: %s\n" e;
        exit 1
    | Ok t ->
        print_string (Tmr_obs.Profile.report t);
        ignore width;
        Option.iter
          (fun out ->
            let oc = open_out out in
            output_string oc (Tmr_obs.Profile.collapsed t);
            close_out oc;
            Printf.eprintf "collapsed stacks written to %s\n" out)
          collapsed
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "aggregate a --trace run: per-span self/total time, per-worker \
          utilization, flamegraph export")
    Term.(const run $ trace_arg $ collapsed_t $ width_t)

(* --- watch --- *)

let watch_cmd =
  let source_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOURCE"
          ~doc:
            "Event stream to read: a JSONL file written by $(b,--events \
             FILE).")
  in
  let follow_t =
    Arg.(
      value & flag
      & info [ "follow"; "f" ]
          ~doc:
            "Keep tailing the file as it grows until every campaign seen \
             has stopped (the live path: start it beside a running \
             $(b,--events) campaign).")
  in
  let watch_json_t =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print one JSON array on stdout (a summary object per \
             campaign, same fields and formatting as $(b,inject --json)) \
             instead of the dashboard.")
  in
  let worker_timeout_t =
    Arg.(
      value
      & opt float 10.0
      & info [ "worker-timeout" ] ~docv:"SEC"
          ~doc:
            "On a merged $(b,--procs) fleet stream, flag a worker process \
             $(b,STALE) when its newest event is more than $(docv) seconds \
             older than the newest event on the stream (by event \
             timestamps, so replayed files judge staleness in run time, \
             not wall time).  0 disables the check.")
  in
  let run source follow json confidence worker_timeout =
    let worker_timeout =
      if worker_timeout > 0.0 then Some worker_timeout else None
    in
    let st = Tmr_obs.Watch.create () in
    let bad = ref 0 in
    let feed line =
      if String.trim line <> "" then
        match Tmr_obs.Events.parse_line line with
        | Ok p -> Tmr_obs.Watch.feed st p
        | Error _ -> incr bad
    in
    let tty = (not json) && Unix.isatty Unix.stderr in
    let drawn = ref 0 in
    let last_draw = ref 0.0 in
    (* live TTY dashboard: repaint in place by cursor-up + erase-line,
       rate-limited so a fast stream doesn't melt the terminal *)
    let redraw ~final () =
      if tty then begin
        let now = Unix.gettimeofday () in
        if final || now -. !last_draw >= 0.2 then begin
          last_draw := now;
          let lines =
            String.split_on_char '\n'
              (Tmr_obs.Watch.render ~confidence ?worker_timeout st)
            |> List.filter (fun l -> l <> "")
          in
          if !drawn > 0 then Printf.eprintf "\027[%dA" !drawn;
          List.iter (fun l -> Printf.eprintf "\027[2K%s\n" l) lines;
          drawn := List.length lines;
          flush stderr
        end
      end
    in
    let ic =
      try open_in source
      with Sys_error e ->
        Printf.eprintf "tmrtool watch: %s\n" e;
        exit 1
    in
    let next_line () =
      if follow then Tmr_obs.Events.input_whole_line ic
      else In_channel.input_line ic
    in
    let continue = ref true in
    while !continue do
      match next_line () with
      | Some line ->
          feed line;
          redraw ~final:false ()
      | None ->
          if follow && not (Tmr_obs.Watch.finished st) then begin
            redraw ~final:false ();
            Unix.sleepf 0.2
          end
          else continue := false
    done;
    close_in ic;
    if !bad > 0 then
      Printf.eprintf "tmrtool watch: skipped %d unparseable lines\n" !bad;
    if Tmr_obs.Watch.events_seen st = 0 then begin
      Printf.eprintf "tmrtool watch: no events in %s\n" source;
      exit 1
    end;
    redraw ~final:true ();
    if json then print_string (Tmr_obs.Watch.summary_json ~confidence st)
    else if not tty then
      print_string (Tmr_obs.Watch.render ~confidence ?worker_timeout st)
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "read or tail (-f) an --events stream file and render a \
          multi-campaign dashboard")
    Term.(
      const run $ source_t $ follow_t $ watch_json_t $ confidence_t
      $ worker_timeout_t)

let () =
  let doc = "optimal TMR voter partitioning on an SRAM FPGA (DATE'05 reproduction)" in
  let info = Cmd.info "tmrtool" ~doc ~version:(Store.version_string ()) in
  exit (Cmd.eval (Cmd.group info
       [ report_cmd; implement_cmd; inject_cmd; explain_cmd; congestion_cmd;
         export_cmd; tables_cmd; profile_cmd; watch_cmd ]))
