(* End-to-end flow benchmark: every workload runs the path a user runs —
   Context.create, then per design Runs.implement_design (Designs.build,
   Impl.implement, Faultlist.of_impl), the fault campaign (Campaign.run
   or Service.run_sharded) and Store.save — and times each layer from
   outside, around calls to its public functions.

   Usage (from the repository root):
     dune exec ./e2ebench/e2e.exe -- --workload W [--seed N] [--seconds S] [--trace 0|1]
         one measured run of workload W: jobs until S seconds (default
         20) have passed, at least two; the last stdout line is the
         JSON result.
     dune exec ./e2ebench/e2e.exe -- suite [--seed N] [--repeats R] [--out FILE]
         R untraced runs per workload in fresh child processes,
         interleaved, then one traced run each; prints median/q1/q3/
         min/max/n per metric and writes the results file.
     dune exec ./e2ebench/e2e.exe -- compare OLD NEW [--benchmark FILE]
         one row per workload x end-to-end metric: better, worse,
         unchanged or unresolved, by the bounds in BENCHMARK.json.
     dune exec ./e2ebench/e2e.exe -- smoke
         the reduced workloads at 200 faults, checks only.

   Sizes are fixed here and recorded in BENCHMARK.json and README.md;
   TMR_FAULTS / TMR_JOBS are not read. *)

module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs
module Service = Tmr_experiments.Service
module Store = Tmr_experiments.Store
module Tables = Tmr_experiments.Tables
module Partition = Tmr_core.Partition
module Voter = Tmr_core.Voter
module Campaign = Tmr_inject.Campaign
module Faultlist = Tmr_inject.Faultlist
module Forensics = Tmr_inject.Forensics
module Impl = Tmr_pnr.Impl
module Json = Tmr_obs.Json
module Spans = Tmr_e2ebench.Spans
module Summary = Tmr_e2ebench.Summary

let now () = Tmr_obs.Clock.now_ns ()
let secs ns = float_of_int ns /. 1e9

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("e2e: " ^ msg);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Workloads *)

type engine =
  | In_process of { workers : int; forensics : bool }
  | Sharded of { shards : int; procs : int }

type workload = {
  name : string;
  scale : Context.scale;
  designs : Partition.strategy list;
  voter : Voter.variant;
  faults : int option;  (** sample size per design; [None] = every essential bit *)
  engine : engine;
  setup_reps : int;  (** Context.create calls per run; setup_s is their median *)
  stresses : string * float;
      (** the layer span this workload exists to load, and the least
          share of the traced job time it must take *)
}

(* Every size is fixed here.  At most 2 processes or worker domains
   compute at any time, one per core of a 2-core machine. *)
let workloads =
  [
    (* the paper's optimum design along the whole user path; routing is
       ~85 % of the job, the campaign ~6 % *)
    {
      name = "paper-p2";
      scale = Context.Paper;
      designs = [ Partition.Medium_partition ];
      voter = Voter.Majority;
      faults = Some 1000;
      engine = In_process { workers = 1; forensics = false };
      setup_reps = 3;
      stresses = ("pnr.route", 0.70);
    };
    (* exact reduced-scale Table 3: the fault loop, fork and shard queue
       dominate, per-worker setup is paid once per shard (80 times) *)
    {
      name = "reduced-exhaustive";
      scale = Context.Reduced;
      designs = Partition.all_paper_designs;
      voter = Voter.Majority;
      faults = None;
      engine = Sharded { shards = 16; procs = 2 };
      setup_reps = 15;
      stresses = ("experiments.run_sharded", 0.70);
    };
    (* the same inject layer on the scalar differential engine
       (forensics disables batching), detection flags extending each
       simulation, and worker domains instead of forked processes *)
    {
      name = "reduced-forensics";
      scale = Context.Reduced;
      designs = [ Partition.Medium_partition ];
      voter = Voter.Detecting;
      faults = Some 20_000;
      engine = In_process { workers = 2; forensics = true };
      setup_reps = 15;
      stresses = ("inject.campaign", 0.70);
    };
  ]

(* The run seed draws the stimulus.  Placement and the fault sample always
   use this seed, so every run routes the same placement and injects the
   same faults, and a time difference between two commits is the code's:
   not placement luck, and not how many sampled faults take the slow
   rebuild path (a handful of 1000 on paper-p2, at ~45 ms each). *)
let design_seed = 1

(* ------------------------------------------------------------------ *)
(* Scratch files: everything a run writes lives under .e2ebench/ in the
   working directory; only traces are kept after the run. *)

let scratch_root = ".e2ebench"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

(* ------------------------------------------------------------------ *)
(* One job: implement, inject and store every design of the workload *)

type design_out = {
  run : Runs.design_run;  (** with its campaign *)
  requested : int array Lazy.t;  (** the fault list the campaign was asked for *)
  campaign_s : float;  (** wall time of Campaign.run / Service.run_sharded *)
  procs : int;  (** processes the campaign computed in *)
}

type job = {
  traced : bool;
  total_s : float;  (** first implement call to last manifest written *)
  implement_s : float;
  outs : design_out list;
  mark : int;  (** first span of the job, when traced *)
}

let span sp name f = match sp with Some s -> Spans.record s name f | None -> f ()

(* Impl.implement's phases, called one by one through their public
   functions in the same order, so each gets its own span. *)
let implement_traced sp (ctx : Context.t) ~voter strategy =
  let r name f = Spans.record sp name f in
  let dev = ctx.Context.dev and db = ctx.Context.db in
  let nl =
    r "filter.designs_build" (fun () ->
        Tmr_filter.Designs.build ~params:ctx.Context.params ~voter strategy)
  in
  let check what nl =
    match r "netlist.check" (fun () -> Tmr_netlist.Check.run nl) with
    | Ok () -> ()
    | Error es -> failwith (what ^ " check failed: " ^ String.concat "; " es)
  in
  check "design" nl;
  let { Tmr_techmap.Techmap.mapped; _ } =
    r "techmap.run" (fun () -> Tmr_techmap.Techmap.run nl)
  in
  check "mapped" mapped;
  let pack = r "pnr.pack" (fun () -> Tmr_pnr.Pack.run mapped) in
  let place =
    r "pnr.place" (fun () ->
        Tmr_pnr.Place.run ~seed:design_seed
          ?moves_per_site:ctx.Context.place_moves dev pack mapped)
  in
  let route =
    match r "pnr.route" (fun () -> Tmr_pnr.Route.run dev pack place) with
    | Ok route -> route
    | Error msg -> failwith ("route: " ^ msg)
  in
  let bitgen =
    r "pnr.bitgen" (fun () -> Tmr_pnr.Bitgen.run dev db pack place route mapped)
  in
  let timing =
    r "pnr.timing" (fun () -> Tmr_pnr.Timing.analyze dev pack place route mapped)
  in
  let impl =
    {
      Impl.source = nl;
      mapped;
      dev;
      db;
      pack;
      place;
      route;
      bitgen;
      timing;
      seed = design_seed;
    }
  in
  let faultlist = r "inject.faultlist" (fun () -> Faultlist.of_impl impl) in
  { Runs.strategy; voter; nl; impl; faultlist; campaign = None }

let forensics_of w =
  match w.engine with In_process { forensics; _ } -> forensics | Sharded _ -> false

let inject sp ~dir (ctx : Context.t) w (run : Runs.design_run) =
  let name = Partition.name run.Runs.strategy in
  match (w.engine, w.faults) with
  | In_process { workers; forensics }, Some count ->
      span sp "inject.campaign" (fun () ->
          let faults =
            Faultlist.sample run.Runs.faultlist ~seed:design_seed ~count
          in
          if forensics then
            Forensics.to_file (Filename.concat dir ("forensics-" ^ name ^ ".jsonl"));
          let c =
            Fun.protect
              ~finally:(fun () -> if forensics then Forensics.close ())
              (fun () ->
                Campaign.run ~workers ~forensics ~name ~impl:run.Runs.impl
                  ~golden:ctx.Context.golden_nl ~stimulus:ctx.Context.stimulus
                  ~faults ())
          in
          (Lazy.from_val faults, c, 1))
  | In_process _, None -> invalid_arg "in-process workloads sample their faults"
  | Sharded { shards; procs }, faults ->
      let job =
        Service.job ~scale:w.scale ~seed:design_seed ?faults
          ~exhaustive:(faults = None) ~shards ~workers:1 ~voter:w.voter
          run.Runs.strategy
      in
      let status =
        span sp "experiments.run_sharded" (fun () ->
            Service.run_sharded ~procs ~notify:ignore
              ~dir:(Filename.concat dir ("shards-" ^ name))
              job ctx run)
      in
      (match status with
      | Ok (Service.Complete o) ->
          (lazy (Service.faults_of ctx run job), o.Service.o_campaign, procs)
      | Ok (Service.Incomplete _) -> failwith (name ^ ": sharded run incomplete")
      | Error e -> failwith (name ^ ": " ^ e))

let run_job ?sp ~dir (ctx : Context.t) w =
  let mark = match sp with Some s -> Spans.mark s | None -> 0 in
  let impl_ns = ref 0 in
  let t0 = now () in
  let outs =
    span sp "bench.job" (fun () ->
        List.map
          (fun strategy ->
            let t = now () in
            let run =
              span sp "experiments.implement_design" (fun () ->
                  match sp with
                  | Some s -> implement_traced s ctx ~voter:w.voter strategy
                  | None ->
                      Runs.implement_design ~voter:w.voter
                        { ctx with Context.seed = design_seed }
                        strategy)
            in
            impl_ns := !impl_ns + (now () - t);
            let t = now () in
            let requested, c, procs = inject sp ~dir ctx w run in
            let campaign_s = secs (now () - t) in
            let run = { run with Runs.campaign = Some c } in
            span sp "experiments.store_save" (fun () ->
                ignore
                  (Store.save
                     ~dir:(Filename.concat dir "store")
                     (Store.of_run ~forensics:(forensics_of w)
                        ~exhaustive:(w.faults = None) ctx run)));
            { run; requested; campaign_s; procs })
          w.designs)
  in
  {
    traced = sp <> None;
    total_s = secs (now () - t0);
    implement_s = secs !impl_ns;
    outs;
    mark;
  }

(* ------------------------------------------------------------------ *)
(* Correctness: every check runs between jobs, outside the timed code *)

let campaign (o : design_out) = Option.get o.run.Runs.campaign
let design_name (o : design_out) = Partition.name o.run.Runs.strategy

let digest (c : Campaign.t) =
  let b = Buffer.create (Array.length c.Campaign.results * 24) in
  Array.iter
    (fun (r : Campaign.fault_result) ->
      Printf.bprintf b "%d %s %s %d %d\n" r.Campaign.bit
        (match r.Campaign.outcome with
        | Campaign.Silent -> "silent"
        | Campaign.Wrong_answer -> "wrong")
        (Tmr_inject.Classify.name r.Campaign.effect)
        r.Campaign.first_error_cycle r.Campaign.detect_cycle)
    c.Campaign.results;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* One line per design, the format of Reference.seed1 *)
let verdict_line w (o : design_out) =
  let c = campaign o in
  let d = Campaign.detection_counts c in
  Printf.sprintf "%s %s %d %d %d %s" w.name (design_name o) c.Campaign.injected
    c.Campaign.wrong d.Campaign.dc_silent_wrong (digest c)

let failures = ref []
let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

let check_invariants w (o : design_out) =
  let c = campaign o in
  let faults = Lazy.force o.requested in
  let n = Array.length faults in
  let who = w.name ^ "/" ^ design_name o in
  if c.Campaign.requested <> n || c.Campaign.injected <> n then
    fail "%s: requested %d, injected %d, merged %d" who n c.Campaign.injected
      c.Campaign.requested;
  if Array.length c.Campaign.results <> n then
    fail "%s: %d results for %d faults" who (Array.length c.Campaign.results) n
  else
    Array.iteri
      (fun i (r : Campaign.fault_result) ->
        if r.Campaign.bit <> faults.(i) then
          fail "%s: result %d is bit %d, fault %d" who i r.Campaign.bit faults.(i))
      c.Campaign.results;
  let d = Campaign.detection_counts c in
  let wrong =
    Array.fold_left
      (fun a (r : Campaign.fault_result) ->
        if r.Campaign.outcome = Campaign.Wrong_answer then a + 1 else a)
      0 c.Campaign.results
  in
  if
    d.Campaign.dc_silent_correct + d.Campaign.dc_detected_corrected
    + d.Campaign.dc_detected_wrong + d.Campaign.dc_silent_wrong
    <> c.Campaign.injected
  then fail "%s: verdict classes do not sum to %d" who c.Campaign.injected;
  if wrong <> c.Campaign.wrong
     || c.Campaign.wrong <> d.Campaign.dc_detected_wrong + d.Campaign.dc_silent_wrong
  then
    fail "%s: wrong %d, counted %d, detected-wrong %d + SDC %d" who
      c.Campaign.wrong wrong d.Campaign.dc_detected_wrong d.Campaign.dc_silent_wrong

let oracle_sample = 32

(* Re-run a deterministic subsample on the rebuild-every-fault oracle and
   require the verdicts to match fault by fault.  Half the sample comes
   from the faults the fast path called wrong: they are ~2 % of a TMR
   campaign, so a uniform sample would mostly miss an error confined to
   them. *)
let check_oracle ~seed (ctx : Context.t) w (o : design_out) =
  let c = campaign o in
  let results = c.Campaign.results in
  let rng = Random.State.make [| seed; Array.length results |] in
  let pick outcome k =
    let pool =
      Array.of_list
        (List.filter
           (fun i -> results.(i).Campaign.outcome = outcome)
           (List.init (Array.length results) Fun.id))
    in
    let k = min k (Array.length pool) in
    for j = 0 to k - 1 do
      let r = j + Random.State.int rng (Array.length pool - j) in
      let t = pool.(j) in
      pool.(j) <- pool.(r);
      pool.(r) <- t
    done;
    Array.sub pool 0 k
  in
  let wrong = pick Campaign.Wrong_answer (oracle_sample / 2) in
  let idx =
    Array.append wrong (pick Campaign.Silent (oracle_sample - Array.length wrong))
  in
  Array.sort compare idx;
  let sub = Array.map (fun i -> c.Campaign.results.(i).Campaign.bit) idx in
  let oracle =
    Campaign.run ~workers:1 ~cone_skip:false ~name:(design_name o)
      ~impl:o.run.Runs.impl ~golden:ctx.Context.golden_nl
      ~stimulus:ctx.Context.stimulus ~faults:sub ()
  in
  Array.iteri
    (fun k i ->
      let fast = { (c.Campaign.results.(i)) with Campaign.forensics = None } in
      if fast <> oracle.Campaign.results.(k) then
        fail "%s/%s: bit %d differs from the rebuild oracle" w.name
          (design_name o) fast.Campaign.bit)
    idx

let check_reference w lines =
  List.iter
    (fun line ->
      let prefix =
        match String.split_on_char ' ' line with
        | wname :: design :: _ -> wname ^ " " ^ design ^ " "
        | _ -> line
      in
      match
        List.find_opt (String.starts_with ~prefix) Reference.seed1
      with
      | Some l when l = line -> ()
      | Some l -> fail "seed-1 reference mismatch:\n  expected %s\n  got      %s" l line
      | None -> fail "%s: no seed-1 reference for: %s" w.name line)
    lines

(* ------------------------------------------------------------------ *)
(* Metrics *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
      in
      scan ())

let sum f xs = List.fold_left (fun a x -> a +. f x) 0. xs
let isum f xs = List.fold_left (fun a x -> a + f x) 0 xs
let ratio a b = if b = 0. then 0. else a /. b
let injected j = isum (fun o -> (campaign o).Campaign.injected) j.outs

let faults_per_s j =
  float_of_int (injected j) /. sum (fun o -> o.campaign_s) j.outs

(* Table 3 is the paper's measurement, so only a paper-scale run can be
   held against it *)
let table3_gap_pp w j =
  match j.outs with
  | [ o ] when w.scale = Context.Paper -> (
      match List.assoc_opt (design_name o) Tables.paper_table3 with
      | Some (_, _, paper_pct) ->
          Some (Float.abs (Campaign.wrong_percent (campaign o) -. paper_pct))
      | None -> None)
  | _ -> None

let layer_spans =
  [
    "filter.designs_build"; "netlist.check"; "techmap.run"; "pnr.pack";
    "pnr.place"; "pnr.route"; "pnr.bitgen"; "pnr.timing"; "inject.faultlist";
    "inject.campaign"; "experiments.run_sharded"; "experiments.store_save";
  ]

let setup_spans = [ "arch.device_build"; "arch.bitdb_build" ]

let span_metrics totals names =
  List.concat_map
    (fun name ->
      let seconds, minor_mw, major_gcs =
        match List.assoc_opt name totals with
        | Some st -> (st.Spans.seconds, st.Spans.minor_mw, float_of_int st.Spans.major_gcs)
        | None -> (0., 0., 0.)
      in
      [
        (name ^ "_s", "s", seconds);
        (name ^ ".minor_mw", "Mwords", minor_mw);
        (name ^ ".major_gcs", "count", major_gcs);
      ])
    names

(* Per-layer numbers of one traced job. *)
let job_layers sp ~untraced_total j =
  let cs = List.map campaign j.outs in
  let fsum f = sum (fun c -> float_of_int (f c)) cs in
  let st f = fsum (fun c -> f c.Campaign.stats) in
  let work (c : Campaign.t) =
    Array.fold_left ( + ) 0 c.Campaign.busy_ns
    + Array.fold_left ( + ) 0 c.Campaign.setup_ns
  in
  let busy = fsum (fun c -> Array.fold_left ( + ) 0 c.Campaign.busy_ns) in
  let setup = fsum (fun c -> Array.fold_left ( + ) 0 c.Campaign.setup_ns) in
  let capacity = fsum (fun c -> c.Campaign.workers * c.Campaign.wall_ns) in
  let diffed = st (fun s -> s.Campaign.diffed) in
  (* queue, fork, IO and merge: what the sharded wall spends beyond the
     workers' own busy and setup time *)
  let shard_overhead =
    sum
      (fun o ->
        if o.procs = 1 then 0.
        else o.campaign_s -. (secs (work (campaign o)) /. float_of_int o.procs))
      j.outs
  in
  span_metrics (Spans.totals sp ~since:j.mark) layer_spans
  @ [
      ( "pnr.route_iterations", "count",
        float_of_int
          (isum (fun o -> o.run.Runs.impl.Impl.route.Tmr_pnr.Route.iterations) j.outs) );
      ("inject.worker_setup_s", "s", setup /. 1e9);
      ("inject.worker_busy_s", "s", busy /. 1e9);
      ("inject.worker_wait_frac", "ratio", 1. -. ratio (busy +. setup) capacity);
      ("inject.batched_frac", "ratio", ratio (st (fun s -> s.Campaign.batched)) diffed);
      ("inject.converged_frac", "ratio", ratio (st (fun s -> s.Campaign.converged)) diffed);
      ( "inject.skipped_frac", "ratio",
        ratio (st (fun s -> s.Campaign.skipped)) (float_of_int (injected j)) );
      ("inject.rebuilt", "count", st (fun s -> s.Campaign.rebuilt));
      ("experiments.shard_overhead_s", "s", shard_overhead);
      ("bench.unaccounted_frac", "ratio", Spans.unaccounted sp ~since:j.mark);
      ("bench.trace_overhead_frac", "ratio", (j.total_s /. untraced_total) -. 1.);
    ]

let medians rows =
  match rows with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (name, unit, _) ->
          let vs =
            List.map
              (fun row ->
                let _, _, v = List.find (fun (n, _, _) -> n = name) row in
                v)
              rows
          in
          (name, unit, Summary.median vs))
        first

(* ------------------------------------------------------------------ *)
(* Between jobs: check a finished job and keep only what the run reports,
   so no job's artefacts outlive it and peak_rss_mb measures one job
   whatever the job count. *)

type summary = {
  s_traced : bool;
  s_total : float;
  s_implement : float;
  s_rate : float;  (** faults/s *)
  s_lines : string list;  (** verdict line per design *)
  s_attempted : int;
  s_answered : int;
  s_bits : Tmr_arch.Bitstream.t list;  (** first job only *)
  s_layers : (string * string * float) list;  (** traced jobs only *)
  s_gap : float option;
}

let summarize ?sp ~seed ~reference ~first (ctx : Context.t) w j =
  List.iter (check_invariants w) j.outs;
  let lines = List.map (verdict_line w) j.outs in
  let bits =
    List.map (fun o -> o.run.Runs.impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream) j.outs
  in
  (match first with
  | None ->
      List.iter (check_oracle ~seed ctx w) j.outs;
      if reference && seed = 1 then check_reference w lines
  | Some f ->
      (* every job of a run is the same work: verdicts repeat exactly,
         and the decomposed (traced) PnR reproduces Impl.implement's
         bitstream byte for byte *)
      if lines <> f.s_lines then fail "%s: job verdicts differ between repetitions" w.name;
      List.iter2
        (fun a b ->
          if
            Tmr_arch.Bitstream.length a <> Tmr_arch.Bitstream.length b
            || Tmr_arch.Bitstream.diff a b <> []
          then fail "%s: job bitstreams differ between repetitions" w.name)
        f.s_bits bits);
  let answered = isum (fun o -> Array.length (campaign o).Campaign.results) j.outs in
  {
    s_traced = j.traced;
    s_total = j.total_s;
    s_implement = j.implement_s;
    s_rate = faults_per_s j;
    s_lines = lines;
    s_attempted = isum (fun o -> Array.length (Lazy.force o.requested)) j.outs;
    s_answered = answered;
    s_bits = (if first = None then bits else []);
    s_layers =
      (match (sp, first) with
      | Some s, Some f when j.traced -> job_layers s ~untraced_total:f.s_total j
      | _ -> []);
    s_gap = table3_gap_pp w j;
  }

(* ------------------------------------------------------------------ *)
(* One measured run *)

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
      die "unknown workload %S (%s)" name
        (String.concat ", " (List.map (fun w -> w.name) workloads))

let setup w ~seed =
  let times = ref [] in
  let ctx = ref None in
  for _ = 1 to w.setup_reps do
    ctx := None;
    Gc.compact ();
    let t = now () in
    let c = Context.create ~scale:w.scale ~seed () in
    times := secs (now () - t) :: !times;
    ctx := Some c
  done;
  (Option.get !ctx, Summary.median !times)

let print_metric w (name, unit, value) =
  Printf.printf "metric %s %s %.17g %s\n" w.name name value unit

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit, value) ->
                  (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ]))
                metrics) );
       ])

(* The traced run's per-layer metrics, after asserting that the layer
   spans cover the job and that the workload loads the layer it claims. *)
let traced_layers sp w ~seed jobs =
  let traced = List.filter (fun s -> s.s_traced) jobs in
  let layers =
    span_metrics (Spans.totals sp ~since:0) setup_spans
    @ medians (List.map (fun s -> s.s_layers) traced)
  in
  let value name =
    let _, _, v = List.find (fun (n, _, _) -> n = name) layers in
    v
  in
  if value "bench.unaccounted_frac" > 0.03 then
    fail "%s: %.1f %% of the job is in no layer span" w.name
      (100. *. value "bench.unaccounted_frac");
  let layer, least = w.stresses in
  let share = value (layer ^ "_s") /. Summary.median (List.map (fun s -> s.s_total) traced) in
  if share < least then
    fail "%s: %s is %.0f %% of the job, expected at least %.0f %%" w.name layer
      (100. *. share) (100. *. least);
  let path =
    Filename.concat scratch_root (Printf.sprintf "trace-%s-seed%d.jsonl" w.name seed)
  in
  Spans.write_chrome sp path;
  Printf.eprintf "e2e: trace written to %s (render: tmrtool profile %s)\n%!" path path;
  layers

let measure w ~seed ~seconds ~trace =
  let dir = Filename.concat scratch_root (Printf.sprintf "%s-%d" w.name (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  at_exit (fun () -> rm_rf dir);
  let ctx, setup_s = setup w ~seed in
  let sp = if trace then Some (Spans.create ()) else None in
  (* the traced run builds device and bit database through their own
     calls, and runs its traced jobs on them *)
  let traced_ctx =
    match sp with
    | None -> ctx
    | Some s ->
        Gc.compact ();
        let dev =
          Spans.record s "arch.device_build" (fun () ->
              Tmr_arch.Device.build ctx.Context.dev.Tmr_arch.Device.params)
        in
        let db = Spans.record s "arch.bitdb_build" (fun () -> Tmr_arch.Bitdb.build dev) in
        { ctx with Context.dev; db }
  in
  let t_start = now () in
  let rec loop i first acc =
    let job_dir = Filename.concat dir (Printf.sprintf "job%d" i) in
    mkdir_p job_dir;
    Gc.compact ();
    (* a traced run times its first job untraced: the reference for the
       bitstream check and for the trace overhead *)
    let j =
      if trace && i > 0 then run_job ?sp ~dir:job_dir traced_ctx w
      else run_job ~dir:job_dir ctx w
    in
    (* a shard queue left behind would let the next job resume it *)
    rm_rf job_dir;
    let s = summarize ?sp ~seed ~reference:true ~first ctx w j in
    Printf.eprintf "e2e: %s job %d%s: total %.3f s, implement %.3f s, %.0f faults/s\n%!"
      w.name (i + 1) (if s.s_traced then " (traced)" else "") s.s_total s.s_implement
      s.s_rate;
    let acc = s :: acc in
    (* at least two jobs: a traced run needs its untraced reference and
       one traced job, and peak_rss_mb depends on how many jobs the heap
       has served, so every run serves at least two *)
    if i < 1 || secs (now () - t_start) < seconds then
      loop (i + 1) (Some (Option.value first ~default:s)) acc
    else List.rev acc
  in
  let jobs = loop 0 None [] in
  let first = List.hd jobs in
  let metrics =
    match sp with
    | Some s -> traced_layers s w ~seed jobs
    | None ->
        let med f = Summary.median (List.map f jobs) in
        [
          ("setup_s", "s", setup_s);
          ("implement_s", "s", med (fun s -> s.s_implement));
          ("total_s", "s", med (fun s -> s.s_total));
          ("faults_per_s", "faults/s", med (fun s -> s.s_rate));
          ("peak_rss_mb", "MiB", peak_rss_mb ());
        ]
  in
  let attempted = isum (fun s -> s.s_attempted) jobs in
  let failed = isum (fun s -> s.s_attempted - s.s_answered) jobs in
  (* not bounded in BENCHMARK.json: failed_frac is 0 whenever the run is
     correct, and the Table 3 gap moves with the seed's stimulus *)
  let extra =
    if trace then []
    else
      ("failed_frac", "ratio", ratio (float_of_int failed) (float_of_int attempted))
      :: (match first.s_gap with Some gap -> [ ("table3_gap_pp", "pp", gap) ] | None -> [])
  in
  List.iter (fun l -> print_endline ("verdicts " ^ l)) first.s_lines;
  List.iter (print_metric w) (metrics @ extra);
  List.iter (fun f -> prerr_endline ("e2e: FAIL " ^ f)) (List.rev !failures);
  let correct = !failures = [] in
  print_endline (result_line ~correct ~attempted ~failed metrics);
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* Smoke: the reduced workloads at 200 faults, checks only.  The sharded
   workload goes first: OCaml forbids fork after a domain was spawned. *)

let smoke () =
  List.iter
    (fun w ->
      let w = { w with faults = Some 200 } in
      let dir = Filename.concat scratch_root (Printf.sprintf "smoke-%s-%d" w.name (Unix.getpid ())) in
      rm_rf dir;
      mkdir_p dir;
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let ctx = Context.create ~scale:w.scale ~seed:1 () in
          ignore
            (summarize ~seed:1 ~reference:false ~first:None ctx w (run_job ~dir ctx w))))
    (List.filter (fun w -> w.scale = Context.Reduced) workloads);
  (try Sys.rmdir scratch_root with Sys_error _ -> ());
  List.iter (fun f -> prerr_endline ("e2e smoke: FAIL " ^ f)) (List.rev !failures);
  if !failures <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Suite: repeated runs in fresh child processes *)

(* Run one child and collect its "metric" lines; a failed child fails
   the suite. *)
let child w ~seed ~trace =
  let args =
    [| Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed;
       "--trace"; (if trace then "1" else "0") |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let metrics = ref [] in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | [ "metric"; _; name; value; unit ] ->
           metrics := (name, (unit, float_of_string value)) :: !metrics
       | _ -> ()
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> List.rev !metrics
  | _ -> die "%s run (seed %d, trace %b) failed" w.name seed trace

let suite ~seed ~repeats ~out =
  let runs = Hashtbl.create 8 in
  for r = 1 to repeats do
    List.iter
      (fun w ->
        Printf.printf "run %d/%d %s...\n%!" r repeats w.name;
        Hashtbl.add runs w.name (child w ~seed ~trace:false))
      workloads
  done;
  let results =
    List.map
      (fun w ->
        Printf.printf "traced %s...\n%!" w.name;
        let per_layer = child w ~seed ~trace:true in
        let all = List.rev (Hashtbl.find_all runs w.name) in
        let metrics =
          List.map
            (fun (name, (unit, _)) ->
              (name, (unit, Summary.dist (List.map (fun m -> snd (List.assoc name m)) all))))
            (List.hd all)
        in
        (w.name, { Summary.metrics; per_layer }))
      workloads
  in
  let r =
    {
      Summary.version = Store.version_string ();
      nproc = Domain.recommended_domain_count ();
      ocaml = Sys.ocaml_version;
      seed;
      repeats;
      workloads = results;
    }
  in
  Printf.printf "\n%s, nproc %d, OCaml %s, seed %d, %d runs per workload\n"
    r.Summary.version r.Summary.nproc r.Summary.ocaml seed repeats;
  List.iter
    (fun (wname, (wr : Summary.workload_result)) ->
      let t =
        Tmr_logic.Texttab.create ~title:wname
          ~header:[ "metric"; "unit"; "median"; "q1"; "q3"; "min"; "max"; "n" ]
          Tmr_logic.Texttab.[ Left; Left; Right; Right; Right; Right; Right; Right ]
      in
      List.iter
        (fun (name, (unit, (d : Summary.dist))) ->
          let f = Printf.sprintf "%.4g" in
          Tmr_logic.Texttab.add_row t
            [ name; unit; f d.median; f d.q1; f d.q3; f d.min; f d.max; string_of_int d.n ])
        wr.Summary.metrics;
      Tmr_logic.Texttab.add_separator t;
      List.iter
        (fun (name, (unit, v)) ->
          Tmr_logic.Texttab.add_row t [ name; unit; Printf.sprintf "%.4g" v; ""; ""; ""; ""; "1" ])
        wr.Summary.per_layer;
      Tmr_logic.Texttab.print t)
    results;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Json.to_string (Summary.results_to_json r));
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path)
    out

(* ------------------------------------------------------------------ *)
(* Compare *)

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> die "%s" e
  | s -> ( match Json.parse s with Ok j -> j | Error e -> die "%s: %s" path e)

let compare_files ~benchmark old_path new_path =
  let bounds =
    match Summary.bounds_of_benchmark (read_json benchmark) with
    | Ok b -> b
    | Error e -> die "%s: %s" benchmark e
  in
  let load p =
    match Summary.results_of_json (read_json p) with
    | Ok r -> r
    | Error e -> die "%s: %s" p e
  in
  let rows = Summary.compare bounds ~old:(load old_path) ~cur:(load new_path) in
  let t =
    Tmr_logic.Texttab.create
      ~header:[ "workload"; "metric"; "old"; "new"; "change"; "bound"; "verdict" ]
      Tmr_logic.Texttab.[ Left; Left; Right; Right; Right; Right; Left ]
  in
  List.iter
    (fun (row : Summary.row) ->
      let b = List.find (fun (b : Summary.bound) -> b.metric = row.row_metric) bounds in
      Tmr_logic.Texttab.add_row t
        [
          row.workload; row.row_metric;
          Printf.sprintf "%.4g" row.old_median;
          Printf.sprintf "%.4g" row.new_median;
          Printf.sprintf "%+.1f%%" (100. *. row.change);
          Printf.sprintf "%.0f%%" (100. *. b.bound);
          Summary.verdict_name row.verdict;
        ])
    rows;
  Tmr_logic.Texttab.print t;
  if List.exists (fun (r : Summary.row) -> r.verdict = Summary.Worse) rows then exit 1

(* ------------------------------------------------------------------ *)

let int_arg name v =
  match int_of_string_opt v with Some n -> n | None -> die "%s needs an integer, got %S" name v

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "smoke" :: [] -> smoke ()
  | "compare" :: rest -> (
      let rec go benchmark files = function
        | "--benchmark" :: b :: rest -> go b files rest
        | f :: rest -> go benchmark (files @ [ f ]) rest
        | [] -> (benchmark, files)
      in
      match go "BENCHMARK.json" [] rest with
      | benchmark, [ old_path; new_path ] -> compare_files ~benchmark old_path new_path
      | _ -> die "usage: e2e compare OLD NEW [--benchmark FILE]")
  | "suite" :: rest ->
      let rec go seed repeats out = function
        | "--seed" :: n :: rest -> go (int_arg "--seed" n) repeats out rest
        | "--repeats" :: n :: rest -> go seed (int_arg "--repeats" n) out rest
        | "--out" :: f :: rest -> go seed repeats (Some f) rest
        | [] -> (seed, repeats, out)
        | a :: _ -> die "suite: unexpected argument %S" a
      in
      let seed, repeats, out = go 1 5 None rest in
      if repeats < 1 then die "--repeats must be at least 1";
      suite ~seed ~repeats ~out
  | args ->
      let rec go w seed seconds trace = function
        | "--workload" :: n :: rest -> go (Some n) seed seconds trace rest
        | "--seed" :: n :: rest -> go w (int_arg "--seed" n) seconds trace rest
        | "--seconds" :: n :: rest ->
            go w seed (float_of_int (int_arg "--seconds" n)) trace rest
        | "--trace" :: ("0" | "1" as t) :: rest -> go w seed seconds (t = "1") rest
        | a :: _ -> die "unexpected argument %S (see the header of e2ebench/e2e.ml)" a
        | [] -> (w, seed, seconds, trace)
      in
      let w, seed, seconds, trace = go None 1 20. false args in
      let w =
        match w with Some n -> find_workload n | None -> die "--workload is required"
      in
      measure w ~seed ~seconds ~trace
