module Campaign = Tmr_inject.Campaign
module Stats = Tmr_obs.Stats
module Json = Tmr_obs.Json

type spool_ref = {
  sr_worker : int;
  sr_path : string;
  sr_events : int;  (* origin seqs observed: range [0, sr_events + sr_gaps) *)
  sr_gaps : int;
}

type manifest = {
  m_design : string;
  m_scale : string;
  m_seed : int;
  m_created : float;
  m_created_iso : string;
  m_tool_version : string;
  m_git_commit : string;
  m_events_path : string option;
  m_events_seq : int option;
  m_spools : spool_ref list;
  m_workers : int;
  m_cone_skip : bool;
  m_forensics : bool;
  m_exhaustive : bool;
  m_requested : int;
  m_injected : int;
  m_wrong : int;
  m_confidence : float;
  m_rate : float;
  m_ci_lo : float;
  m_ci_hi : float;
  m_faults_per_sec : float;
  m_wall_ns : int;
  m_utilization : float;
  m_voter : string;
  m_detection : detection option;
  m_coverage : Json.t;
  m_metrics_digest : string;
}

and detection = {
  md_silent_correct : int;
  md_detected_corrected : int;
  md_detected_wrong : int;
  md_silent_wrong : int;
}

let scale_name = function
  | Context.Paper -> "paper"
  | Context.Reduced -> "reduced"

let tool_version = "0.9.0"

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* Best-effort: runs from a tarball or without git still get manifests *)
let git_commit =
  lazy
    (try
       let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
       let line = try input_line ic with End_of_file -> "" in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 when line <> "" -> line
       | _ -> "unknown"
     with _ -> "unknown")

let version_string () =
  Printf.sprintf "tmrtool %s (git %s)" tool_version (Lazy.force git_commit)

let of_run ?(confidence = 0.95) ?(cone_skip = true) ?(forensics = false)
    ?(exhaustive = false) ?events_path ?(spools = []) (ctx : Context.t)
    (run : Runs.design_run) =
  let c =
    match run.Runs.campaign with
    | Some c -> c
    | None -> invalid_arg "Store.of_run: design run has no campaign"
  in
  let ci = Campaign.ci ~confidence c in
  let coverage =
    match Runs.coverage_of run with
    | Some cov -> Tmr_inject.Coverage.to_json cov
    | None -> Json.Null
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (Tmr_obs.Metrics.to_json_string (Tmr_obs.Metrics.snapshot ())))
  in
  let created = Unix.gettimeofday () in
  {
    m_design = c.Campaign.design;
    m_scale = scale_name ctx.Context.scale;
    m_seed = ctx.Context.seed;
    m_created = created;
    m_created_iso = iso8601 created;
    m_tool_version = tool_version;
    m_git_commit = Lazy.force git_commit;
    m_events_path = events_path;
    (* the stream keeps growing (manifest-written, teardown beats), but
       everything the dashboard showed for this run is <= this seq *)
    m_events_seq =
      (match events_path with
      | Some _ -> Some (Tmr_obs.Events.last_seq ())
      | None -> None);
    m_spools = spools;
    m_workers = c.Campaign.workers;
    m_cone_skip = cone_skip;
    m_forensics = forensics;
    m_exhaustive = exhaustive;
    m_requested = c.Campaign.requested;
    m_injected = c.Campaign.injected;
    m_wrong = c.Campaign.wrong;
    m_confidence = confidence;
    m_rate =
      (if c.Campaign.injected = 0 then 0.
       else float_of_int c.Campaign.wrong /. float_of_int c.Campaign.injected);
    m_ci_lo = ci.Stats.lo;
    m_ci_hi = ci.Stats.hi;
    m_faults_per_sec =
      (if c.Campaign.wall_ns <= 0 then 0.
       else
         float_of_int c.Campaign.injected
         /. (float_of_int c.Campaign.wall_ns /. 1e9));
    m_wall_ns = c.Campaign.wall_ns;
    m_utilization = Campaign.utilization c;
    m_voter = Tmr_core.Voter.name run.Runs.voter;
    m_detection =
      (if Tmr_core.Voter.has_detection run.Runs.voter then begin
         let d = Campaign.detection_counts c in
         Some
           {
             md_silent_correct = d.Campaign.dc_silent_correct;
             md_detected_corrected = d.Campaign.dc_detected_corrected;
             md_detected_wrong = d.Campaign.dc_detected_wrong;
             md_silent_wrong = d.Campaign.dc_silent_wrong;
           }
       end
       else None);
    m_coverage = coverage;
    m_metrics_digest = digest;
  }

(* ---- JSON round trip ------------------------------------------------ *)

let to_json m =
  let num f = Json.Num f in
  let int i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ("design", Json.Str m.m_design);
      ("scale", Json.Str m.m_scale);
      ("seed", int m.m_seed);
      ("created", num m.m_created);
      ("created_iso", Json.Str m.m_created_iso);
      ("tool_version", Json.Str m.m_tool_version);
      ("git_commit", Json.Str m.m_git_commit);
      ( "events_path",
        match m.m_events_path with None -> Json.Null | Some p -> Json.Str p );
      ( "events_seq",
        match m.m_events_seq with None -> Json.Null | Some s -> int s );
      ( "spools",
        Json.Arr
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("worker", int s.sr_worker);
                   ("path", Json.Str s.sr_path);
                   ("events", int s.sr_events);
                   ("gaps", int s.sr_gaps);
                 ])
             m.m_spools) );
      ("workers", int m.m_workers);
      ("cone_skip", Json.Bool m.m_cone_skip);
      ("forensics", Json.Bool m.m_forensics);
      ("exhaustive", Json.Bool m.m_exhaustive);
      ("requested", int m.m_requested);
      ("injected", int m.m_injected);
      ("wrong", int m.m_wrong);
      ("confidence", num m.m_confidence);
      ("rate", num m.m_rate);
      ("ci_lo", num m.m_ci_lo);
      ("ci_hi", num m.m_ci_hi);
      ("faults_per_sec", num m.m_faults_per_sec);
      ("wall_ns", int m.m_wall_ns);
      ("utilization", num m.m_utilization);
      ("voter", Json.Str m.m_voter);
      ( "detection",
        match m.m_detection with
        | None -> Json.Null
        | Some d ->
            Json.Obj
              [
                ("silent_correct", int d.md_silent_correct);
                ("detected_corrected", int d.md_detected_corrected);
                ("detected_wrong", int d.md_detected_wrong);
                ("silent_wrong", int d.md_silent_wrong);
              ] );
      ("coverage", m.m_coverage);
      ("metrics_digest", Json.Str m.m_metrics_digest);
    ]

let of_json j =
  let str key = Option.bind (Json.member key j) Json.str in
  let num key = Option.bind (Json.member key j) Json.num in
  let int key = Option.bind (Json.member key j) Json.int in
  let bool key = Option.bind (Json.member key j) Json.bool in
  let require name = function
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "manifest: missing or ill-typed %S" name)
  in
  let ( let* ) = Result.bind in
  let* design = require "design" (str "design") in
  let* scale = require "scale" (str "scale") in
  let* seed = require "seed" (int "seed") in
  let* created = require "created" (num "created") in
  let* workers = require "workers" (int "workers") in
  let* cone_skip = require "cone_skip" (bool "cone_skip") in
  let* forensics = require "forensics" (bool "forensics") in
  let* requested = require "requested" (int "requested") in
  let* injected = require "injected" (int "injected") in
  let* wrong = require "wrong" (int "wrong") in
  let* confidence = require "confidence" (num "confidence") in
  let* rate = require "rate" (num "rate") in
  let* ci_lo = require "ci_lo" (num "ci_lo") in
  let* ci_hi = require "ci_hi" (num "ci_hi") in
  let* faults_per_sec = require "faults_per_sec" (num "faults_per_sec") in
  let* wall_ns = require "wall_ns" (int "wall_ns") in
  let* utilization = require "utilization" (num "utilization") in
  let* digest = require "metrics_digest" (str "metrics_digest") in
  Ok
    {
      m_design = design;
      m_scale = scale;
      m_seed = seed;
      m_created = created;
      (* absent in manifests written by older tool versions *)
      m_created_iso =
        Option.value ~default:(iso8601 created) (str "created_iso");
      m_tool_version = Option.value ~default:"pre-0.7" (str "tool_version");
      m_git_commit = Option.value ~default:"unknown" (str "git_commit");
      m_events_path = str "events_path";
      m_events_seq = int "events_seq";
      (* absent in manifests written by older tool versions *)
      m_spools =
        (match Json.member "spools" j with
        | Some (Json.Arr l) ->
            List.filter_map
              (fun s ->
                match
                  ( Option.bind (Json.member "worker" s) Json.int,
                    Option.bind (Json.member "path" s) Json.str,
                    Option.bind (Json.member "events" s) Json.int,
                    Option.bind (Json.member "gaps" s) Json.int )
                with
                | Some w, Some p, Some e, Some g ->
                    Some
                      { sr_worker = w; sr_path = p; sr_events = e; sr_gaps = g }
                | _ -> None)
              l
        | _ -> []);
      m_workers = workers;
      m_cone_skip = cone_skip;
      m_forensics = forensics;
      (* absent in manifests written by older tool versions *)
      m_exhaustive = Option.value ~default:false (bool "exhaustive");
      m_requested = requested;
      m_injected = injected;
      m_wrong = wrong;
      m_confidence = confidence;
      m_rate = rate;
      m_ci_lo = ci_lo;
      m_ci_hi = ci_hi;
      m_faults_per_sec = faults_per_sec;
      m_wall_ns = wall_ns;
      m_utilization = utilization;
      (* absent in manifests written by older tool versions: every
         pre-0.9 campaign ran the plain majority voter *)
      m_voter = Option.value ~default:"majority" (str "voter");
      m_detection =
        (match Json.member "detection" j with
        | Some (Json.Obj _ as d) -> (
            match
              ( Option.bind (Json.member "silent_correct" d) Json.int,
                Option.bind (Json.member "detected_corrected" d) Json.int,
                Option.bind (Json.member "detected_wrong" d) Json.int,
                Option.bind (Json.member "silent_wrong" d) Json.int )
            with
            | Some sc, Some dc, Some dw, Some sw ->
                Some
                  {
                    md_silent_correct = sc;
                    md_detected_corrected = dc;
                    md_detected_wrong = dw;
                    md_silent_wrong = sw;
                  }
            | _ -> None)
        | _ -> None);
      m_coverage = Option.value ~default:Json.Null (Json.member "coverage" j);
      m_metrics_digest = digest;
    }

(* ---- directory persistence ------------------------------------------ *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let save ~dir m =
  mkdir_p dir;
  let path =
    Filename.concat dir
      (Printf.sprintf "%s-seed%d-%.0f.json" m.m_design m.m_seed
         (m.m_created *. 1000.))
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json m));
      output_char oc '\n');
  Tmr_obs.Events.publish
    (Tmr_obs.Events.Manifest_written { design = m.m_design; path });
  path

let default_warn msg = Printf.eprintf "store: %s\n%!" msg

let load_dir ?(warn = default_warn) ~dir () =
  if not (Sys.file_exists dir) then []
  else begin
    let files = Array.to_list (Sys.readdir dir) in
    (* One bad file must not cost the rest of the history: a campaign
       killed mid-save (or a disk hiccup) leaves a truncated manifest,
       and crash-resume depends on the surviving ones still loading. *)
    let manifests =
      List.filter_map
        (fun file ->
          if not (Filename.check_suffix file ".json") then None
          else begin
            let path = Filename.concat dir file in
            match
              let ic = open_in_bin path in
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            with
            | exception Sys_error e ->
                warn (Printf.sprintf "skipping unreadable %s (%s)" path e);
                None
            | exception End_of_file ->
                warn (Printf.sprintf "skipping truncated %s" path);
                None
            | contents -> (
                match Result.bind (Json.parse contents) of_json with
                | Ok m -> Some m
                | Error e ->
                    warn (Printf.sprintf "skipping corrupt %s (%s)" path e);
                    None)
          end)
        files
    in
    List.sort (fun a b -> compare a.m_created b.m_created) manifests
  end

let baseline_for ~history m =
  List.fold_left
    (fun acc h ->
      if h.m_design = m.m_design && h.m_scale = m.m_scale && h.m_voter = m.m_voter
      then Some h
      else acc)
    None history

(* ---- markdown report ------------------------------------------------ *)

let pct x = 100. *. x

let coverage_cell j =
  match j with
  | Json.Null -> "-"
  | j ->
      let i key parent =
        match Option.bind (Json.member key parent) Json.int with
        | Some v -> v
        | None -> 0
      in
      let essential = i "essential" j in
      (* the top-level coverage object carries [injected_distinct]; the
         per-class records are already deduplicated and say [injected] *)
      let distinct =
        match Option.bind (Json.member "injected_distinct" j) Json.int with
        | Some v -> v
        | None -> i "injected" j
      in
      if essential = 0 then "-"
      else
        Printf.sprintf "%d/%d (%.1f%%)" distinct essential
          (pct (float_of_int distinct /. float_of_int essential))

let report_markdown ?(confidence = 0.95) ?(throughput_drop = 0.30) ~history
    currents =
  let b = Buffer.create 4096 in
  Buffer.add_string b "# Campaign report\n\n";
  (match currents with
  | m :: _ ->
      Buffer.add_string b
        (Printf.sprintf "Scale `%s`, seed %d, %d %s; confidence %.0f%%.\n\n"
           m.m_scale m.m_seed
           (List.length currents)
           (if List.length currents = 1 then "design" else "designs")
           (pct confidence));
      Buffer.add_string b
        (Printf.sprintf "Run at %s — tool %s, commit `%s`.\n\n" m.m_created_iso
           m.m_tool_version m.m_git_commit)
  | [] -> Buffer.add_string b "No campaigns.\n\n");
  Buffer.add_string b
    "| design | n | wrong | rate | CI | baseline | z | verdict | faults/s |\n";
  Buffer.add_string b "|---|---|---|---|---|---|---|---|---|\n";
  let notes = ref [] in
  List.iter
    (fun m ->
      let ci_str =
        (* an exhaustive run covered every essential bit: the rate is
           exact, a sampling interval would be noise *)
        if m.m_exhaustive then "exact"
        else Printf.sprintf "[%.2f%%, %.2f%%]" (pct m.m_ci_lo) (pct m.m_ci_hi)
      in
      let baseline = baseline_for ~history m in
      let base_str, z_str, verdict, tput =
        match baseline with
        | None -> ("-", "-", "new", Printf.sprintf "%.1f" m.m_faults_per_sec)
        | Some base ->
            let z =
              Stats.two_proportion_z ~n1:m.m_injected ~k1:m.m_wrong
                ~n2:base.m_injected ~k2:base.m_wrong
            in
            let ok =
              Stats.compatible ~confidence ~n1:m.m_injected ~k1:m.m_wrong
                ~n2:base.m_injected ~k2:base.m_wrong ()
            in
            let verdict =
              if ok then "compatible"
              else if m.m_rate > base.m_rate then "**regression**"
              else "improvement"
            in
            if not ok then
              notes :=
                Printf.sprintf
                  "`%s`: rate %.2f%% vs baseline %.2f%% (z = %.2f, p = %.4f) \
                   — %s"
                  m.m_design (pct m.m_rate) (pct base.m_rate) z (Stats.p_value z)
                  (if m.m_rate > base.m_rate then "regression" else
                     "improvement")
                :: !notes;
            let tput =
              if
                base.m_faults_per_sec > 0.
                && m.m_faults_per_sec
                   < (1. -. throughput_drop) *. base.m_faults_per_sec
              then begin
                notes :=
                  Printf.sprintf
                    "`%s`: throughput regression — %.1f faults/s vs baseline \
                     %.1f (-%.0f%%)"
                    m.m_design m.m_faults_per_sec base.m_faults_per_sec
                    (pct
                       (1. -. (m.m_faults_per_sec /. base.m_faults_per_sec)))
                  :: !notes;
                Printf.sprintf "%.1f (was %.1f) ⚠" m.m_faults_per_sec
                  base.m_faults_per_sec
              end
              else
                Printf.sprintf "%.1f (was %.1f)" m.m_faults_per_sec
                  base.m_faults_per_sec
            in
            ( Printf.sprintf "%.2f%% [%.2f%%, %.2f%%] @%s" (pct base.m_rate)
                (pct base.m_ci_lo) (pct base.m_ci_hi)
                (String.sub base.m_created_iso 0
                   (min 10 (String.length base.m_created_iso))),
              Printf.sprintf "%.2f" z,
              verdict,
              tput )
      in
      Buffer.add_string b
        (Printf.sprintf "| %s | %d | %d | %.2f%% | %s | %s | %s | %s | %s |\n"
           m.m_design m.m_injected m.m_wrong (pct m.m_rate) ci_str base_str
           z_str verdict tput))
    currents;
  Buffer.add_char b '\n';
  List.iter
    (fun note -> Buffer.add_string b (Printf.sprintf "- %s\n" note))
    (List.rev !notes);
  if !notes <> [] then Buffer.add_char b '\n';
  (* in-circuit detection: the four-way verdict split of campaigns run
     with a detecting voter, the SDC (silent-wrong) rate compared
     against the stored baseline by the same two-proportion test the
     wrong-answer rate uses *)
  if List.exists (fun m -> m.m_detection <> None) currents then begin
    Buffer.add_string b "## In-circuit detection\n\n";
    Buffer.add_string b
      "| design | voter | corrected | detected-wrong | SDC | SDC rate | \
       baseline SDC | verdict |\n";
    Buffer.add_string b "|---|---|---|---|---|---|---|---|\n";
    List.iter
      (fun m ->
        match m.m_detection with
        | None -> ()
        | Some d ->
            let sdc_rate =
              if m.m_injected = 0 then 0.
              else float_of_int d.md_silent_wrong /. float_of_int m.m_injected
            in
            let base_str, verdict =
              match
                Option.bind (baseline_for ~history m) (fun h ->
                    Option.map (fun hd -> (h, hd)) h.m_detection)
              with
              | None -> ("-", "new")
              | Some (h, hd) ->
                  let base_rate =
                    if h.m_injected = 0 then 0.
                    else
                      float_of_int hd.md_silent_wrong
                      /. float_of_int h.m_injected
                  in
                  let ok =
                    Stats.compatible ~confidence ~n1:m.m_injected
                      ~k1:d.md_silent_wrong ~n2:h.m_injected
                      ~k2:hd.md_silent_wrong ()
                  in
                  ( Printf.sprintf "%.2f%%" (pct base_rate),
                    if ok then "compatible"
                    else if sdc_rate > base_rate then "**regression**"
                    else "improvement" )
            in
            Buffer.add_string b
              (Printf.sprintf "| %s | %s | %d | %d | %d | %.2f%% | %s | %s |\n"
                 m.m_design m.m_voter d.md_detected_corrected d.md_detected_wrong
                 d.md_silent_wrong (pct sdc_rate) base_str verdict))
      currents;
    Buffer.add_char b '\n'
  end;
  (* coverage: distinct injected bits vs. the essential-bit population *)
  if List.exists (fun m -> m.m_coverage <> Json.Null) currents then begin
    Buffer.add_string b "## Injection coverage\n\n";
    Buffer.add_string b
      "| design | essential bits covered | routing | LUT | custom | ff |\n";
    Buffer.add_string b "|---|---|---|---|---|---|\n";
    List.iter
      (fun m ->
        let class_cells =
          let classes =
            match Option.map Json.arr (Json.member "classes" m.m_coverage) with
            | Some l -> l
            | None -> []
          in
          List.map
            (fun name ->
              match
                List.find_opt
                  (fun c ->
                    Option.bind (Json.member "class" c) Json.str = Some name)
                  classes
              with
              | None -> "-"
              | Some c -> coverage_cell c)
            [ "routing"; "LUT"; "customization"; "flip-flop" ]
        in
        Buffer.add_string b
          (Printf.sprintf "| %s | %s | %s |\n" m.m_design
             (coverage_cell m.m_coverage)
             (String.concat " | " class_cells)))
      currents;
    Buffer.add_char b '\n'
  end;
  Buffer.contents b
