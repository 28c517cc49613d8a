module Campaign = Tmr_inject.Campaign
module Shard = Tmr_inject.Shard
module Workqueue = Tmr_inject.Workqueue
module Faultlist = Tmr_inject.Faultlist
module Partition = Tmr_core.Partition
module Json = Tmr_obs.Json
module Events = Tmr_obs.Events
module Clock = Tmr_obs.Clock
module Metrics = Tmr_obs.Metrics
module Trace = Tmr_obs.Trace

type job = {
  j_design : Partition.strategy;
  j_scale : Context.scale;
  j_seed : int;
  j_faults : int;
  j_exhaustive : bool;
  j_shards : int;
  j_workers : int;
  j_cone_skip : bool;
  j_voter : Tmr_core.Voter.variant;
}

let job ?(scale = Context.Paper) ?(seed = 1) ?(faults = 1500)
    ?(exhaustive = false) ?(shards = 16) ?(workers = 1) ?(cone_skip = true)
    ?(voter = Tmr_core.Voter.Majority) design =
  {
    j_design = design;
    j_scale = scale;
    j_seed = seed;
    j_faults = faults;
    j_exhaustive = exhaustive;
    j_shards = shards;
    j_workers = workers;
    j_cone_skip = cone_skip;
    j_voter = voter;
  }

let scale_name = function
  | Context.Paper -> "paper"
  | Context.Reduced -> "reduced"

let job_name j =
  Printf.sprintf "%s-%s-seed%d-%s%s"
    (Partition.name j.j_design)
    (scale_name j.j_scale) j.j_seed
    (if j.j_exhaustive then "exhaustive" else string_of_int j.j_faults)
    (* majority stays unsuffixed so existing queue directories resume *)
    (match j.j_voter with
    | Tmr_core.Voter.Majority -> ""
    | v -> "-" ^ Tmr_core.Voter.name v)

(* The fingerprinted spec: what the shard ranges and verdicts depend on.  The
   domain-worker count is left out — verdicts are byte-identical across
   worker counts, so a run interrupted at one count resumes at another. *)
let job_to_json j =
  let int n = Json.Num (float_of_int n) in
  Json.Obj
    [
      ("design", Json.Str (Partition.name j.j_design));
      ("scale", Json.Str (scale_name j.j_scale));
      ("seed", int j.j_seed);
      ("faults", int j.j_faults);
      ("exhaustive", Json.Bool j.j_exhaustive);
      ("shards", int j.j_shards);
      ("cone_skip", Json.Bool j.j_cone_skip);
      ("voter", Json.Str (Tmr_core.Voter.name j.j_voter));
    ]

let faults_of _ctx (run : Runs.design_run) j =
  if j.j_exhaustive then Array.copy run.Runs.faultlist.Faultlist.bits
  else Faultlist.sample run.Runs.faultlist ~seed:j.j_seed ~count:j.j_faults

(* Verdicts are a function of the engine as much as of the job: a queue
   directory another build wrote holds that build's verdicts (and its
   results file format), so the running executable is part of the
   fingerprint.  A build that cannot read its own executable gets no
   fingerprint rather than one it would share with every other such
   build. *)
let build_digest =
  lazy
    (try Ok (Digest.to_hex (Digest.file Sys.executable_name))
     with Sys_error e -> Error ("cannot fingerprint the running build: " ^ e))

let fingerprint j faults =
  Result.map
    (fun build ->
      let b = Buffer.create (64 + (Array.length faults * 7)) in
      Buffer.add_string b build;
      Buffer.add_char b ',';
      Buffer.add_string b (Json.to_string (job_to_json j));
      Array.iter
        (fun f ->
          Buffer.add_char b ',';
          Buffer.add_string b (string_of_int f))
        faults;
      Digest.to_hex (Digest.string (Buffer.contents b)))
    (Lazy.force build_digest)

type outcome = {
  o_campaign : Campaign.t;
  o_resumed : int;
  o_fresh : int;
}

type status =
  | Complete of outcome
  | Incomplete of { done_shards : int; pending_shards : int }

(* --- interrupting a fleet ------------------------------------------- *)

(* While run_sharded has live children, this hook terminates and reaps
   them and drains their spools; otherwise it is a no-op.  The host
   binary's SIGINT handler calls {!interrupt} so Ctrl-C on a --procs K
   run cannot leave orphan workers or unread spool tails behind. *)
let interrupt_hook : (unit -> unit) Atomic.t = Atomic.make (fun () -> ())
let interrupt () = (Atomic.get interrupt_hook) ()

(* --- spool tailing --------------------------------------------------- *)

(* One tail per worker spool.  The channel is opened lazily (the file
   only exists once the child's first event lands) and read with
   [Events.input_whole_line]: a line whose newline has not landed is left
   for the next tick, and one torn by SIGKILL is never relayed. *)
type tail = {
  tl_path : string;
  mutable tl_ic : in_channel option;
}

let make_tail path = { tl_path = path; tl_ic = None }

let drain_tail t =
  (match t.tl_ic with
  | None ->
      if Sys.file_exists t.tl_path then (
        try t.tl_ic <- Some (open_in t.tl_path) with Sys_error _ -> ())
  | Some _ -> ());
  match t.tl_ic with
  | None -> ()
  | Some ic ->
      let continue = ref true in
      while !continue do
        match Events.input_whole_line ic with
        | None -> continue := false
        | Some line -> (
            match Events.respool_line line with
            | Some (_, payload) -> Events.publish_payload payload
            | None -> ())
      done

let close_tail t =
  (match t.tl_ic with
  | Some ic -> ( try close_in ic with Sys_error _ -> ())
  | None -> ());
  t.tl_ic <- None

(* ------------------------------------------------------------------ *)
(* The sharded driver. *)

let wipe_queue wq =
  let root = Workqueue.dir wq in
  List.iter
    (fun sub ->
      let d = Filename.concat root sub in
      if Sys.file_exists d then
        Array.iter
          (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
          (Sys.readdir d))
    [ "todo"; "claims"; "done"; "results" ];
  try Sys.remove (Filename.concat root "job.json") with Sys_error _ -> ()

(* job.json carries the spec for humans and the fingerprint for the
   resume guard *)
let job_file_json j fp =
  match job_to_json j with
  | Json.Obj fields -> Json.Obj (fields @ [ ("fingerprint", Json.Str fp) ])
  | other -> other

let run_sharded ?(procs = 1) ?shard_limit ?(fresh = false)
    ?(notify = Events.publish) ~dir j (ctx : Context.t)
    (run : Runs.design_run) =
  let ( let* ) = Result.bind in
  let name = Partition.name j.j_design in
  let faults = faults_of ctx run j in
  let total = Array.length faults in
  let* fp = fingerprint j faults in
  let wq = Workqueue.create ~dir in
  let* () =
    match Workqueue.read_job wq with
    | None ->
        Workqueue.write_job wq (job_file_json j fp);
        Ok ()
    | Some prior -> (
        let stored_fp =
          match prior with
          | Ok json -> Option.bind (Json.member "fingerprint" json) Json.str
          | Error _ -> None
        in
        match stored_fp with
        | Some stored when stored = fp -> Ok ()
        | _ when fresh ->
            wipe_queue wq;
            Workqueue.write_job wq (job_file_json j fp);
            Ok ()
        | _ ->
            Error
              (Printf.sprintf
                 "shard dir %s holds a different job (fingerprint mismatch); \
                  pass --fresh to discard it"
                 dir))
  in
  ignore (Workqueue.reclaim_orphans wq);
  let plan = Shard.plan ~total ~shards:j.j_shards in
  let* done0 = Workqueue.load_done wq in
  let* () =
    (* belt and braces on top of the job.json guard: never merge a shard
       simulated under a different spec *)
    match
      List.find_opt (fun m -> m.Shard.sm_fingerprint <> fp) done0
    with
    | Some m ->
        Error
          (Printf.sprintf "done shard %d has a foreign fingerprint"
             m.Shard.sm_id)
    | None -> Ok ()
  in
  let done0_ids = List.map (fun m -> m.Shard.sm_id) done0 in
  let missing =
    Shard.ranges_missing ~total
      ~done_ids:(fun id -> List.mem id done0_ids)
      ~shards:j.j_shards
  in
  ignore (Workqueue.seed wq missing);
  let t0 = Clock.now_ns () in
  let limit = Option.value shard_limit ~default:max_int in
  let jname = job_name j in
  (* A worker's snapshot that cannot be written must not stop its shard
     work: the parent warns when it cannot fold the file. *)
  let snapshot_metrics file =
    try Metrics.write_file file with Sys_error _ -> ()
  in
  (* One claimed range at a time: simulate it as an ordinary (domain
     pooled) campaign over the sub-list, persist, claim the next.  Every
     shard a process claims runs on one campaign session, built on the
     first claim — in the forked worker, never before the fork — and
     dropped when the loop ends.  [metrics_file] (workers only)
     re-snapshots the registry at every shard boundary, so a killed
     worker's finished shards still count when the parent folds the
     file; [on_done] runs once each shard is persisted. *)
  let claim_loop ?metrics_file ?(on_done = ignore) ~quiet () =
    let pid = Unix.getpid () in
    let session =
      lazy
        (Campaign.session ~workers:j.j_workers ~cone_skip:j.j_cone_skip ~name
           ~impl:run.Runs.impl ~golden:ctx.Context.golden_nl
           ~stimulus:ctx.Context.stimulus ())
    in
    let claimed = ref 0 in
    let continue = ref true in
    while !continue && !claimed < limit do
      match Workqueue.claim wq ~pid with
      | None -> continue := false
      | Some r ->
          let sub = Array.sub faults r.Shard.sh_lo (r.Shard.sh_hi - r.Shard.sh_lo) in
          Events.set_shard r.Shard.sh_id;
          let c = Campaign.run_session (Lazy.force session) ~faults:sub in
          Events.set_shard (-1);
          let m = Shard.manifest_of_campaign r ~fingerprint:fp ~owner:pid c in
          Workqueue.complete wq ~pid r ~results:c.Campaign.results ~manifest:m;
          incr claimed;
          Option.iter snapshot_metrics metrics_file;
          on_done ();
          if not quiet then
            notify
              (Events.Shard_done
                 {
                   design = name;
                   shard = r.Shard.sh_id;
                   lo = r.Shard.sh_lo;
                   hi = r.Shard.sh_hi;
                   wrong = c.Campaign.wrong;
                   pending = Workqueue.pending wq;
                 })
    done
  in
  (* Fleet-level lifecycle events are origin-less and published by this
     process only, so a watcher can always tell the authoritative
     campaign record from the per-shard campaigns relayed out of the
     workers (those carry an origin). *)
  notify (Events.Campaign_started { design = name; faults = total; workers = procs });
  (if procs <= 1 then begin
     (* Even single-process sharded runs stamp their shard-local events
        with an origin (worker 0 = the parent itself), so a watcher
        applies one rule to every campaign event with an origin. *)
     Events.set_context ~worker:0 ~job:jname;
     Fun.protect
       ~finally:(fun () -> Events.clear_context ())
       (fun () -> claim_loop ~quiet:false ())
   end
   else begin
     let events_on = Events.enabled () in
     let tracing = Trace.enabled () in
     let worker_ids = List.init procs (fun k -> k + 1) in
     (* stale telemetry from a previous (interrupted) run must neither
        be tailed nor folded into this run's metrics *)
     List.iter
       (fun w ->
         List.iter
           (fun p -> try Sys.remove p with Sys_error _ -> ())
           [
             Workqueue.spool_path wq ~worker:w;
             Workqueue.metrics_path wq ~worker:w;
             Workqueue.trace_path wq ~worker:w;
           ])
       worker_ids;
     (* Each child writes one byte into this pipe per shard it
        completes; the parent blocks on the read end, relays on every
        wake-up and reaps once all write ends are closed (EOF: every
        child exited). *)
     let done_rd, done_wr = Unix.pipe ~cloexec:true () in
     (* Fork the workers *after* the implementation and fault list exist:
        children inherit the built device, bitstream and golden netlist
        by copy-on-write instead of re-running the CAD flow per process.
        Each child talks to the world only through the queue directory
        and the pipe. *)
     let children =
       Trace.with_span "shard_fork" @@ fun () ->
       List.map
         (fun worker ->
           match Unix.fork () with
           | 0 ->
               (* the event and trace sinks' channels belong to the
                  parent: disown both before anything else *)
               Events.detach ();
               Trace.detach ();
               Unix.close done_rd;
               (* inherited handlers belong to the parent (they flush
                  the parent's sinks); default dispositions are correct
                  here — spool writes are line-atomic and flushed, so
                  dying on SIGTERM/SIGINT leaves no torn line and the
                  claim is reclaimed.  A worker whose parent died keeps
                  going: the wake-up byte then fails with EPIPE, which
                  is ignored. *)
               Sys.set_signal Sys.sigterm Sys.Signal_default;
               Sys.set_signal Sys.sigint Sys.Signal_default;
               Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
               let on_done () =
                 try ignore (Unix.write_substring done_wr "." 0 1)
                 with Unix.Unix_error _ -> ()
               in
               (* the registry copied at fork holds the parent's counts;
                  the parent folds this worker's snapshot back in, so
                  the worker must count only its own work *)
               Metrics.reset ();
               if events_on then
                 Events.spool
                   ~path:(Workqueue.spool_path wq ~worker)
                   ~worker ~job:jname
               else Events.set_context ~worker ~job:jname;
               if tracing then
                 Trace.to_file (Workqueue.trace_path wq ~worker);
               let metrics_file = Workqueue.metrics_path wq ~worker in
               let code =
                 try
                   claim_loop ~metrics_file ~on_done ~quiet:true ();
                   0
                 with e ->
                   Printf.eprintf "shard worker %d: %s\n%!" (Unix.getpid ())
                     (Printexc.to_string e);
                   1
               in
               snapshot_metrics metrics_file;
               Events.close ();
               Trace.close ();
               (* _exit, not exit: at_exit in the child would flush
                  output buffers it shares with the parent *)
               Unix._exit code
           | pid -> pid)
         worker_ids
     in
     Unix.close done_wr;
     (* Fleet totals: once the workers are reaped, add each one's final
        snapshot into this process's registry, so --metrics counts the
        fleet's work.  Exactly once, whether the run ends normally or
        through the SIGINT hook. *)
     let folded = Atomic.make false in
     let fold_worker_metrics () =
       if not (Atomic.exchange folded true) then
         List.iter
           (fun w ->
             let p = Workqueue.metrics_path wq ~worker:w in
             match Metrics.read_file p with
             | Ok snap -> Metrics.absorb snap
             | Error e ->
                 Printf.eprintf "warning: skipping worker metrics %s: %s\n%!"
                   p e)
           worker_ids
     in
     (* The parent watches: a tailer thread follows the live spools and
        appends every worker event to the parent's stream (re-sequenced,
        origin preserved), while the main thread reaps children and
        relays a Shard_done per manifest that appears.  Both write
        through the one sink lock, so the merged [seq] is dense. *)
     let tails =
       if events_on then
         List.map (fun w -> make_tail (Workqueue.spool_path wq ~worker:w))
           worker_ids
       else []
     in
     let tail_stop = Atomic.make false in
     let tailer =
       if tails = [] then None
       else
         Some
           (Thread.create
              (fun () ->
                while not (Atomic.get tail_stop) do
                  List.iter drain_tail tails;
                  Thread.delay 0.03
                done;
                (* final pass after the stop flag: children have exited
                   and flushed, so this empties every spool *)
                List.iter drain_tail tails)
              ())
     in
     let stop_tailer () =
       Atomic.set tail_stop true;
       Option.iter Thread.join tailer;
       List.iter close_tail tails
     in
     let seen = Hashtbl.create 16 in
     List.iter (fun id -> Hashtbl.replace seen id ()) done0_ids;
     (* parse only the manifests not relayed yet, ascending; one that
        cannot be read ends this pass, so it and every later id wait for
        the next tick *)
     let relay () =
       let rec go = function
         | [] -> ()
         | id :: rest when Hashtbl.mem seen id -> go rest
         | id :: rest -> (
             match Workqueue.load_manifest wq id with
             | Error _ -> ()
             | Ok m ->
                 Hashtbl.replace seen id ();
                 notify
                   (Events.Shard_done
                      {
                        design = name;
                        shard = m.Shard.sm_id;
                        lo = m.Shard.sm_lo;
                        hi = m.Shard.sm_hi;
                        wrong = m.Shard.sm_wrong;
                        pending = Workqueue.pending wq;
                      });
                 go rest)
       in
       go (Workqueue.done_ids wq)
     in
     let remaining = ref children in
     (* Ctrl-C: terminate the fleet, reap it, then drain what the dying
        workers managed to spool — the host's SIGINT handler runs this
        before flushing its own sinks *)
     Atomic.set interrupt_hook (fun () ->
         List.iter
           (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
           !remaining;
         List.iter
           (fun pid ->
             try ignore (Unix.waitpid [] pid)
             with Unix.Unix_error _ -> ())
           !remaining;
         stop_tailer ();
         fold_worker_metrics ());
     Trace.with_span "shard_wait" (fun () ->
       Fun.protect
         ~finally:(fun () ->
           Atomic.set interrupt_hook (fun () -> ());
           Unix.close done_rd)
         (fun () ->
           let buf = Bytes.create 64 in
           let rec wait () =
             match Unix.select [ done_rd ] [] [] (-1.0) with
             | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
             | _ -> (
                 match Unix.read done_rd buf 0 (Bytes.length buf) with
                 | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
                 | 0 -> ()
                 | _ ->
                     relay ();
                     wait ())
           in
           wait ();
           List.iter
             (fun pid ->
               let rec reap () =
                 match Unix.waitpid [] pid with
                 | _ -> ()
                 | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
                 | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
               in
               reap ())
             !remaining;
           remaining := [];
           stop_tailer ();
           relay ();
           fold_worker_metrics ()));
     (* stitch the workers' trace files into the parent's sink so one
        [tmrtool profile] renders the whole fleet; pid fields survive
        verbatim, so lanes stay per-process *)
     if tracing then
       List.iter
         (fun w ->
           let p = Workqueue.trace_path wq ~worker:w in
           match open_in p with
           | exception Sys_error _ -> ()
           | ic ->
               (try
                  while true do
                    let line = input_line ic in
                    let n = String.length line in
                    (* a worker killed mid-buffer-flush can leave one
                       torn trailing line; relay only well-formed ones *)
                    if n > 1 && line.[0] = '{' && line.[n - 1] = '}' then
                      Trace.emit_raw line
                  done
                with End_of_file -> ());
               close_in_noerr ic)
         worker_ids
   end);
  let wall_ns = Clock.now_ns () - t0 in
  let* merged =
    Trace.with_span "shard_merge" @@ fun () ->
    let* dones = Workqueue.load_done wq in
    let* () =
      match List.find_opt (fun m -> m.Shard.sm_fingerprint <> fp) dones with
      | Some m ->
          Error
            (Printf.sprintf "done shard %d has a foreign fingerprint"
               m.Shard.sm_id)
      | None -> Ok ()
    in
    if List.length dones < Array.length plan then Ok (Either.Left dones)
    else
      let* shards =
        List.fold_left
          (fun acc m ->
            let* acc = acc in
            let* rs = Workqueue.read_results wq m in
            Ok ((m, rs) :: acc))
          (Ok []) dones
      in
      Shard.merge ~design:name ~total ~procs ~wall_ns shards
      |> Result.map Either.right
      |> Result.map_error (Printf.sprintf "shard dir %s: %s" dir)
  in
  match merged with
  | Either.Left dones ->
      Ok
        (Incomplete
           {
             done_shards = List.length dones;
             pending_shards = Workqueue.pending wq;
           })
  | Either.Right merged ->
      (* origin-less, hence authoritative for watchers: the merged fleet
         totals, not any single shard's *)
      notify
        (Events.Campaign_stopped
           {
             design = name;
             requested = total;
             injected = merged.Campaign.injected;
             wrong = merged.Campaign.wrong;
             wall_ns;
           });
      Ok
        (Complete
           {
             o_campaign = merged;
             o_resumed = List.length done0;
             o_fresh = Array.length plan - List.length done0;
           })

let summary_json j status =
  let name = job_name j in
  match status with
  | Incomplete { done_shards; pending_shards } ->
      Printf.sprintf
        "{\"job\":\"%s\",\"status\":\"incomplete\",\"done_shards\":%d,\"pending_shards\":%d}"
        (Tmr_obs.Jsonl.escape name) done_shards pending_shards
  | Complete o ->
      let base = Campaign.summary_json o.o_campaign in
      (* splice the job fields into the campaign's summary object *)
      let body = String.sub base 0 (String.length base - 1) in
      Printf.sprintf
        "%s,\"job\":\"%s\",\"status\":\"complete\",\"exhaustive\":%b,\"shards_total\":%d,\"shards_resumed\":%d,\"shards_fresh\":%d}"
        body
        (Tmr_obs.Jsonl.escape name)
        j.j_exhaustive (o.o_resumed + o.o_fresh) o.o_resumed o.o_fresh
