type campaign = {
  mutable c_workers : int;
  mutable c_total : int;
  mutable c_completed : int;
  mutable c_wrong : int;
  mutable c_started_ts : int;  (* ts_ns of campaign_started *)
  mutable c_last_ts : int;  (* ts_ns of the latest event seen *)
  mutable c_stopped : bool;
  mutable c_requested : int;
  mutable c_wall_ns : int;
  mutable c_batches : int;
  mutable c_lanes : int;
  mutable c_plan : (int * int * int * int * int) option;
  mutable c_detection : (int * int * int * int) option;
      (* silent-correct, detected-corrected, detected-wrong, silent-wrong *)
  mutable c_manifest : string option;
  mutable c_shards_done : int;
  mutable c_shards_pending : int;  (* latest pending count seen *)
  mutable c_sharded : bool;
      (* any shard-done or origin-stamped campaign event seen: progress
         is then base (merged shards) + per-worker in-flight *)
  mutable c_base_completed : int;  (* faults in shards merged so far *)
  mutable c_base_wrong : int;
}

type worker_state = {
  mutable w_busy : int;
  mutable w_idle : int;
  mutable w_items : int;
}

(* One forked campaign worker process, keyed by origin pid.  Shard-local
   campaign events (stamped with an origin) land here instead of on the
   fleet-level campaign row: the origin-less events published by the
   sharded driver stay authoritative for totals and the final verdict. *)
type fleet_worker = {
  fw_pid : int;
  mutable fw_worker : int;  (* worker slot (0 = the parent itself) *)
  mutable fw_shards : int;  (* shard-local campaign_stopped count *)
  mutable fw_injected : int;  (* faults injected across its shards *)
  mutable fw_wall_ns : int;  (* sum of its shards' wall clocks *)
  mutable fw_inflight : int;  (* progress inside the current shard *)
  mutable fw_inflight_wrong : int;
  mutable fw_design : string;  (* design of the in-flight shard *)
  mutable fw_last_ts : int;  (* ts_ns of its latest event *)
  mutable fw_oseq_next : int;  (* next expected worker-local seq *)
  mutable fw_gaps : int;  (* worker-local seqs never observed *)
  mutable fw_events : int;
}

type t = {
  campaigns : (string, campaign) Hashtbl.t;
  mutable order : string list;  (* reverse arrival order *)
  workers : (int * int, worker_state) Hashtbl.t;  (* (origin pid, wid) *)
  fleet : (int, fleet_worker) Hashtbl.t;  (* origin pid *)
  mutable last_seq : int;
  mutable gap_total : int;
  mutable nevents : int;
  mutable max_ts : int;  (* latest ts_ns on the stream *)
}

let create () =
  {
    campaigns = Hashtbl.create 4;
    order = [];
    workers = Hashtbl.create 8;
    fleet = Hashtbl.create 4;
    last_seq = -1;
    gap_total = 0;
    nevents = 0;
    max_ts = 0;
  }

let campaign_of t design =
  match Hashtbl.find_opt t.campaigns design with
  | Some c -> c
  | None ->
      let c =
        {
          c_workers = 0;
          c_total = 0;
          c_completed = 0;
          c_wrong = 0;
          c_started_ts = 0;
          c_last_ts = 0;
          c_stopped = false;
          c_requested = 0;
          c_wall_ns = 0;
          c_batches = 0;
          c_lanes = 0;
          c_plan = None;
          c_detection = None;
          c_manifest = None;
          c_shards_done = 0;
          c_shards_pending = 0;
          c_sharded = false;
          c_base_completed = 0;
          c_base_wrong = 0;
        }
      in
      Hashtbl.add t.campaigns design c;
      t.order <- design :: t.order;
      c

let worker_of t key =
  match Hashtbl.find_opt t.workers key with
  | Some w -> w
  | None ->
      let w = { w_busy = 0; w_idle = 0; w_items = 0 } in
      Hashtbl.add t.workers key w;
      w

let fleet_of t (o : Events.origin) =
  match Hashtbl.find_opt t.fleet o.Events.o_pid with
  | Some fw -> fw
  | None ->
      let fw =
        {
          fw_pid = o.Events.o_pid;
          fw_worker = o.Events.o_worker;
          fw_shards = 0;
          fw_injected = 0;
          fw_wall_ns = 0;
          fw_inflight = 0;
          fw_inflight_wrong = 0;
          fw_design = "";
          fw_last_ts = 0;
          fw_oseq_next = 0;
          fw_gaps = 0;
          fw_events = 0;
        }
      in
      Hashtbl.add t.fleet o.Events.o_pid fw;
      fw

let feed t (p : Events.parsed) =
  t.nevents <- t.nevents + 1;
  if p.Events.p_seq > t.last_seq + 1 && t.last_seq >= -1 then
    t.gap_total <- t.gap_total + (p.Events.p_seq - t.last_seq - 1);
  if p.Events.p_seq > t.last_seq then t.last_seq <- p.Events.p_seq;
  let ts = p.Events.p_ts_ns in
  if ts > t.max_ts then t.max_ts <- ts;
  (* per-origin bookkeeping: worker-local sequence density and liveness *)
  (match p.Events.p_origin with
  | Some o ->
      let fw = fleet_of t o in
      fw.fw_worker <- o.Events.o_worker;
      fw.fw_events <- fw.fw_events + 1;
      if o.Events.o_seq > fw.fw_oseq_next then
        fw.fw_gaps <- fw.fw_gaps + (o.Events.o_seq - fw.fw_oseq_next);
      if o.Events.o_seq >= fw.fw_oseq_next then
        fw.fw_oseq_next <- o.Events.o_seq + 1;
      if ts > fw.fw_last_ts then fw.fw_last_ts <- ts
  | None -> ());
  let origin = p.Events.p_origin in
  match p.Events.p_event with
  | Events.Campaign_started { design; faults; workers } -> (
      let c = campaign_of t design in
      c.c_last_ts <- ts;
      match origin with
      | Some o ->
          (* a worker starting one shard, not the fleet campaign *)
          c.c_sharded <- true;
          let fw = fleet_of t o in
          fw.fw_design <- design;
          fw.fw_inflight <- 0;
          fw.fw_inflight_wrong <- 0;
          ignore faults;
          ignore workers
      | None ->
          c.c_total <- faults;
          c.c_requested <- faults;
          c.c_workers <- workers;
          c.c_started_ts <- ts)
  | Events.Campaign_progress { design; completed; total; wrong } -> (
      let c = campaign_of t design in
      c.c_last_ts <- ts;
      match origin with
      | Some o ->
          c.c_sharded <- true;
          let fw = fleet_of t o in
          fw.fw_design <- design;
          fw.fw_inflight <- completed;
          fw.fw_inflight_wrong <- wrong;
          ignore total
      | None ->
          c.c_total <- total;
          (* progress is monotone: a tick read before a later one was
             published keeps the higher count *)
          if completed > c.c_completed then c.c_completed <- completed;
          if wrong > c.c_wrong then c.c_wrong <- wrong)
  | Events.Campaign_stopped { design; requested; injected; wrong; wall_ns }
    -> (
      let c = campaign_of t design in
      c.c_last_ts <- ts;
      match origin with
      | Some o ->
          (* one shard finished on that worker; the merged totals arrive
             via shard_done (relayed once by the parent) and the final
             verdict via the origin-less campaign_stopped *)
          c.c_sharded <- true;
          let fw = fleet_of t o in
          fw.fw_shards <- fw.fw_shards + 1;
          fw.fw_injected <- fw.fw_injected + injected;
          fw.fw_wall_ns <- fw.fw_wall_ns + wall_ns;
          fw.fw_inflight <- 0;
          fw.fw_inflight_wrong <- 0;
          ignore requested
      | None ->
          c.c_stopped <- true;
          c.c_requested <- requested;
          (* the final verdict counts are authoritative *)
          c.c_completed <- injected;
          c.c_wrong <- wrong;
          c.c_wall_ns <- wall_ns)
  | Events.Campaign_detection
      { design; silent_correct; detected_corrected; detected_wrong;
        silent_wrong } ->
      let c = campaign_of t design in
      (* accumulate across shards, like plan_paths *)
      let sc0, dc0, dw0, sw0 =
        match c.c_detection with Some v -> v | None -> (0, 0, 0, 0)
      in
      c.c_detection <-
        Some
          ( sc0 + silent_correct,
            dc0 + detected_corrected,
            dw0 + detected_wrong,
            sw0 + silent_wrong );
      c.c_last_ts <- ts
  | Events.Batch_dispatched { design; lanes } ->
      let c = campaign_of t design in
      c.c_batches <- c.c_batches + 1;
      c.c_lanes <- c.c_lanes + lanes;
      c.c_last_ts <- ts
  | Events.Worker_heartbeat { worker; busy_ns; idle_ns; items } ->
      let pid = match origin with Some o -> o.Events.o_pid | None -> 0 in
      let w = worker_of t (pid, worker) in
      (* heartbeats carry cumulative totals; keep the latest *)
      w.w_busy <- busy_ns;
      w.w_idle <- idle_ns;
      w.w_items <- items
  | Events.Plan_paths { design; silent; patched; rerouted; rebuilt; diffed; batched = _ } ->
      let c = campaign_of t design in
      (* accumulate: a sharded stream carries one plan-path record per
         shard (a plain campaign exactly one, so sum = replace there) *)
      let s0, p0, rr0, rb0, d0 =
        match c.c_plan with Some v -> v | None -> (0, 0, 0, 0, 0)
      in
      c.c_plan <-
        Some
          (s0 + silent, p0 + patched, rr0 + rerouted, rb0 + rebuilt, d0 + diffed);
      c.c_last_ts <- ts
  | Events.Manifest_written { design; path } ->
      let c = campaign_of t design in
      c.c_manifest <- Some path
  | Events.Shard_done { design; shard = _; lo; hi; wrong; pending } ->
      let c = campaign_of t design in
      c.c_sharded <- true;
      c.c_shards_done <- c.c_shards_done + 1;
      c.c_shards_pending <- pending;
      c.c_base_completed <- c.c_base_completed + (hi - lo);
      c.c_base_wrong <- c.c_base_wrong + wrong;
      c.c_last_ts <- ts

let finished t =
  Hashtbl.length t.campaigns > 0
  && Hashtbl.fold (fun _ c acc -> acc && c.c_stopped) t.campaigns true

let events_seen t = t.nevents
let gaps t = t.gap_total

let fleet_workers t = Hashtbl.length t.fleet

let origin_gaps t =
  Hashtbl.fold (fun _ fw acc -> acc + fw.fw_gaps) t.fleet 0

let ordered t =
  List.rev_map (fun d -> (d, Hashtbl.find t.campaigns d)) t.order

(* Live counts: authoritative once stopped (and on plain streams);
   merged-shards base plus per-worker in-flight progress while a
   sharded campaign is running. *)
let live_counts t design c =
  if c.c_stopped || not c.c_sharded then (c.c_completed, c.c_wrong)
  else
    Hashtbl.fold
      (fun _ fw (n, k) ->
        if fw.fw_design = design then
          (n + fw.fw_inflight, k + fw.fw_inflight_wrong)
        else (n, k))
      t.fleet
      (c.c_base_completed, c.c_base_wrong)

(* --- rendering -------------------------------------------------------- *)

let bar width frac =
  let full = int_of_float (frac *. float_of_int width) in
  let full = max 0 (min width full) in
  String.make full '#' ^ String.make (width - full) '-'

let rate_of c completed =
  let elapsed_ns =
    if c.c_stopped && c.c_wall_ns > 0 then c.c_wall_ns
    else c.c_last_ts - c.c_started_ts
  in
  if elapsed_ns <= 0 then 0.0
  else float_of_int completed *. 1e9 /. float_of_int elapsed_ns

let render ?(confidence = 0.95) ?worker_timeout t =
  let b = Buffer.create 1024 in
  List.iter
    (fun (design, c) ->
      let n, k = live_counts t design c in
      let frac =
        if c.c_total = 0 then 0.0
        else float_of_int n /. float_of_int c.c_total
      in
      let rate = rate_of c n in
      let status =
        if c.c_stopped then "done"
        else if rate > 0.0 then
          Printf.sprintf "eta %.0fs" (float_of_int (c.c_total - n) /. rate)
        else "starting"
      in
      let ci = Stats.wilson ~confidence ~n ~k () in
      let pct = if n = 0 then 0.0 else 100.0 *. float_of_int k /. float_of_int n in
      Buffer.add_string b
        (Printf.sprintf "%-12s [%s] %6d/%-6d %6.1f/s  wrong %d (%.2f%% [%.2f%%, %.2f%%])  %s\n"
           design
           (bar 20 frac)
           n c.c_total rate k pct
           (100.0 *. ci.Stats.lo) (100.0 *. ci.Stats.hi)
           status);
      (match c.c_plan with
      | Some (silent, patched, rerouted, rebuilt, diffed) ->
          Buffer.add_string b
            (Printf.sprintf
               "             paths: silent %d patch %d reroute %d rebuild %d (diffed %d)\n"
               silent patched rerouted rebuilt diffed)
      | None -> ());
      (match c.c_detection with
      | Some (sc, dc, dw, sw) ->
          let tot = sc + dc + dw + sw in
          Buffer.add_string b
            (Printf.sprintf
               "             detection: corrected %d, detected-wrong %d, SDC %d (%.2f%%)\n"
               dc dw sw
               (if tot = 0 then 0.0
                else 100.0 *. float_of_int sw /. float_of_int tot))
      | None -> ());
      if c.c_batches > 0 then
        Buffer.add_string b
          (Printf.sprintf "             batches: %d dispatched, avg occupancy %.1f lanes\n"
             c.c_batches
             (float_of_int c.c_lanes /. float_of_int c.c_batches));
      if c.c_shards_done > 0 then
        Buffer.add_string b
          (Printf.sprintf "             shards: %d done, %d pending\n"
             c.c_shards_done c.c_shards_pending);
      match c.c_manifest with
      | Some p ->
          Buffer.add_string b (Printf.sprintf "             manifest: %s\n" p)
      | None -> ())
    (ordered t);
  (* per-process fleet table of a forked campaign *)
  if Hashtbl.length t.fleet > 0 then begin
    let fws =
      Hashtbl.fold (fun _ fw acc -> fw :: acc) t.fleet []
      |> List.sort (fun a b ->
             compare (a.fw_worker, a.fw_pid) (b.fw_worker, b.fw_pid))
    in
    Buffer.add_string b
      (Printf.sprintf "fleet: %d workers\n" (List.length fws));
    List.iter
      (fun fw ->
        let fps =
          if fw.fw_wall_ns <= 0 then 0.0
          else float_of_int fw.fw_injected *. 1e9 /. float_of_int fw.fw_wall_ns
        in
        let stale =
          (* only a live run can have stale workers: a replayed finished
             stream ends long after its last heartbeat by construction *)
          match worker_timeout with
          | Some timeout when not (finished t) ->
              let age_s =
                float_of_int (t.max_ts - fw.fw_last_ts) /. 1e9
              in
              if age_s > timeout then
                Printf.sprintf "  STALE (last event %.1fs ago)" age_s
              else ""
          | _ -> ""
        in
        Buffer.add_string b
          (Printf.sprintf
             "  w%-2d pid %-7d shards %-3d inflight %-6d injected %-7d %8.1f faults/s  spool %d ev, %d gaps%s\n"
             fw.fw_worker fw.fw_pid fw.fw_shards fw.fw_inflight fw.fw_injected
             fps fw.fw_events fw.fw_gaps stale))
      fws
  end;
  if Hashtbl.length t.workers > 0 then begin
    let ws =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.workers []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    Buffer.add_string b "workers:";
    List.iter
      (fun ((pid, wid), w) ->
        let tot = w.w_busy + w.w_idle in
        let pct =
          if tot = 0 then 0.0
          else 100.0 *. float_of_int w.w_busy /. float_of_int tot
        in
        let label =
          (* origin-less streams keep the single-process label *)
          if pid = 0 then Printf.sprintf "w%d" wid
          else Printf.sprintf "p%d.w%d" pid wid
        in
        Buffer.add_string b
          (Printf.sprintf "  %s %.0f%% busy (%d items)" label pct w.w_items))
      ws;
    Buffer.add_char b '\n'
  end;
  Buffer.add_string b
    (Printf.sprintf "stream: %d events, last seq %d, %d dropped\n" t.nevents
       t.last_seq t.gap_total);
  if Hashtbl.length t.fleet > 0 && origin_gaps t > 0 then
    Buffer.add_string b
      (Printf.sprintf "origin gaps: %d worker events missing\n"
         (origin_gaps t));
  Buffer.contents b

let summary_json ?(confidence = 0.95) t =
  let b = Buffer.create 256 in
  Buffer.add_char b '[';
  List.iteri
    (fun i (design, c) ->
      if i > 0 then Buffer.add_char b ',';
      let n, k = live_counts t design c in
      let i' = Stats.wilson ~confidence ~n ~k () in
      let pct =
        if n = 0 then 0.0 else 100.0 *. float_of_int k /. float_of_int n
      in
      (* field names and formats mirror Campaign.summary_json so the
         watch-side summary is comparable field-by-field *)
      Buffer.add_string b
        (Printf.sprintf
           "{\"design\":\"%s\",\"requested\":%d,\"injected\":%d,\"wrong\":%d,\"wrong_percent\":%.4f,\"ci\":{\"confidence\":%g,\"lo\":%.6f,\"hi\":%.6f},\"stopped\":%b,\"events\":%d,\"dropped\":%d}"
           (Jsonl.escape design) c.c_requested n k pct confidence i'.Stats.lo
           i'.Stats.hi c.c_stopped t.nevents t.gap_total))
    (ordered t);
  Buffer.add_string b "]\n";
  Buffer.contents b
