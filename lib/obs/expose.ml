(* Prometheus text format v0.0.4 over a deliberately small HTTP/1.1
   server: one thread, one connection at a time, GET only.  A scrape
   renders from a Metrics snapshot, so it never blocks recorders. *)

let sanitize name =
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':') as c -> c | _ -> '_')
    name

let fmt_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

(* # HELP text per metric family — promtool lint wants every family
   introduced by a HELP line before its TYPE line.  Names missing from
   the table fall back to a generic line instead of failing a scrape. *)
let help_for name =
  match name with
  | "campaign.batch_lanes" -> "Faults executed word-parallel as batch lanes"
  | "campaign.batch_scalar" ->
      "Batchable faults that fell back to the scalar differential engine"
  | "campaign.batch_occupancy" -> "Lane count of each executed batch"
  | "campaign.detection.silent_correct" ->
      "Faults with correct outputs and no disagreement flag"
  | "campaign.detection.detected_corrected" ->
      "Faults corrected by the vote whose disagreement flags still fired"
  | "campaign.detection.detected_wrong" ->
      "Wrong-answer faults the in-circuit detectors flagged"
  | "campaign.detection.silent_wrong" ->
      "Silent data corruption: wrong answers no detector flagged"
  | "campaign.detection.latency_cycles" ->
      "Cycles from first internal divergence to the first disagreement flag"
  | "campaign.detection.sdc_rate" ->
      "Silent-wrong share of the last campaign's injected faults"
  | "campaign.diff_converge_cycle" ->
      "Cycle at which a differentially simulated fault rejoined the baseline"
  | "campaign.fault_ns.silent" -> "Per-fault latency, silent plan path"
  | "campaign.fault_ns.patch" -> "Per-fault latency, patch plan path"
  | "campaign.fault_ns.reroute" -> "Per-fault latency, reroute plan path"
  | "campaign.fault_ns.rebuild" -> "Per-fault latency, rebuild plan path"
  | "campaign.fault_ns.diff" -> "Per-fault latency, differential engine"
  | "campaign.fault_ns.batch" -> "Amortised per-fault latency, batch engine"
  | "campaign.first_error_cycle" ->
      "Stimulus cycle at which wrong-answer faults first disagreed"
  | "campaign.wall_ns" -> "Wall time of the last campaign"
  | "campaign.worker_busy_ns" -> "Summed worker busy time"
  | "campaign.worker_setup_ns" -> "Summed worker setup time"
  | "campaign.worker_utilization" -> "Busy share of the last campaign's workers"
  | "fsim.build_ns" -> "Fabric simulator build time"
  | "fsim.reroute_ns" -> "Incremental reroute time"
  | "fsim.reroute_fallback" -> "Reroutes that fell back to a full rebuild"
  | "pool.chunks" -> "Work chunks claimed by campaign workers"
  | "pool.claim_wait_ns" -> "Time workers waited to claim a chunk"
  | _ -> "tmrtool metric " ^ name

(* Extra snapshot sources folded into every scrape: the campaign parent
   registers a reader over its workers' metrics files here, so /metrics
   reports fleet-wide totals rather than the parent's (mostly idle)
   registry alone. *)
let extra_snapshots : (unit -> Metrics.snapshot list) option Atomic.t =
  Atomic.make None

let set_extra_snapshots f = Atomic.set extra_snapshots f

(* How many campaigns this process is currently running — wired by the
   host binary (the obs layer cannot see the inject layer). *)
let active_probe : (unit -> int) option Atomic.t = Atomic.make None
let set_active_probe f = Atomic.set active_probe f

let fleet_snapshot () =
  let own = Metrics.snapshot () in
  match Atomic.get extra_snapshots with
  | None -> own
  | Some f -> List.fold_left Metrics.merge own (try f () with _ -> [])

let render () =
  let snap = fleet_snapshot () in
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  List.iter
    (fun (name, v) ->
      let n = sanitize name in
      line "# HELP %s %s" n (help_for name);
      line "# TYPE %s counter" n;
      line "%s %d" n v)
    snap.Metrics.counters;
  List.iter
    (fun (name, v) ->
      let n = sanitize name in
      line "# HELP %s %s" n (help_for name);
      line "# TYPE %s gauge" n;
      line "%s %s" n (fmt_float v))
    snap.Metrics.gauges;
  List.iter
    (fun (name, (s : Metrics.hist_summary)) ->
      let n = sanitize name in
      line "# HELP %s %s" n (help_for name);
      line "# TYPE %s histogram" n;
      let cum = ref 0 in
      Array.iter
        (fun (bound, count) ->
          cum := !cum + count;
          (* the catch-all bucket has no finite bound; +Inf below covers it *)
          if bound <> max_int then line "%s_bucket{le=\"%d\"} %d" n bound !cum)
        s.Metrics.buckets;
      line "%s_bucket{le=\"+Inf\"} %d" n s.Metrics.count;
      line "%s_sum %d" n s.Metrics.sum;
      line "%s_count %d" n s.Metrics.count;
      line "# HELP %s_min Smallest observation of %s" n n;
      line "# TYPE %s_min gauge" n;
      line "%s_min %d" n s.Metrics.min;
      line "# HELP %s_max Largest observation of %s" n n;
      line "# TYPE %s_max gauge" n;
      line "%s_max %d" n s.Metrics.max)
    snap.Metrics.histograms;
  (* event-stream liveness: how far the stream is *)
  line "# HELP events_bus_published Events written to the event stream";
  line "# TYPE events_bus_published gauge";
  line "events_bus_published %d" (Events.published ());
  line "# HELP events_bus_last_seq Sequence number of the newest event";
  line "# TYPE events_bus_last_seq gauge";
  line "events_bus_last_seq %d" (Events.last_seq ());
  Buffer.contents b

(* --- server ----------------------------------------------------------- *)

type server = {
  fd : Unix.file_descr;
  thread : Thread.t;
  s_port : int;
  stop_flag : bool Atomic.t;
  started_at : float;
}

let current : server option ref = ref None
let current_mutex = Mutex.create ()

(* readiness probe: liveness facts only, cheap enough to poll hard —
   no registry snapshot, no file reads *)
let healthz_body () =
  let uptime =
    Mutex.lock current_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock current_mutex)
      (fun () ->
        match !current with
        | Some s -> Unix.gettimeofday () -. s.started_at
        | None -> 0.0)
  in
  let active =
    match Atomic.get active_probe with
    | Some f -> ( try f () with _ -> 0)
    | None -> 0
  in
  Printf.sprintf
    "{\"status\":\"ok\",\"uptime_s\":%.3f,\"bus\":{\"enabled\":%b,\"published\":%d},\"active_campaigns\":%d}\n"
    uptime (Events.enabled ()) (Events.published ()) active

let respond client =
  let buf = Bytes.create 2048 in
  let n = try Unix.read client buf 0 2048 with _ -> 0 in
  let req = Bytes.sub_string buf 0 n in
  let path =
    match String.split_on_char ' ' req with
    | _meth :: path :: _ -> path
    | _ -> "/"
  in
  let status, ctype, body =
    let prom = "text/plain; version=0.0.4; charset=utf-8" in
    match path with
    | "/" | "/metrics" -> ("200 OK", prom, render ())
    | "/healthz" -> ("200 OK", "application/json", healthz_body ())
    | _ -> ("404 Not Found", prom, "not found\n")
  in
  let resp =
    Printf.sprintf
      "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: \
       %d\r\nConnection: close\r\n\r\n%s"
      status ctype (String.length body) body
  in
  let bytes = Bytes.of_string resp in
  let len = Bytes.length bytes in
  let off = ref 0 in
  try
    while !off < len do
      off := !off + Unix.write client bytes !off (len - !off)
    done
  with _ -> ()

(* Polling accept: a thread parked in a blocking accept() is not
   reliably woken when another thread closes the listen fd, so the
   serve thread polls and watches a stop flag instead — worst-case
   50 ms of extra scrape latency, no join deadlock on shutdown. *)
let serve (fd, stop_flag) =
  Unix.set_nonblock fd;
  while not (Atomic.get stop_flag) do
    match Unix.accept fd with
    | client, _ ->
        (try Unix.clear_nonblock client with _ -> ());
        (try Unix.setsockopt_float client Unix.SO_RCVTIMEO 2.0 with _ -> ());
        (try respond client with _ -> ());
        (try Unix.close client with _ -> ())
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Thread.delay 0.05
    | exception _ -> Atomic.set stop_flag true
  done

let listen ?(host = "127.0.0.1") port =
  Mutex.lock current_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock current_mutex)
    (fun () ->
      if !current <> None then
        invalid_arg "Expose.listen: server already running";
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      Unix.listen fd 16;
      let s_port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      let stop_flag = Atomic.make false in
      let thread = Thread.create serve (fd, stop_flag) in
      current :=
        Some
          { fd; thread; s_port; stop_flag; started_at = Unix.gettimeofday () };
      s_port)

let stop () =
  let s =
    Mutex.lock current_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock current_mutex)
      (fun () ->
        let s = !current in
        current := None;
        s)
  in
  match s with
  | None -> ()
  | Some s ->
      Atomic.set s.stop_flag true;
      Thread.join s.thread;
      (try Unix.close s.fd with _ -> ())

let port () =
  Mutex.lock current_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock current_mutex)
    (fun () -> Option.map (fun s -> s.s_port) !current)
