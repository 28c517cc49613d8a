type event =
  | Campaign_started of { design : string; faults : int; workers : int }
  | Campaign_progress of {
      design : string;
      completed : int;
      total : int;
      wrong : int;
    }
  | Campaign_ci of {
      design : string;
      n : int;
      wrong : int;
      confidence : float;
      lo : float;
      hi : float;
    }
  | Campaign_stopped of {
      design : string;
      requested : int;
      injected : int;
      wrong : int;
      wall_ns : int;
    }
  | Campaign_detection of {
      design : string;
      silent_correct : int;
      detected_corrected : int;
      detected_wrong : int;
      silent_wrong : int;
    }
  | Batch_dispatched of { design : string; lanes : int }
  | Worker_heartbeat of {
      worker : int;
      busy_ns : int;
      idle_ns : int;
      items : int;
    }
  | Plan_paths of {
      design : string;
      silent : int;
      patched : int;
      rerouted : int;
      rebuilt : int;
      diffed : int;
      converged : int;
      batched : int;
    }
  | Manifest_written of { design : string; path : string }
  | Shard_done of {
      design : string;
      shard : int;
      lo : int;
      hi : int;
      wrong : int;
      pending : int;
    }
  | Job_queued of { job : string; design : string }
  | Job_started of { job : string; design : string }
  | Job_done of {
      job : string;
      design : string;
      injected : int;
      wrong : int;
      wall_ns : int;
    }

let type_name = function
  | Campaign_started _ -> "campaign_started"
  | Campaign_progress _ -> "campaign_progress"
  | Campaign_ci _ -> "campaign_ci"
  | Campaign_stopped _ -> "campaign_stopped"
  | Campaign_detection _ -> "campaign_detection"
  | Batch_dispatched _ -> "batch_dispatched"
  | Worker_heartbeat _ -> "worker_heartbeat"
  | Plan_paths _ -> "plan_paths"
  | Manifest_written _ -> "manifest_written"
  | Shard_done _ -> "shard_done"
  | Job_queued _ -> "job_queued"
  | Job_started _ -> "job_started"
  | Job_done _ -> "job_done"

(* Everything after the "ts_ns" field: ,"type":...,<fields>} — built by
   the producer outside the ring lock; seq and ts are prepended by the
   writer thread, which is the only place the full line exists. *)
let payload_of ev =
  let b = Buffer.create 160 in
  Buffer.add_string b (Printf.sprintf ",\"type\":%S" (type_name ev));
  let str k v = Buffer.add_string b (Printf.sprintf ",\"%s\":\"%s\"" k (Jsonl.escape v)) in
  let int k v = Buffer.add_string b (Printf.sprintf ",\"%s\":%d" k v) in
  let flt k v = Buffer.add_string b (Printf.sprintf ",\"%s\":%.6f" k v) in
  (match ev with
  | Campaign_started { design; faults; workers } ->
      str "design" design;
      int "faults" faults;
      int "workers" workers
  | Campaign_progress { design; completed; total; wrong } ->
      str "design" design;
      int "completed" completed;
      int "total" total;
      int "wrong" wrong
  | Campaign_ci { design; n; wrong; confidence; lo; hi } ->
      str "design" design;
      int "n" n;
      int "wrong" wrong;
      flt "confidence" confidence;
      flt "lo" lo;
      flt "hi" hi
  | Campaign_stopped { design; requested; injected; wrong; wall_ns } ->
      str "design" design;
      int "requested" requested;
      int "injected" injected;
      int "wrong" wrong;
      int "wall_ns" wall_ns
  | Campaign_detection
      { design; silent_correct; detected_corrected; detected_wrong;
        silent_wrong } ->
      str "design" design;
      int "silent_correct" silent_correct;
      int "detected_corrected" detected_corrected;
      int "detected_wrong" detected_wrong;
      int "silent_wrong" silent_wrong
  | Batch_dispatched { design; lanes } ->
      str "design" design;
      int "lanes" lanes
  | Worker_heartbeat { worker; busy_ns; idle_ns; items } ->
      int "worker" worker;
      int "busy_ns" busy_ns;
      int "idle_ns" idle_ns;
      int "items" items
  | Plan_paths { design; silent; patched; rerouted; rebuilt; diffed; converged; batched } ->
      str "design" design;
      int "silent" silent;
      int "patched" patched;
      int "rerouted" rerouted;
      int "rebuilt" rebuilt;
      int "diffed" diffed;
      int "converged" converged;
      int "batched" batched
  | Manifest_written { design; path } ->
      str "design" design;
      str "path" path
  | Shard_done { design; shard; lo; hi; wrong; pending } ->
      str "design" design;
      int "shard" shard;
      int "lo" lo;
      int "hi" hi;
      int "wrong" wrong;
      int "pending" pending
  | Job_queued { job; design } ->
      str "job" job;
      str "design" design
  | Job_started { job; design } ->
      str "job" job;
      str "design" design
  | Job_done { job; design; injected; wrong; wall_ns } ->
      str "job" job;
      str "design" design;
      int "injected" injected;
      int "wrong" wrong;
      int "wall_ns" wall_ns);
  Buffer.add_char b '}';
  Buffer.contents b

let render ~seq ~ts_ns ev =
  Printf.sprintf "{\"seq\":%d,\"ts_ns\":%d%s" seq ts_ns (payload_of ev)

(* --- origin context --------------------------------------------------- *)

type origin = {
  o_pid : int;
  o_worker : int;
  o_shard : int;
  o_job : string;
  o_seq : int;
}

(* Ambient per-process origin: once set, every published event carries an
   ["origin"] object naming the process, logical worker slot, currently
   running shard and the job correlation id minted by the parent.  The
   pid is captured when the context is set, so a context installed after
   [fork] names the child, never the parent. *)
type ctx = {
  cx_pid : int;
  cx_worker : int;
  cx_job : string;
  mutable cx_shard : int;
}

let context : ctx option Atomic.t = Atomic.make None

let set_context ~worker ~job =
  Atomic.set context
    (Some { cx_pid = Unix.getpid (); cx_worker = worker; cx_job = job; cx_shard = -1 })

let clear_context () = Atomic.set context None

let set_shard shard =
  match Atomic.get context with Some c -> c.cx_shard <- shard | None -> ()

(* Nested object rather than extra top-level fields: several events
   already own keys named "worker" or "shard", and the origin must not
   shadow them. *)
let origin_suffix () =
  match Atomic.get context with
  | None -> ""
  | Some c ->
      Printf.sprintf
        ",\"origin\":{\"pid\":%d,\"worker\":%d,\"shard\":%d,\"job\":\"%s\"}"
        c.cx_pid c.cx_worker c.cx_shard (Jsonl.escape c.cx_job)

let stamped_payload ev =
  let p = payload_of ev in
  match origin_suffix () with
  | "" -> p
  | sfx -> String.sub p 0 (String.length p - 1) ^ sfx ^ "}"

(* --- the bus ---------------------------------------------------------- *)

let default_capacity = 4096

type entry = { e_seq : int; e_ts : int; e_payload : string }

type bus = {
  mutex : Mutex.t;
  cond : Condition.t;
  capacity : int;
  ring : entry array;
  mutable head : int;  (* oldest undrained entry *)
  mutable len : int;
  mutable next_seq : int;
  mutable stopping : bool;
  mutable file : out_channel option;
  mutable listen_fd : Unix.file_descr option;
  mutable sock_path : string option;
  mutable peers : Unix.file_descr list;
  mutable writer : Thread.t option;
  mutable acceptor : Thread.t option;
}

let state : bus option Atomic.t = Atomic.make None

(* A spool is the forked-worker counterpart of the bus: a plain append
   channel with no threads at all, so it is trivially safe to install
   right after [fork].  Writes are synchronous — one whole line plus
   flush per event under the spool mutex — which keeps every line a
   single [write(2)] (lines are far below the 64 KiB channel buffer), so
   a tailer reading the file never observes a torn line.  A fatal signal
   can still cut one [write(2)] short: the kernel abandons a file write
   between pages once the process is being killed.  [spool_write] blocks
   the termination signals around the write for that reason. *)
type spool = {
  sp_mutex : Mutex.t;
  sp_oc : out_channel;
  mutable sp_seq : int;
}

let spool_state : spool option Atomic.t = Atomic.make None

(* Totals survive [close] so manifests written after teardown can still
   record the final sequence number. *)
let total_seq = Atomic.make 0
let total_dropped = Atomic.make 0

let enabled () =
  Atomic.get state <> None || Atomic.get spool_state <> None

let published () = Atomic.get total_seq
let dropped () = Atomic.get total_dropped
let last_seq () = Atomic.get total_seq - 1

let clients () =
  match Atomic.get state with
  | None -> 0
  | Some b ->
      Mutex.lock b.mutex;
      let n = List.length b.peers in
      Mutex.unlock b.mutex;
      n

let enqueue b payload =
  Mutex.lock b.mutex;
  (* seq and ts assigned under the ring lock: sequence order, ring
     order and timestamp order all agree *)
  let seq = b.next_seq in
  b.next_seq <- seq + 1;
  Atomic.incr total_seq;
  if b.len >= b.capacity then Atomic.incr total_dropped
  else begin
    b.ring.((b.head + b.len) mod b.capacity) <-
      { e_seq = seq; e_ts = Clock.now_ns (); e_payload = payload };
    b.len <- b.len + 1;
    Condition.signal b.cond
  end;
  Mutex.unlock b.mutex

(* blocked while a spool line is written and flushed, so one that arrives
   mid-line is delivered after the newline *)
let termination_signals = [ Sys.sigterm; Sys.sigint ]

let spool_write s payload =
  Mutex.lock s.sp_mutex;
  let seq = s.sp_seq in
  s.sp_seq <- seq + 1;
  Atomic.incr total_seq;
  let line =
    Printf.sprintf "{\"seq\":%d,\"ts_ns\":%d%s\n" seq (Clock.now_ns ()) payload
  in
  let mask = Thread.sigmask Unix.SIG_BLOCK termination_signals in
  (try
     output_string s.sp_oc line;
     flush s.sp_oc
   with Sys_error _ -> ());
  ignore (Thread.sigmask Unix.SIG_SETMASK mask);
  Mutex.unlock s.sp_mutex

let publish ev =
  match Atomic.get spool_state with
  | Some s -> spool_write s (stamped_payload ev)
  | None -> (
      match Atomic.get state with
      | None -> ()
      | Some b -> enqueue b (stamped_payload ev))

(* Republish a pre-rendered payload (everything after the "ts_ns" field)
   onto the bus under a fresh sequence number — how the tailer folds
   spooled worker events into the parent stream. *)
let publish_payload payload =
  match Atomic.get state with
  | None -> ()
  | Some b -> enqueue b payload

(* --- writer thread ---------------------------------------------------- *)

let write_all fd bytes =
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

let writer_loop b =
  let finished = ref false in
  while not !finished do
    Mutex.lock b.mutex;
    while b.len = 0 && not b.stopping do
      Condition.wait b.cond b.mutex
    done;
    let n = b.len in
    let batch = Array.init n (fun i -> b.ring.((b.head + i) mod b.capacity)) in
    b.head <- (b.head + n) mod b.capacity;
    b.len <- 0;
    let peers = b.peers in
    let file = b.file in
    if b.stopping && n = 0 then finished := true;
    Mutex.unlock b.mutex;
    if n > 0 then begin
      let buf = Buffer.create (n * 160) in
      Array.iter
        (fun e ->
          Buffer.add_string buf
            (Printf.sprintf "{\"seq\":%d,\"ts_ns\":%d%s\n" e.e_seq e.e_ts
               e.e_payload))
        batch;
      let text = Buffer.contents buf in
      (match file with
      | Some oc -> ( try output_string oc text; flush oc with Sys_error _ -> ())
      | None -> ());
      let bytes = Bytes.of_string text in
      let dead =
        List.filter
          (fun fd ->
            match write_all fd bytes with
            | () -> false
            | exception _ -> true)
          peers
      in
      if dead <> [] then begin
        Mutex.lock b.mutex;
        b.peers <- List.filter (fun fd -> not (List.memq fd dead)) b.peers;
        Mutex.unlock b.mutex;
        List.iter (fun fd -> try Unix.close fd with _ -> ()) dead
      end
    end
  done

(* Polling accept: a thread parked in a blocking accept() is not
   reliably woken when another thread closes the listen fd, so the
   acceptor polls and watches the stopping flag instead. *)
let accept_loop b fd =
  Unix.set_nonblock fd;
  let running = ref true in
  while !running do
    (match Unix.accept fd with
    | c, _ ->
        (try Unix.clear_nonblock c with _ -> ());
        (* a peer that stops reading must never stall the writer thread
           for long: bound the send and drop the peer on timeout *)
        (try Unix.setsockopt_float c Unix.SO_SNDTIMEO 0.5 with _ -> ());
        Mutex.lock b.mutex;
        b.peers <- c :: b.peers;
        Mutex.unlock b.mutex
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Thread.delay 0.05
    | exception _ -> running := false);
    Mutex.lock b.mutex;
    if b.stopping then running := false;
    Mutex.unlock b.mutex
  done

(* --- lifecycle -------------------------------------------------------- *)

let ensure_bus capacity =
  match Atomic.get state with
  | Some b -> b
  | None ->
      let capacity = max 1 capacity in
      let b =
        {
          mutex = Mutex.create ();
          cond = Condition.create ();
          capacity;
          ring = Array.make capacity { e_seq = 0; e_ts = 0; e_payload = "" };
          head = 0;
          len = 0;
          next_seq = 0;
          stopping = false;
          file = None;
          listen_fd = None;
          sock_path = None;
          peers = [];
          writer = None;
          acceptor = None;
        }
      in
      (* each stream numbers from 0, so gaps measure this stream's drops *)
      Atomic.set total_seq 0;
      Atomic.set total_dropped 0;
      b.writer <- Some (Thread.create writer_loop b);
      Atomic.set state (Some b);
      b

let to_file ?(capacity = default_capacity) path =
  let b = ensure_bus capacity in
  let oc = open_out path in
  Mutex.lock b.mutex;
  let old = b.file in
  b.file <- Some oc;
  Mutex.unlock b.mutex;
  Option.iter (fun oc -> try close_out oc with Sys_error _ -> ()) old

let listen_unix ?(capacity = default_capacity) path =
  let b = ensure_bus capacity in
  (try if Sys.file_exists path then Sys.remove path with Sys_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 8;
  Mutex.lock b.mutex;
  b.listen_fd <- Some fd;
  b.sock_path <- Some path;
  Mutex.unlock b.mutex;
  b.acceptor <- Some (Thread.create (accept_loop b) fd)

(* Fork safety: a forked child inherits the bus record but not the
   writer/acceptor threads, and shares the sinks' file offsets with the
   parent.  Publishing from the child would queue into a ring nobody
   drains (or worse, interleave bytes into the parent's stream), so a
   child must disown the bus before doing anything else — one atomic
   store, no locks taken, safe even if the fork happened while another
   thread held the ring mutex.  An inherited spool channel is equally
   foreign (its buffer and file offset belong to the process that opened
   it) and is forgotten the same way. *)
let detach () =
  Atomic.set state None;
  Atomic.set spool_state None;
  clear_context ()

let spool ~path ~worker ~job =
  Atomic.set state None;
  (match Atomic.exchange spool_state None with
  | Some s -> ( try close_out s.sp_oc with Sys_error _ -> ())
  | None -> ());
  set_context ~worker ~job;
  let oc = open_out path in
  (* a spool is its own stream: seq dense from 0 per worker *)
  Atomic.set total_seq 0;
  Atomic.set total_dropped 0;
  Atomic.set spool_state
    (Some { sp_mutex = Mutex.create (); sp_oc = oc; sp_seq = 0 })

(* Forking while the bus threads are live is unsafe: on a busy bus the
   writer is parked in (or racing through) a runtime condition wait at
   almost any instant, and a child forked at that moment inherits a
   poisoned systhreads state — it runs fine until its first forced
   yield, then blocks forever on a condition variable nobody will ever
   signal.  [pause] drains the ring and joins the writer and acceptor
   threads while keeping every sink open (file channel, listen fd,
   connected peers, sequence counter); [resume] restarts the threads.
   Events published in between simply accumulate in the ring.  A parent
   about to fork brackets the fork with the pair; both are no-ops when
   no bus is active. *)
let pause () =
  match Atomic.get state with
  | None -> ()
  | Some b ->
      Mutex.lock b.mutex;
      b.stopping <- true;
      Condition.broadcast b.cond;
      Mutex.unlock b.mutex;
      Option.iter Thread.join b.writer;
      Option.iter Thread.join b.acceptor;
      b.writer <- None;
      b.acceptor <- None

let resume () =
  match Atomic.get state with
  | None -> ()
  | Some b ->
      Mutex.lock b.mutex;
      b.stopping <- false;
      Mutex.unlock b.mutex;
      b.writer <- Some (Thread.create writer_loop b);
      match b.listen_fd with
      | Some fd -> b.acceptor <- Some (Thread.create (accept_loop b) fd)
      | None -> ()

let close () =
  (match Atomic.exchange spool_state None with
  | Some s ->
      Mutex.lock s.sp_mutex;
      (try close_out s.sp_oc with Sys_error _ -> ());
      Mutex.unlock s.sp_mutex;
      clear_context ()
  | None -> ());
  match Atomic.exchange state None with
  | None -> ()
  | Some b ->
      Mutex.lock b.mutex;
      b.stopping <- true;
      Condition.broadcast b.cond;
      Mutex.unlock b.mutex;
      (* the writer drains whatever is still in the ring before exiting;
         the acceptor notices the stopping flag on its next poll tick *)
      Option.iter Thread.join b.writer;
      Option.iter Thread.join b.acceptor;
      (match b.listen_fd with
      | Some fd -> ( try Unix.close fd with _ -> ())
      | None -> ());
      (match b.file with
      | Some oc -> ( try close_out oc with Sys_error _ -> ())
      | None -> ());
      List.iter (fun fd -> try Unix.close fd with _ -> ()) b.peers;
      (match b.sock_path with
      | Some p -> ( try Sys.remove p with Sys_error _ -> ())
      | None -> ())

(* --- re-sequencing spooled lines -------------------------------------- *)

(* Turn one spool line back into a bus payload: strip the worker-local
   "seq"/"ts_ns" prefix (the bus assigns fresh ones) and append the
   worker-local sequence number as "oseq", so per-origin density is
   still checkable on the merged stream.  Pure string surgery — the
   tailer must not pay a JSON parse per relayed event. *)
let respool_line line =
  let n = String.length line in
  let pfx = "{\"seq\":" in
  let plen = String.length pfx in
  if n < plen + 2 || String.sub line 0 plen <> pfx || line.[n - 1] <> '}' then
    None
  else
    match String.index_from_opt line plen ',' with
    | None -> None
    | Some c1 -> (
        match int_of_string_opt (String.sub line plen (c1 - plen)) with
        | None -> None
        | Some oseq ->
            let tpfx = "\"ts_ns\":" in
            let tlen = String.length tpfx in
            let tstart = c1 + 1 in
            if n < tstart + tlen || String.sub line tstart tlen <> tpfx then
              None
            else
              (match String.index_from_opt line (tstart + tlen) ',' with
              | None -> None
              | Some c2 ->
                  let body = String.sub line c2 (n - 1 - c2) in
                  Some (oseq, Printf.sprintf "%s,\"oseq\":%d}" body oseq)))

(* --- reading a stream back -------------------------------------------- *)

type parsed = {
  p_seq : int;
  p_ts_ns : int;
  p_event : event;
  p_origin : origin option;
}

let parse_line line =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* j = Json.parse line in
  let req name =
    match Json.member name j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "events: missing field %S" name)
  in
  let int_f name =
    let* v = req name in
    match Json.int v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "events: field %S is not an int" name)
  in
  let str_f name =
    let* v = req name in
    match Json.str v with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "events: field %S is not a string" name)
  in
  let flt_f name =
    let* v = req name in
    match Json.num v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "events: field %S is not a number" name)
  in
  let* seq = int_f "seq" in
  let* ts = int_f "ts_ns" in
  let* ty = str_f "type" in
  let* ev =
    match ty with
    | "campaign_started" ->
        let* design = str_f "design" in
        let* faults = int_f "faults" in
        let* workers = int_f "workers" in
        Ok (Campaign_started { design; faults; workers })
    | "campaign_progress" ->
        let* design = str_f "design" in
        let* completed = int_f "completed" in
        let* total = int_f "total" in
        let* wrong = int_f "wrong" in
        Ok (Campaign_progress { design; completed; total; wrong })
    | "campaign_ci" ->
        let* design = str_f "design" in
        let* n = int_f "n" in
        let* wrong = int_f "wrong" in
        let* confidence = flt_f "confidence" in
        let* lo = flt_f "lo" in
        let* hi = flt_f "hi" in
        Ok (Campaign_ci { design; n; wrong; confidence; lo; hi })
    | "campaign_stopped" ->
        let* design = str_f "design" in
        let* requested = int_f "requested" in
        let* injected = int_f "injected" in
        let* wrong = int_f "wrong" in
        let* wall_ns = int_f "wall_ns" in
        Ok (Campaign_stopped { design; requested; injected; wrong; wall_ns })
    | "campaign_detection" ->
        let* design = str_f "design" in
        let* silent_correct = int_f "silent_correct" in
        let* detected_corrected = int_f "detected_corrected" in
        let* detected_wrong = int_f "detected_wrong" in
        let* silent_wrong = int_f "silent_wrong" in
        Ok
          (Campaign_detection
             { design; silent_correct; detected_corrected; detected_wrong;
               silent_wrong })
    | "batch_dispatched" ->
        let* design = str_f "design" in
        let* lanes = int_f "lanes" in
        Ok (Batch_dispatched { design; lanes })
    | "worker_heartbeat" ->
        let* worker = int_f "worker" in
        let* busy_ns = int_f "busy_ns" in
        let* idle_ns = int_f "idle_ns" in
        let* items = int_f "items" in
        Ok (Worker_heartbeat { worker; busy_ns; idle_ns; items })
    | "plan_paths" ->
        let* design = str_f "design" in
        let* silent = int_f "silent" in
        let* patched = int_f "patched" in
        let* rerouted = int_f "rerouted" in
        let* rebuilt = int_f "rebuilt" in
        let* diffed = int_f "diffed" in
        let* converged = int_f "converged" in
        let* batched = int_f "batched" in
        Ok
          (Plan_paths
             { design; silent; patched; rerouted; rebuilt; diffed; converged; batched })
    | "manifest_written" ->
        let* design = str_f "design" in
        let* path = str_f "path" in
        Ok (Manifest_written { design; path })
    | "shard_done" ->
        let* design = str_f "design" in
        let* shard = int_f "shard" in
        let* lo = int_f "lo" in
        let* hi = int_f "hi" in
        let* wrong = int_f "wrong" in
        let* pending = int_f "pending" in
        Ok (Shard_done { design; shard; lo; hi; wrong; pending })
    | "job_queued" ->
        let* job = str_f "job" in
        let* design = str_f "design" in
        Ok (Job_queued { job; design })
    | "job_started" ->
        let* job = str_f "job" in
        let* design = str_f "design" in
        Ok (Job_started { job; design })
    | "job_done" ->
        let* job = str_f "job" in
        let* design = str_f "design" in
        let* injected = int_f "injected" in
        let* wrong = int_f "wrong" in
        let* wall_ns = int_f "wall_ns" in
        Ok (Job_done { job; design; injected; wrong; wall_ns })
    | other -> Error (Printf.sprintf "events: unknown event type %S" other)
  in
  let origin =
    match Json.member "origin" j with
    | None -> None
    | Some o ->
        let geti k d =
          match Option.bind (Json.member k o) Json.int with
          | Some v -> v
          | None -> d
        in
        let gets k d =
          match Option.bind (Json.member k o) Json.str with
          | Some v -> v
          | None -> d
        in
        (* relayed lines carry the worker-local seq as top-level "oseq";
           a raw spool line's own seq is already worker-local *)
        let o_seq =
          match Option.bind (Json.member "oseq" j) Json.int with
          | Some v -> v
          | None -> seq
        in
        Some
          {
            o_pid = geti "pid" 0;
            o_worker = geti "worker" 0;
            o_shard = geti "shard" (-1);
            o_job = gets "job" "";
            o_seq;
          }
  in
  Ok { p_seq = seq; p_ts_ns = ts; p_event = ev; p_origin = origin }
