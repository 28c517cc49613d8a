type event =
  | Campaign_started of { design : string; faults : int; workers : int }
  | Campaign_progress of {
      design : string;
      completed : int;
      total : int;
      wrong : int;
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

let type_name = function
  | Campaign_started _ -> "campaign_started"
  | Campaign_progress _ -> "campaign_progress"
  | Campaign_stopped _ -> "campaign_stopped"
  | Campaign_detection _ -> "campaign_detection"
  | Batch_dispatched _ -> "batch_dispatched"
  | Worker_heartbeat _ -> "worker_heartbeat"
  | Plan_paths _ -> "plan_paths"
  | Manifest_written _ -> "manifest_written"
  | Shard_done _ -> "shard_done"

(* Everything after the "ts_ns" field: ,"type":...,<fields>} — built by
   the producer outside the sink lock; seq and ts are prepended under
   it. *)
let payload_of ev =
  let b = Buffer.create 160 in
  Buffer.add_string b (Printf.sprintf ",\"type\":%S" (type_name ev));
  let str k v = Buffer.add_string b (Printf.sprintf ",\"%s\":\"%s\"" k (Jsonl.escape v)) in
  let int k v = Buffer.add_string b (Printf.sprintf ",\"%s\":%d" k v) in
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
  | Plan_paths { design; silent; patched; rerouted; rebuilt; diffed; batched } ->
      str "design" design;
      int "silent" silent;
      int "patched" patched;
      int "rerouted" rerouted;
      int "rebuilt" rebuilt;
      int "diffed" diffed;
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
      int "pending" pending);
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

(* --- the sink ---------------------------------------------------------- *)

(* Every stream has one writer: a {!Jsonl} sink whose every line is
   appended and flushed under its mutex ({!Jsonl.append}), with [seq]
   assigned under the same lock.  Nothing is queued, so nothing can be
   dropped and [seq] is dense by construction; a reader tailing the file
   never waits on a buffer. *)
let sink = Jsonl.make ()

(* the next seq; survives [close], so [published] still counts a
   closed stream's events *)
let next_seq = Atomic.make 0

let enabled () = Jsonl.enabled sink
let published () = Atomic.get next_seq

(* seq and ts are taken under the lock that orders the lines, so
   timestamp order matches sequence order *)
let publish_payload payload =
  Jsonl.append sink (fun () ->
      let seq = Atomic.fetch_and_add next_seq 1 in
      Printf.sprintf "{\"seq\":%d,\"ts_ns\":%d%s" seq (Clock.now_ns ()) payload)

let publish ev = if enabled () then publish_payload (stamped_payload ev)

(* a new stream numbers from 0; reset first, so nobody can publish into
   the new sink under an old number *)
let to_file path =
  Atomic.set next_seq 0;
  Jsonl.to_file sink path

let spool ~path ~worker ~job =
  set_context ~worker ~job;
  to_file path

(* A forked child's inherited sink belongs to the parent (channel buffer,
   file offset, and a mutex a parent thread may have held), so a child
   forgets it before doing anything else. *)
let detach () =
  Jsonl.detach sink;
  clear_context ()

let close () =
  Jsonl.close sink;
  clear_context ()

(* --- reading a stream back -------------------------------------------- *)

type parsed = {
  p_seq : int;
  p_ts_ns : int;
  p_event : event;
  p_origin : origin option;
}

(* The tree comes back too, for {!respool_line}'s top-level key check. *)
let parse_tree line =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* j = Json.parse line in
  let field obj what conv name =
    match Json.member name obj with
    | None -> Error (Printf.sprintf "events: missing field %S" name)
    | Some v -> (
        match conv v with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "events: field %S is not %s" name what))
  in
  let int_f = field j "an int" Json.int in
  let str_f = field j "a string" Json.str in
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
        let* batched = int_f "batched" in
        Ok
          (Plan_paths
             { design; silent; patched; rerouted; rebuilt; diffed; batched })
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
    | other -> Error (Printf.sprintf "events: unknown event type %S" other)
  in
  (* relayed lines carry the worker-local seq as top-level "oseq"; a
     raw spool line's own seq is already worker-local *)
  let* oseq =
    match Json.member "oseq" j with
    | None -> Ok seq
    | Some _ -> int_f "oseq"
  in
  (* [origin_suffix] always writes all four fields, so anything less is
     not a line this module wrote *)
  let* origin =
    match Json.member "origin" j with
    | None -> Ok None
    | Some (Json.Obj _ as o) ->
        let* o_pid = field o "an int" Json.int "pid" in
        let* o_worker = field o "an int" Json.int "worker" in
        let* o_shard = field o "an int" Json.int "shard" in
        let* o_job = field o "a string" Json.str "job" in
        Ok (Some { o_pid; o_worker; o_shard; o_job; o_seq = oseq })
    | Some _ -> Error "events: field \"origin\" is not an object"
  in
  Ok (j, { p_seq = seq; p_ts_ns = ts; p_event = ev; p_origin = origin })

let parse_line line = Result.map snd (parse_tree line)

(* A write can be read half-copied when it spans a page boundary, and
   SIGKILL can tear a stream's last line, so a trailing line without its
   newline is left unread, the channel back at its start. *)
let input_whole_line ic =
  let at = pos_in ic in
  match input_line ic with
  | line when pos_in ic - at > String.length line -> Some line
  | _ ->
      seek_in ic at;
      None
  | exception End_of_file -> None

(* --- re-sequencing spooled lines -------------------------------------- *)

(* Turn one spool line back into a payload for {!publish_payload}: strip
   the worker-local "seq"/"ts_ns" prefix (the parent's sink assigns fresh
   ones) and append the worker-local sequence number as "oseq", so
   per-origin density is still checkable on the merged stream.  Only a
   line that parses, carries an origin and has no "oseq" yet is relayed,
   and only in the canonical prefix form this module writes — so every
   relayed line parses again, with [o_seq] the worker-local seq. *)
let respool_line line =
  match parse_tree line with
  | Ok (j, { p_seq; p_origin = Some _; _ }) when Json.member "oseq" j = None ->
      let pfx = Printf.sprintf "{\"seq\":%d,\"ts_ns\":" p_seq in
      let n = String.length line and plen = String.length pfx in
      if n > plen && String.sub line 0 plen = pfx && line.[n - 1] = '}' then
        match String.index_from_opt line plen ',' with
        | Some c ->
            let body = String.sub line c (n - 1 - c) in
            Some (p_seq, Printf.sprintf "%s,\"oseq\":%d}" body p_seq)
        | None -> None
      else None
  | Ok _ | Error _ -> None
