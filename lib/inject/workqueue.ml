module Json = Tmr_obs.Json

(* [rbuf] is the buffer results files are read into, reused from shard
   to shard: a fresh string per shard is one large major-heap block
   each, and the merge reads them back to back *)
type t = {
  root : string;
  mutable rbuf : Bytes.t;
}

let dir t = t.root

let subdirs = [ "todo"; "claims"; "done"; "results" ]

let mkdir_p path =
  let rec make p =
    if p <> "/" && p <> "." && not (Sys.file_exists p) then begin
      make (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  make path

let create ~dir =
  mkdir_p dir;
  List.iter (fun d -> mkdir_p (Filename.concat dir d)) subdirs;
  { root = dir; rbuf = Bytes.empty }

let path t parts = List.fold_left Filename.concat t.root parts
let id_name id = Printf.sprintf "%05d.json" id
let results_name id = Printf.sprintf "%05d.rec" id
let claim_name id pid = Printf.sprintf "%05d.pid-%d.json" id pid

(* Canonical per-worker telemetry paths inside the queue directory.
   Defined here so the forking parent (Service), the workers and any
   post-hoc reader (tests, CI) agree on the layout without threading
   paths around. *)
let spool_path t ~worker =
  Filename.concat t.root (Printf.sprintf "events-w%d.jsonl" worker)

let metrics_path t ~worker =
  Filename.concat t.root (Printf.sprintf "metrics-w%d.json" worker)

let trace_path t ~worker =
  Filename.concat t.root (Printf.sprintf "trace-w%d.jsonl" worker)

(* Atomic whole-file write: tmp in the same directory, then rename. *)
let write_with ~final write =
  let tmp = final ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> write oc);
  Sys.rename tmp final

let write_file ~final body =
  write_with ~final (fun oc -> output_string oc body)

let read_file p =
  let ic = open_in_bin p in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Job spec. *)

let job_path t = Filename.concat t.root "job.json"
let write_job t j = write_file ~final:(job_path t) (Json.to_string j ^ "\n")

let read_job t =
  if not (Sys.file_exists (job_path t)) then None
  else
    Some
      (try Json.parse (read_file (job_path t))
       with Sys_error e -> Error e)

(* ------------------------------------------------------------------ *)
(* Range files. *)

let range_to_json (r : Shard.range) =
  Json.Obj
    [
      ("id", Json.Num (float_of_int r.Shard.sh_id));
      ("lo", Json.Num (float_of_int r.Shard.sh_lo));
      ("hi", Json.Num (float_of_int r.Shard.sh_hi));
    ]

let range_of_json j =
  match
    ( Option.bind (Json.member "id" j) Json.int,
      Option.bind (Json.member "lo" j) Json.int,
      Option.bind (Json.member "hi" j) Json.int )
  with
  | Some sh_id, Some sh_lo, Some sh_hi -> Ok { Shard.sh_id; sh_lo; sh_hi }
  | _ -> Error "range file missing id/lo/hi"

(* claim file name -> (id, pid) *)
let parse_claim name =
  match String.index_opt name '.' with
  | Some dot -> (
      let id = int_of_string_opt (String.sub name 0 dot) in
      let rest = String.sub name dot (String.length name - dot) in
      let pfx = ".pid-" and sfx = ".json" in
      if
        String.length rest > String.length pfx + String.length sfx
        && String.sub rest 0 (String.length pfx) = pfx
        && Filename.check_suffix rest sfx
      then
        let pid =
          int_of_string_opt
            (String.sub rest (String.length pfx)
               (String.length rest - String.length pfx - String.length sfx))
        in
        match (id, pid) with
        | Some id, Some pid -> Some (id, pid)
        | _ -> None
      else None)
  | None -> None

(* The shard id a file of subdirectory [sub] stands for, only when its
   name has exactly that subdirectory's shape ([id_name], [claim_name],
   [results_name]): a [write_file] tmp a killed worker left behind, or
   any stray file, names no shard. *)
let id_of_name sub name =
  let prefix =
    Option.bind (String.index_opt name '.') (fun dot ->
        int_of_string_opt (String.sub name 0 dot))
  in
  match (sub, prefix) with
  | "claims", _ -> (
      match parse_claim name with
      | Some (id, pid) when claim_name id pid = name -> Some id
      | _ -> None)
  | "results", Some id when results_name id = name -> Some id
  | ("todo" | "done"), Some id when id_name id = name -> Some id
  | _ -> None

let ids_in t sub =
  Array.fold_left
    (fun acc name ->
      match id_of_name sub name with Some id -> id :: acc | None -> acc)
    []
    (Sys.readdir (path t [ sub ]))

(* a results file without its done manifest is an unfinished shard:
   pending, claimed and done ids are taken, results alone are not *)
let seed t ranges =
  let taken =
    List.concat_map (ids_in t) [ "todo"; "claims"; "done" ]
    |> List.sort_uniq compare
  in
  let added = ref 0 in
  List.iter
    (fun (r : Shard.range) ->
      if not (List.mem r.Shard.sh_id taken) then begin
        write_file
          ~final:(path t [ "todo"; id_name r.Shard.sh_id ])
          (Json.to_string (range_to_json r) ^ "\n");
        incr added
      end)
    ranges;
  !added

let claim t ~pid =
  (* lowest id first: merged output order then matches plan order and the
     early shards (which gate resume progress) finish first *)
  let rec try_ids = function
    | [] -> None
    | id :: rest -> (
        let src = path t [ "todo"; id_name id ] in
        let dst = path t [ "claims"; claim_name id pid ] in
        match Unix.rename src dst with
        | () -> (
            match range_of_json (Json.parse_exn (read_file dst)) with
            | Ok r -> Some r
            | Error e -> failwith ("Workqueue.claim: " ^ e)
            | exception Failure e -> failwith ("Workqueue.claim: " ^ e))
        | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
            (* another worker won the rename race; take the next id *)
            try_ids rest)
  in
  try_ids (List.sort compare (ids_in t "todo"))

let complete t ~pid (r : Shard.range) ~results ~manifest =
  let b = Bytes.create (Shard.record_bytes * Array.length results) in
  Array.iteri
    (fun i res -> Shard.put_record b (Shard.record_bytes * i) res)
    results;
  write_with
    ~final:(path t [ "results"; results_name r.Shard.sh_id ])
    (fun oc -> output_bytes oc b);
  write_file
    ~final:(path t [ "done"; id_name r.Shard.sh_id ])
    (Json.to_string (Shard.manifest_to_json manifest) ^ "\n");
  (* the claim falls only after both artifacts are durable: a crash in
     between leaves the claim for reclaim, which re-runs the shard and
     harmlessly rewrites the same bytes *)
  try Sys.remove (path t [ "claims"; claim_name r.Shard.sh_id pid ])
  with Sys_error _ -> ()

(* a zombie still answers kill(pid, 0) but will never complete its
   claim — when the parent died first (kill -9 of a whole process
   group) the worker can linger unreaped, so check its state too *)
let zombie pid =
  match
    let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> input_line ic)
  with
  | line -> (
      (* state is the first field after the parenthesised command, which
         may itself contain ')' — scan from the right *)
      match String.rindex_opt line ')' with
      | Some i when i + 2 < String.length line -> line.[i + 2] = 'Z'
      | _ -> false)
  | exception Sys_error _ -> false

let alive pid =
  match Unix.kill pid 0 with
  | () -> not (zombie pid)
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error (Unix.EPERM, _, _) -> true

let reclaim_orphans t =
  Array.fold_left
    (fun acc name ->
      match parse_claim name with
      | Some (id, pid) when not (alive pid) -> (
          match
            Unix.rename
              (path t [ "claims"; name ])
              (path t [ "todo"; id_name id ])
          with
          | () -> acc + 1
          | exception Unix.Unix_error (Unix.ENOENT, _, _) -> acc)
      | _ -> acc)
    0
    (Sys.readdir (path t [ "claims" ]))

(* ------------------------------------------------------------------ *)
(* Reading back. *)

(* a manifest still being written (its tmp file) is not done yet *)
let done_ids t = List.sort_uniq compare (ids_in t "done")

let load_manifest t id =
  let p = path t [ "done"; id_name id ] in
  match Result.bind (Json.parse (read_file p)) Shard.manifest_of_json with
  | Ok m -> Ok m
  | Error e -> Error (Printf.sprintf "%s: %s" p e)
  | exception Sys_error e -> Error e

let load_done t =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | id :: rest -> (
        match load_manifest t id with
        | Ok m -> go (m :: acc) rest
        | Error e -> Error e)
  in
  go [] (done_ids t)

let read_results t (m : Shard.manifest) =
  let p = path t [ "results"; results_name m.Shard.sm_id ] in
  match
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = in_channel_length ic in
        (* shards differ in size by a record or so: room for twice the
           first one spares the rest a reallocation *)
        if Bytes.length t.rbuf < n then t.rbuf <- Bytes.create (2 * n);
        really_input ic t.rbuf 0 n;
        n)
  with
  | exception Sys_error e -> Error e
  | exception End_of_file -> Error (p ^ ": truncated while reading")
  | len ->
      Shard.records_of_bytes t.rbuf ~len ~count:(m.Shard.sm_hi - m.Shard.sm_lo)
      |> Result.map_error (Printf.sprintf "%s: %s" p)

let pending t = List.length (ids_in t "todo") + List.length (ids_in t "claims")
