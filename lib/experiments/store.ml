module Campaign = Tmr_inject.Campaign
module Classify = Tmr_inject.Classify
module Shard = Tmr_inject.Shard
module Json = Tmr_obs.Json

type entry = {
  e_design : string;
  e_scale : string;
  e_seed : int;
  e_voter : string;
  e_exhaustive : bool;
  e_faults : int;
  e_wrong : int;
  e_verdicts : Campaign.detection_counts;
  e_wrong_by_effect : (Classify.effect * int) list;
  e_digest : string;
  e_wrong_bits : int array;
  e_tool_version : string;
  e_git_commit : string;
}

let scale_name = function
  | Context.Paper -> "paper"
  | Context.Reduced -> "reduced"

let tool_version = "0.10.0"

(* Best-effort: runs from a tarball or without git still get entries.
   An uncommitted tree is not the commit it started from: [--dirty]
   marks it. *)
let git_commit =
  lazy
    (try
       let ic =
         Unix.open_process_in
           "git describe --always --dirty --abbrev=7 2>/dev/null"
       in
       let line = try input_line ic with End_of_file -> "" in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 when line <> "" -> line
       | _ -> "unknown"
     with _ -> "unknown")

let version_string () =
  Printf.sprintf "tmrtool %s (git %s)" tool_version (Lazy.force git_commit)

(* The per-bit verdicts, one {!Shard.put_record} record per fault in
   fault-list order.  Records are packed into a chunk of
   [chunk_records] behind the 16-byte running digest, and each chunk,
   the last (partial) one included, is replaced by its MD5: memory
   stays one chunk whatever the run's size. *)
let chunk_records = (1 lsl 16) / Shard.record_bytes

let verdict_digest (results : Campaign.fault_result array) =
  let buf = Bytes.make (16 + (chunk_records * Shard.record_bytes)) '\000' in
  let fill = ref 16 in
  let flush () =
    Bytes.blit_string (Digest.subbytes buf 0 !fill) 0 buf 0 16;
    fill := 16
  in
  Array.iter
    (fun r ->
      Shard.put_record buf !fill r;
      fill := !fill + Shard.record_bytes;
      if !fill = Bytes.length buf then flush ())
    results;
  flush ();
  Digest.to_hex (Bytes.sub_string buf 0 16)

let of_run ?forensics:_ ?(exhaustive = false) (ctx : Context.t)
    (run : Runs.design_run) =
  let c =
    match run.Runs.campaign with
    | Some c -> c
    | None -> invalid_arg "Store.of_run: design run has no campaign"
  in
  let results = c.Campaign.results in
  let verdicts = Campaign.detection_counts c in
  let by_effect = List.map (fun e -> (e, ref 0)) Classify.all in
  let wrong_bits =
    Array.make
      (verdicts.Campaign.dc_detected_wrong + verdicts.Campaign.dc_silent_wrong)
      0
  in
  let k = ref 0 in
  Array.iter
    (fun (r : Campaign.fault_result) ->
      if r.Campaign.outcome = Campaign.Wrong_answer then begin
        wrong_bits.(!k) <- r.Campaign.bit;
        incr k;
        incr (List.assq r.Campaign.effect by_effect)
      end)
    results;
  Array.sort Int.compare wrong_bits;
  {
    e_design = Tmr_core.Partition.name run.Runs.strategy;
    e_scale = scale_name ctx.Context.scale;
    e_seed = ctx.Context.seed;
    e_voter = Tmr_core.Voter.name run.Runs.voter;
    e_exhaustive = exhaustive;
    e_faults = Array.length results;
    e_wrong = Array.length wrong_bits;
    e_verdicts = verdicts;
    e_wrong_by_effect = List.map (fun (e, n) -> (e, !n)) by_effect;
    e_digest = verdict_digest results;
    e_wrong_bits = wrong_bits;
    e_tool_version = tool_version;
    e_git_commit = Lazy.force git_commit;
  }

(* the entry as JSON fields, in record order *)
let fields e =
  let int i = Json.Num (float_of_int i) in
  let v = e.e_verdicts in
  [
    ("design", Json.Str e.e_design);
    ("scale", Json.Str e.e_scale);
    ("seed", int e.e_seed);
    ("voter", Json.Str e.e_voter);
    ("exhaustive", Json.Bool e.e_exhaustive);
    ("faults", int e.e_faults);
    ("wrong", int e.e_wrong);
    ( "verdicts",
      Json.Obj
        [
          ("silent_correct", int v.Campaign.dc_silent_correct);
          ("detected_corrected", int v.Campaign.dc_detected_corrected);
          ("detected_wrong", int v.Campaign.dc_detected_wrong);
          ("silent_wrong", int v.Campaign.dc_silent_wrong);
        ] );
    ( "wrong_by_effect",
      Json.Obj
        (List.map (fun (eff, n) -> (Classify.name eff, int n))
           e.e_wrong_by_effect) );
    ("verdict_digest", Json.Str e.e_digest);
    ("wrong_bits", Json.Arr (Array.to_list (Array.map int e.e_wrong_bits)));
    ("tool_version", Json.Str e.e_tool_version);
    ("git_commit", Json.Str e.e_git_commit);
  ]

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let file_name e =
  Printf.sprintf "%s-%s-seed%d-%s-%s.json" e.e_design e.e_scale e.e_seed
    (if e.e_exhaustive then "exhaustive" else string_of_int e.e_faults)
    e.e_voter

let save ~dir e =
  mkdir_p dir;
  let path = Filename.concat dir (file_name e) in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc "{\n";
      List.iteri
        (fun i (key, v) ->
          if i > 0 then output_string oc ",\n";
          Printf.fprintf oc "  %s: %s" (Json.to_string (Json.Str key))
            (Json.to_string v))
        (fields e);
      output_string oc "\n}\n");
  Unix.rename tmp path;
  Tmr_obs.Events.publish
    (Tmr_obs.Events.Manifest_written { design = e.e_design; path });
  path
