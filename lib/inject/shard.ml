module Json = Tmr_obs.Json

type range = {
  sh_id : int;
  sh_lo : int;
  sh_hi : int;
}

let plan ~total ~shards =
  if shards <= 0 then invalid_arg "Shard.plan: shards must be positive";
  if total < 0 then invalid_arg "Shard.plan: negative total";
  let n = min shards total in
  let base = if n = 0 then 0 else total / n in
  let rem = if n = 0 then 0 else total mod n in
  Array.init n (fun i ->
      (* the first [rem] shards carry one extra fault *)
      let lo = (i * base) + min i rem in
      let hi = lo + base + (if i < rem then 1 else 0) in
      { sh_id = i; sh_lo = lo; sh_hi = hi })

let ranges_missing ~total ~done_ids ~shards =
  Array.to_list (plan ~total ~shards)
  |> List.filter (fun r -> not (done_ids r.sh_id))

(* ------------------------------------------------------------------ *)
(* Per-fault result lines: one compact JSON object per fault, the
   merged-output format. *)

let outcome_name = function
  | Campaign.Silent -> "silent"
  | Campaign.Wrong_answer -> "wrong_answer"

let result_to_line ~index (r : Campaign.fault_result) =
  Printf.sprintf
    "{\"index\":%d,\"bit\":%d,\"outcome\":\"%s\",\"effect\":\"%s\",\"first_error_cycle\":%d,\"detect_cycle\":%d}"
    index r.Campaign.bit (outcome_name r.Campaign.outcome)
    (Classify.name r.Campaign.effect) r.Campaign.first_error_cycle
    r.Campaign.detect_cycle

(* ------------------------------------------------------------------ *)
(* Verdict records: one fixed-size record per fault, the bit (int64),
   the outcome (one byte: 0 silent, 1 wrong answer), the effect (one
   byte: its position in [Classify.all]), then the first-error and
   detect cycles (int32 each), little-endian.  A shard's results file is
   its records in fault-index order, and the fault dictionary's digest
   chains over the same records. *)

let record_bytes = 18
let effects = Array.of_list Classify.all

let effect_code e =
  let rec find i = if effects.(i) = e then i else find (i + 1) in
  find 0

let put_cycle buf pos c =
  if c < Int32.to_int Int32.min_int || c > Int32.to_int Int32.max_int then
    invalid_arg "Shard.put_record: cycle outside the int32 range";
  Bytes.set_int32_le buf pos (Int32.of_int c)

let put_record buf pos (r : Campaign.fault_result) =
  Bytes.set_int64_le buf pos (Int64.of_int r.Campaign.bit);
  Bytes.set_uint8 buf (pos + 8)
    (match r.Campaign.outcome with
    | Campaign.Silent -> 0
    | Campaign.Wrong_answer -> 1);
  Bytes.set_uint8 buf (pos + 9) (effect_code r.Campaign.effect);
  put_cycle buf (pos + 10) r.Campaign.first_error_cycle;
  put_cycle buf (pos + 14) r.Campaign.detect_cycle

(* placeholder of the arrays results are read or merged into *)
let no_result =
  {
    Campaign.bit = -1;
    outcome = Campaign.Silent;
    effect = Classify.Other_effect;
    first_error_cycle = -1;
    detect_cycle = -1;
    forensics = None;
  }

let records_of_bytes buf ~len ~count =
  if len <> count * record_bytes then
    Error
      (Printf.sprintf "%d bytes, not %d records of %d bytes" len count
         record_bytes)
  else begin
    let out = Array.make count no_result in
    let bad k fmt = Printf.ksprintf Result.error ("record %d: " ^^ fmt) k in
    let rec go k =
      if k = count then Ok out
      else
        let pos = k * record_bytes in
        let bit = Bytes.get_int64_le buf pos in
        let oc = Bytes.get_uint8 buf (pos + 8) in
        let ec = Bytes.get_uint8 buf (pos + 9) in
        if oc > 1 then bad k "outcome code %d" oc
        else if ec >= Array.length effects then bad k "effect code %d" ec
        else if Int64.of_int (Int64.to_int bit) <> bit then
          bad k "bit %Ld outside the int range" bit
        else begin
          let fec = Bytes.get_int32_le buf (pos + 10) in
          let dc = Bytes.get_int32_le buf (pos + 14) in
          out.(k) <-
            {
              Campaign.bit = Int64.to_int bit;
              outcome =
                (if oc = 0 then Campaign.Silent else Campaign.Wrong_answer);
              effect = effects.(ec);
              first_error_cycle = Int32.to_int fec;
              detect_cycle = Int32.to_int dc;
              forensics = None;
            };
          go (k + 1)
        end
    in
    go 0
  end

let ( let* ) r f = Result.bind r f

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

(* ------------------------------------------------------------------ *)
(* Shard manifests. *)

type manifest = {
  sm_id : int;
  sm_lo : int;
  sm_hi : int;
  sm_wrong : int;
  sm_stats : Campaign.engine_stats;
  sm_wall_ns : int;
  sm_busy_ns : int;
  sm_setup_ns : int;
  sm_owner : int;
  sm_fingerprint : string;
}

let manifest_to_json m =
  let i n = Json.Num (float_of_int n) in
  Json.Obj
    [
      ("id", i m.sm_id);
      ("lo", i m.sm_lo);
      ("hi", i m.sm_hi);
      ("wrong", i m.sm_wrong);
      ( "stats",
        Json.Obj
          [
            ("skipped", i m.sm_stats.Campaign.skipped);
            ("patched", i m.sm_stats.Campaign.patched);
            ("rerouted", i m.sm_stats.Campaign.rerouted);
            ("rebuilt", i m.sm_stats.Campaign.rebuilt);
            ("diffed", i m.sm_stats.Campaign.diffed);
            ("batched", i m.sm_stats.Campaign.batched);
          ] );
      ("wall_ns", i m.sm_wall_ns);
      ("busy_ns", i m.sm_busy_ns);
      ("setup_ns", i m.sm_setup_ns);
      ("owner", i m.sm_owner);
      ("fingerprint", Json.Str m.sm_fingerprint);
    ]

let manifest_of_json j =
  let* sm_id = field "id" Json.int j in
  let* sm_lo = field "lo" Json.int j in
  let* sm_hi = field "hi" Json.int j in
  let* sm_wrong = field "wrong" Json.int j in
  let* stats = field "stats" Option.some j in
  let* skipped = field "skipped" Json.int stats in
  let* patched = field "patched" Json.int stats in
  let* rerouted = field "rerouted" Json.int stats in
  let* rebuilt = field "rebuilt" Json.int stats in
  let* diffed = field "diffed" Json.int stats in
  let* batched = field "batched" Json.int stats in
  let* sm_wall_ns = field "wall_ns" Json.int j in
  let* sm_busy_ns = field "busy_ns" Json.int j in
  let* sm_setup_ns = field "setup_ns" Json.int j in
  let* sm_owner = field "owner" Json.int j in
  let* sm_fingerprint = field "fingerprint" Json.str j in
  Ok
    {
      sm_id;
      sm_lo;
      sm_hi;
      sm_wrong;
      sm_stats =
        {
          Campaign.skipped;
          patched;
          rerouted;
          rebuilt;
          diffed;
          converged = 0;
          batched;
        };
      sm_wall_ns;
      sm_busy_ns;
      sm_setup_ns;
      sm_owner;
      sm_fingerprint;
    }

let manifest_of_campaign r ~fingerprint ~owner (c : Campaign.t) =
  {
    sm_id = r.sh_id;
    sm_lo = r.sh_lo;
    sm_hi = r.sh_hi;
    sm_wrong = c.Campaign.wrong;
    sm_stats = c.Campaign.stats;
    sm_wall_ns = c.Campaign.wall_ns;
    sm_busy_ns = Array.fold_left ( + ) 0 c.Campaign.busy_ns;
    sm_setup_ns = Array.fold_left ( + ) 0 c.Campaign.setup_ns;
    sm_owner = owner;
    sm_fingerprint = fingerprint;
  }

(* ------------------------------------------------------------------ *)
(* Merging. *)

let no_stats =
  {
    Campaign.skipped = 0;
    patched = 0;
    rerouted = 0;
    rebuilt = 0;
    diffed = 0;
    converged = 0;
    batched = 0;
  }

let add_stats (a : Campaign.engine_stats) (b : Campaign.engine_stats) =
  {
    Campaign.skipped = a.Campaign.skipped + b.Campaign.skipped;
    patched = a.Campaign.patched + b.Campaign.patched;
    rerouted = a.Campaign.rerouted + b.Campaign.rerouted;
    rebuilt = a.Campaign.rebuilt + b.Campaign.rebuilt;
    diffed = a.Campaign.diffed + b.Campaign.diffed;
    converged = 0;
    batched = a.Campaign.batched + b.Campaign.batched;
  }

(* Every check below reads data from disk, so a damaged shard directory
   is an [Error], never an exception. *)
let merge ~design ~total ~procs ~wall_ns shards =
  let shards =
    List.sort (fun (a, _) (b, _) -> compare a.sm_lo b.sm_lo) shards
  in
  let fail fmt = Printf.ksprintf (fun s -> Error ("Shard.merge: " ^ s)) fmt in
  (* the shards must tile [0, total) exactly *)
  let* edge =
    List.fold_left
      (fun expect (m, _) ->
        let* expect = expect in
        if m.sm_hi < m.sm_lo then
          fail "shard %d has an inverted range [%d,%d)" m.sm_id m.sm_lo m.sm_hi
        else if m.sm_lo <> expect then
          fail "shard %d covers [%d,%d) but [%d,...) is next uncovered"
            m.sm_id m.sm_lo m.sm_hi expect
        else Ok m.sm_hi)
      (Ok 0) shards
  in
  let* () =
    if edge <> total then
      fail "shards cover [0,%d) of %d faults" edge total
    else Ok ()
  in
  (* a shard's results sit at its range's indices, in order *)
  let results = Array.make total no_result in
  let* () =
    List.fold_left
      (fun acc (m, rs) ->
        let* () = acc in
        if Array.length rs <> m.sm_hi - m.sm_lo then
          fail "shard %d holds %d results for range [%d,%d)" m.sm_id
            (Array.length rs) m.sm_lo m.sm_hi
        else begin
          Array.blit rs 0 results m.sm_lo (Array.length rs);
          Ok ()
        end)
      (Ok ()) shards
  in
  let wrong =
    Array.fold_left
      (fun acc r ->
        if r.Campaign.outcome = Campaign.Wrong_answer then acc + 1 else acc)
      0 results
  in
  let manifest_wrong = List.fold_left (fun a (m, _) -> a + m.sm_wrong) 0 shards in
  let* () =
    if wrong <> manifest_wrong then
      fail "manifests claim %d wrong answers, results hold %d" manifest_wrong
        wrong
    else Ok ()
  in
  let stats =
    List.fold_left (fun a (m, _) -> add_stats a m.sm_stats) no_stats shards
  in
  let busy = List.fold_left (fun a (m, _) -> a + m.sm_busy_ns) 0 shards in
  let setup = List.fold_left (fun a (m, _) -> a + m.sm_setup_ns) 0 shards in
  let procs = max 1 procs in
  (* a resumed run's coordinator wall excludes the earlier invocations'
     work, so floor the wall at the summed shard walls spread over the
     processes — keeps the utilization ratio meaningful (<= ~1) *)
  let shard_wall =
    List.fold_left (fun a (m, _) -> a + m.sm_wall_ns) 0 shards
  in
  let wall_ns = max wall_ns ((shard_wall + procs - 1) / procs) in
  Ok
    {
      Campaign.design;
      requested = total;
      injected = total;
      wrong;
      results;
      workers = procs;
      stats;
      wall_ns;
      busy_ns = [| busy |];
      setup_ns = [| setup |];
    }
