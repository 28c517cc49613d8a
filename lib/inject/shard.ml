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
(* Per-fault result lines.  One compact JSON object per fault; the
   concatenation over all shards in index order is the canonical result
   stream the CI byte-diffs across process counts.  The encoder writes
   straight into a buffer and the decoder scans exactly that shape in
   place: the lines are the bulk of what a sharded run writes and reads
   back. *)

let outcome_name = function
  | Campaign.Silent -> "silent"
  | Campaign.Wrong_answer -> "wrong_answer"

(* decimal digits of [n], as [string_of_int] writes them *)
let rec add_int b n =
  if n < 0 then
    if n = min_int then Buffer.add_string b (string_of_int n)
    else begin
      Buffer.add_char b '-';
      add_int b (-n)
    end
  else begin
    if n >= 10 then add_int b (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
  end

let add_result_line b ~index (r : Campaign.fault_result) =
  Buffer.add_string b "{\"index\":";
  add_int b index;
  Buffer.add_string b ",\"bit\":";
  add_int b r.Campaign.bit;
  Buffer.add_string b ",\"outcome\":\"";
  Buffer.add_string b (outcome_name r.Campaign.outcome);
  Buffer.add_string b "\",\"effect\":\"";
  Buffer.add_string b (Classify.name r.Campaign.effect);
  Buffer.add_string b "\",\"first_error_cycle\":";
  add_int b r.Campaign.first_error_cycle;
  Buffer.add_string b ",\"detect_cycle\":";
  add_int b r.Campaign.detect_cycle;
  Buffer.add_char b '}'

let result_to_line ~index r =
  let b = Buffer.create 128 in
  add_result_line b ~index r;
  Buffer.contents b

exception Bad_line of string

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

let outcome_tokens =
  List.map
    (fun o -> ("\"" ^ outcome_name o ^ "\"", o))
    [ Campaign.Silent; Campaign.Wrong_answer ]

let effect_tokens =
  List.map (fun e -> ("\"" ^ Classify.name e ^ "\"", e)) Classify.all

(* One result line: the bytes [pos, stop) of [s], fields in the written
   order with nothing between them.  Raises [Bad_line]. *)
let scan_result s pos stop =
  let p = ref pos in
  let bad fmt =
    Printf.ksprintf (fun m -> raise (Bad_line m)) ("byte %d: " ^^ fmt)
      (!p - pos)
  in
  let at lit =
    let n = String.length lit in
    !p + n <= stop
    &&
    let rec same k = k = n || (s.[!p + k] = lit.[k] && same (k + 1)) in
    same 0
  in
  let expect lit =
    if at lit then p := !p + String.length lit else bad "expected %S" lit
  in
  let token what tokens =
    match List.find_opt (fun (lit, _) -> at lit) tokens with
    | Some (lit, v) ->
        p := !p + String.length lit;
        v
    | None -> bad "unknown %s" what
  in
  (* [-]digits, no leading zero, no "-0", within [min_int, max_int];
     accumulated negatively so that [min_int] fits *)
  let int () =
    let neg = !p < stop && s.[!p] = '-' in
    if neg then incr p;
    let first = !p in
    let acc = ref 0 in
    while !p < stop && s.[!p] >= '0' && s.[!p] <= '9' do
      let d = Char.code s.[!p] - 48 in
      if !acc < (min_int + d) / 10 then bad "integer overflow";
      acc := (!acc * 10) - d;
      incr p
    done;
    let len = !p - first in
    if len = 0 then bad "expected a decimal integer"
    else if len > 1 && s.[first] = '0' then bad "leading zero"
    else if neg then (if !acc = 0 then bad "negative zero" else !acc)
    else if !acc = min_int then bad "integer overflow"
    else - !acc
  in
  expect "{\"index\":";
  let index = int () in
  expect ",\"bit\":";
  let bit = int () in
  expect ",\"outcome\":";
  let outcome = token "outcome" outcome_tokens in
  expect ",\"effect\":";
  let effect = token "effect" effect_tokens in
  expect ",\"first_error_cycle\":";
  let first_error_cycle = int () in
  expect ",\"detect_cycle\":";
  let detect_cycle = int () in
  expect "}";
  if !p <> stop then bad "trailing bytes";
  ( index,
    {
      Campaign.bit;
      outcome;
      effect;
      first_error_cycle;
      detect_cycle;
      forensics = None;
    } )

let result_of_line line =
  match scan_result line 0 (String.length line) with
  | r -> Ok r
  | exception Bad_line e -> Error e

let results_of_bytes buf ~len:n =
  (* scanned in place; nothing below writes [buf] *)
  let body = Bytes.unsafe_to_string buf in
  let lines = ref 0 in
  for i = 0 to n - 1 do
    if body.[i] = '\n' then incr lines
  done;
  if n > 0 && body.[n - 1] <> '\n' then Error "last line has no newline"
  else
    let out = Array.make !lines (0, no_result) in
    let rec go k pos =
      if k = !lines then Ok out
      else
        let stop = String.index_from body pos '\n' in
        match scan_result body pos stop with
        | r ->
            out.(k) <- r;
            go (k + 1) (stop + 1)
        | exception Bad_line e -> Error (Printf.sprintf "line %d: %s" (k + 1) e)
    in
    go 0 0

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
            ("converged", i m.sm_stats.Campaign.converged);
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
  let* converged = field "converged" Json.int stats in
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
          converged;
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
    converged = a.Campaign.converged + b.Campaign.converged;
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
  let results = Array.make total no_result in
  let filled = Bytes.make total '\000' in
  let place m (i, r) =
    if i < m.sm_lo || i >= m.sm_hi then
      fail "shard %d result index %d outside [%d,%d)" m.sm_id i m.sm_lo
        m.sm_hi
    else if Bytes.get filled i <> '\000' then
      fail "duplicate result index %d" i
    else begin
      Bytes.set filled i '\001';
      results.(i) <- r;
      Ok ()
    end
  in
  let* () =
    List.fold_left
      (fun acc (m, rs) ->
        let* () = acc in
        if Array.length rs <> m.sm_hi - m.sm_lo then
          fail "shard %d holds %d results for range [%d,%d)" m.sm_id
            (Array.length rs) m.sm_lo m.sm_hi
        else
          Array.fold_left
            (fun acc ir ->
              let* () = acc in
              place m ir)
            (Ok ()) rs)
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
