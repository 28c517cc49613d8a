(* Sharded instruments: one atomic cell (or bucket array) per shard, shard
   picked by domain id.  Recorders therefore never share a cache line with
   another domain in the common case, and even on a slot collision
   [Atomic.fetch_and_add] keeps the totals exact.  The shard count is a
   power of two so the slot computation is a mask, not a division. *)

let nshards = 32

let slot () = (Domain.self () :> int) land (nshards - 1)

(* --- log buckets ----------------------------------------------------- *)

(* Geometric buckets with ratio 2^(1/3) (~1.26).  128 buckets cover
   [1, 2^43) ns — about 2.4 hours — before the catch-all last bucket.
   Small bounds are deduplicated by bumping (1,2,3,4,5,6,8,10,13,...). *)

let nbuckets = 128

let bounds =
  let b = Array.make nbuckets 0 in
  let prev = ref 0 in
  for i = 0 to nbuckets - 1 do
    let v = Float.to_int (Float.round (Float.pow 2.0 (float_of_int (i + 1) /. 3.0))) in
    let v = if v <= !prev then !prev + 1 else v in
    b.(i) <- v;
    prev := v
  done;
  b.(nbuckets - 1) <- max_int;
  b

(* smallest bucket whose upper bound is >= v *)
let bucket_of v =
  if v <= bounds.(0) then 0
  else begin
    let lo = ref 0 and hi = ref (nbuckets - 1) in
    (* invariant: bounds.(lo) < v <= bounds.(hi) *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if bounds.(mid) < v then lo := mid else hi := mid
    done;
    !hi
  end

(* --- instruments ----------------------------------------------------- *)

type counter = { c_shards : int Atomic.t array }
type gauge = { g_cell : float Atomic.t }

type histogram = {
  h_buckets : int Atomic.t array array;  (* shard -> bucket -> count *)
  h_count : int Atomic.t array;  (* shard *)
  h_sum : int Atomic.t array;  (* shard *)
  h_min : int Atomic.t array;  (* shard; max_int = no sample yet *)
  h_max : int Atomic.t array;  (* shard; min_int = no sample yet *)
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 32
let registry_mutex = Mutex.create ()

let intern name make =
  Mutex.lock registry_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_mutex)
    (fun () ->
      match Hashtbl.find_opt registry name with
      | Some i -> i
      | None ->
          let i = make () in
          Hashtbl.replace registry name i;
          i)

let atomic_row n = Array.init n (fun _ -> Atomic.make 0)
let sentinel_row n v = Array.init n (fun _ -> Atomic.make v)

let counter name =
  match intern name (fun () -> Counter { c_shards = atomic_row nshards }) with
  | Counter c -> c
  | _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a counter" name)

let gauge name =
  match intern name (fun () -> Gauge { g_cell = Atomic.make 0.0 }) with
  | Gauge g -> g
  | _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a gauge" name)

let histogram name =
  match
    intern name (fun () ->
        Histogram
          {
            h_buckets = Array.init nshards (fun _ -> atomic_row nbuckets);
            h_count = atomic_row nshards;
            h_sum = atomic_row nshards;
            h_min = sentinel_row nshards max_int;
            h_max = sentinel_row nshards min_int;
          })
  with
  | Histogram h -> h
  | _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a histogram" name)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c_shards.(slot ()) by)
let set g v = Atomic.set g.g_cell v

(* CAS races only against same-slot recorders (rare: slots are
   per-domain) and converges in one round trip in the common case where
   the extremum doesn't move. *)
let rec atomic_min a v =
  let cur = Atomic.get a in
  if v < cur && not (Atomic.compare_and_set a cur v) then atomic_min a v

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

(* Samples are capped at 2^53, the range in which a JSON number (a
   double) holds every integer exactly, so a snapshot always reads back
   ([of_json_string]) whatever was observed: a max of [max_int] would
   print as 2^62 - 1 and parse as 2^62, which is no [int]. *)
let max_sample = 1 lsl 53

let observe h v =
  let v = if v > max_sample then max_sample else v in
  let s = slot () in
  ignore (Atomic.fetch_and_add h.h_buckets.(s).(bucket_of v) 1);
  ignore (Atomic.fetch_and_add h.h_count.(s) 1);
  ignore (Atomic.fetch_and_add h.h_sum.(s) (max 0 v));
  atomic_min h.h_min.(s) v;
  atomic_max h.h_max.(s) v

(* --- snapshots ------------------------------------------------------- *)

type hist_summary = {
  count : int;
  sum : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  min : int;
  max : int;
  buckets : (int * int) array;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_summary) list;
}

let sum_row row = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 row

let merge_buckets h =
  let merged = Array.make nbuckets 0 in
  Array.iter
    (fun shard ->
      Array.iteri (fun i a -> merged.(i) <- merged.(i) + Atomic.get a) shard)
    h.h_buckets;
  merged

(* q-th percentile as the upper bound of the bucket holding the q-rank
   sample (nearest-rank definition: rank = ceil (q * count), >= 1). *)
let percentile_of_buckets merged total q =
  if total = 0 then 0.0
  else begin
    let rank = max 1 (min total (Float.to_int (Float.ceil (q *. float_of_int total)))) in
    let i = ref 0 and acc = ref 0 in
    while !acc + merged.(!i) < rank do
      acc := !acc + merged.(!i);
      i := !i + 1
    done;
    (* the last bucket is a catch-all; report the largest finite bound *)
    float_of_int (if !i = nbuckets - 1 then bounds.(nbuckets - 2) else bounds.(!i))
  end

(* Keep only occupied buckets: 128 mostly-zero rows per histogram would
   swamp the snapshot, and the boundaries are reconstructible from the
   (bound, count) pairs alone. *)
let occupied_buckets merged =
  let occupied = ref [] in
  for i = nbuckets - 1 downto 0 do
    if merged.(i) > 0 then occupied := (bounds.(i), merged.(i)) :: !occupied
  done;
  Array.of_list !occupied

let summarize h =
  let merged = merge_buckets h in
  let count = sum_row h.h_count in
  let sum = sum_row h.h_sum in
  let fold f init row = Array.fold_left (fun acc a -> f acc (Atomic.get a)) init row in
  let mn = fold min max_int h.h_min and mx = fold max min_int h.h_max in
  {
    count;
    sum;
    mean = (if count = 0 then 0.0 else float_of_int sum /. float_of_int count);
    p50 = percentile_of_buckets merged count 0.50;
    p95 = percentile_of_buckets merged count 0.95;
    p99 = percentile_of_buckets merged count 0.99;
    (* exact observed extrema, unlike the bucket-derived percentiles;
       0 (the sentinels) when no sample was ever recorded *)
    min = (if mn = max_int then 0 else mn);
    max = (if mx = min_int then 0 else mx);
    buckets = occupied_buckets merged;
  }

let percentile h q =
  let merged = merge_buckets h in
  percentile_of_buckets merged (Array.fold_left ( + ) 0 merged) q

let snapshot () =
  let items =
    Mutex.lock registry_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock registry_mutex)
      (fun () -> Hashtbl.fold (fun name i acc -> (name, i) :: acc) registry [])
  in
  let items = List.sort (fun (a, _) (b, _) -> compare a b) items in
  List.fold_right
    (fun (name, i) acc ->
      match i with
      | Counter c -> { acc with counters = (name, sum_row c.c_shards) :: acc.counters }
      | Gauge g -> { acc with gauges = (name, Atomic.get g.g_cell) :: acc.gauges }
      | Histogram h ->
          { acc with histograms = (name, summarize h) :: acc.histograms })
    items
    { counters = []; gauges = []; histograms = [] }

let reset () =
  Mutex.lock registry_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_mutex)
    (fun () ->
      Hashtbl.iter
        (fun _ i ->
          match i with
          | Counter c -> Array.iter (fun a -> Atomic.set a 0) c.c_shards
          | Gauge g -> Atomic.set g.g_cell 0.0
          | Histogram h ->
              Array.iter (fun a -> Atomic.set a 0) h.h_count;
              Array.iter (fun a -> Atomic.set a 0) h.h_sum;
              Array.iter (fun a -> Atomic.set a max_int) h.h_min;
              Array.iter (fun a -> Atomic.set a min_int) h.h_max;
              Array.iter (Array.iter (fun a -> Atomic.set a 0)) h.h_buckets)
        registry)

(* --- JSON ------------------------------------------------------------ *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let to_json_string ?(indent = 2) snap =
  let b = Buffer.create 1024 in
  let pad n = String.make (n * indent) ' ' in
  let obj level fields =
    if fields = [] then Buffer.add_string b "{}"
    else begin
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, emit) ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b (pad (level + 1));
          Buffer.add_string b ("\"" ^ escape k ^ "\": ");
          emit ())
        fields;
      Buffer.add_char b '\n';
      Buffer.add_string b (pad level);
      Buffer.add_char b '}'
    end
  in
  let summary_fields level (s : hist_summary) =
    obj level
      [
        ("count", fun () -> Buffer.add_string b (string_of_int s.count));
        ("sum", fun () -> Buffer.add_string b (string_of_int s.sum));
        ("mean", fun () -> Buffer.add_string b (json_float s.mean));
        ("p50", fun () -> Buffer.add_string b (json_float s.p50));
        ("p95", fun () -> Buffer.add_string b (json_float s.p95));
        ("p99", fun () -> Buffer.add_string b (json_float s.p99));
        ("min", fun () -> Buffer.add_string b (string_of_int s.min));
        ("max", fun () -> Buffer.add_string b (string_of_int s.max));
        ( "buckets",
          fun () ->
            (* [[upper_bound, count], ...] — occupied buckets only; the
               catch-all bucket's bound prints as -1 rather than
               max_int, which no JSON reader would survive. *)
            Buffer.add_char b '[';
            Array.iteri
              (fun i (bound, count) ->
                if i > 0 then Buffer.add_char b ',';
                let bound = if bound = max_int then -1 else bound in
                Buffer.add_string b (Printf.sprintf "[%d,%d]" bound count))
              s.buckets;
            Buffer.add_char b ']' );
      ]
  in
  obj 0
    [
      ( "counters",
        fun () ->
          obj 1
            (List.map
               (fun (k, v) ->
                 (k, fun () -> Buffer.add_string b (string_of_int v)))
               snap.counters) );
      ( "gauges",
        fun () ->
          obj 1
            (List.map
               (fun (k, v) -> (k, fun () -> Buffer.add_string b (json_float v)))
               snap.gauges) );
      ( "histograms",
        fun () ->
          obj 1
            (List.map
               (fun (k, s) -> (k, fun () -> summary_fields 2 s))
               snap.histograms) );
    ];
  Buffer.add_char b '\n';
  Buffer.contents b

(* Atomic (tmp + rename): forked workers rewrite their per-worker
   snapshot at every shard boundary, and a worker killed mid-write must
   leave its previous snapshot whole for the parent to fold. *)
let write_file path =
  let tmp = path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_json_string (snapshot ())));
  try Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* --- reading snapshots back and folding them -------------------------- *)

let ( let* ) r f = Result.bind r f

let collect f items =
  List.fold_right
    (fun it acc ->
      let* acc = acc in
      let* v = f it in
      Ok (v :: acc))
    items (Ok [])

let summary_of_json name j =
  let int_f k =
    match Option.bind (Json.member k j) Json.int with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "histogram %S: missing int %S" name k)
  in
  let flt_f k =
    match Option.bind (Json.member k j) Json.num with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "histogram %S: missing number %S" name k)
  in
  let* count = int_f "count" in
  let* sum = int_f "sum" in
  let* mean = flt_f "mean" in
  let* p50 = flt_f "p50" in
  let* p95 = flt_f "p95" in
  let* p99 = flt_f "p99" in
  let* min = int_f "min" in
  let* max = int_f "max" in
  let* buckets =
    match Json.member "buckets" j with
    | Some (Json.Arr items) ->
        collect
          (fun it ->
            match it with
            | Json.Arr [ bv; cv ] -> (
                match (Json.int bv, Json.int cv) with
                | Some b, Some c ->
                    (* the catch-all bound serializes as -1 *)
                    Ok ((if b = -1 then max_int else b), c)
                | _ ->
                    Error (Printf.sprintf "histogram %S: bad bucket pair" name))
            | _ -> Error (Printf.sprintf "histogram %S: bad bucket entry" name))
          items
    | _ -> Error (Printf.sprintf "histogram %S: missing buckets" name)
  in
  Ok { count; sum; mean; p50; p95; p99; min; max; buckets = Array.of_list buckets }

let of_json_string s =
  let* j = Json.parse s in
  let fields_of k =
    match Json.member k j with
    | Some (Json.Obj fields) -> Ok fields
    | None -> Ok []
    | Some _ -> Error (Printf.sprintf "metrics: %S is not an object" k)
  in
  let* counter_fields = fields_of "counters" in
  let* gauge_fields = fields_of "gauges" in
  let* hist_fields = fields_of "histograms" in
  let* counters =
    collect
      (fun (k, v) ->
        match Json.int v with
        | Some n -> Ok (k, n)
        | None -> Error (Printf.sprintf "counter %S is not an int" k))
      counter_fields
  in
  let* gauges =
    collect
      (fun (k, v) ->
        match Json.num v with
        | Some f -> Ok (k, f)
        | None -> Error (Printf.sprintf "gauge %S is not a number" k))
      gauge_fields
  in
  let* histograms =
    collect
      (fun (k, v) ->
        let* s = summary_of_json k v in
        Ok (k, s))
      hist_fields
  in
  Ok { counters; gauges; histograms }

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | body -> of_json_string body

(* Fold a snapshot into the live registry: counters and histogram
   contents add into this domain's shard, extrema fold, and a gauge (a
   last-write-wins cell) takes the absorbed value.  A name registered
   here as another kind is skipped: the snapshot came from disk and
   must not crash its reader. *)
let absorb snap =
  let s = slot () in
  let each get apply items =
    List.iter
      (fun (name, v) ->
        match get name with
        | exception Invalid_argument _ -> ()
        | i -> apply i v)
      items
  in
  each counter (fun c v -> ignore (Atomic.fetch_and_add c.c_shards.(s) v))
    snap.counters;
  each gauge (fun g v -> Atomic.set g.g_cell v) snap.gauges;
  each histogram
    (fun h (v : hist_summary) ->
      if v.count > 0 then begin
        Array.iter
          (fun (bound, c) ->
            ignore (Atomic.fetch_and_add h.h_buckets.(s).(bucket_of bound) c))
          v.buckets;
        ignore (Atomic.fetch_and_add h.h_count.(s) v.count);
        ignore (Atomic.fetch_and_add h.h_sum.(s) v.sum);
        atomic_min h.h_min.(s) v.min;
        atomic_max h.h_max.(s) v.max
      end)
    snap.histograms
