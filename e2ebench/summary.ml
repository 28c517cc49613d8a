module Json = Tmr_obs.Json

type dist = {
  median : float;
  q1 : float;
  q3 : float;
  min : float;
  max : float;
  n : int;
}

let sorted xs =
  if xs = [] then invalid_arg "Summary: no values";
  Array.of_list (List.sort compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* statistics.quantiles(data, n=4, method='exclusive'), integer-exact
   positions; clamping keeps two-element inputs defined *)
let dist xs =
  let a = sorted xs in
  let ld = Array.length a in
  let quartile i =
    if ld = 1 then a.(0)
    else
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
  in
  {
    median = median xs;
    q1 = quartile 1;
    q3 = quartile 3;
    min = a.(0);
    max = a.(ld - 1);
    n = ld;
  }

let spread d =
  let iqr = d.q3 -. d.q1 in
  if iqr = 0. then 0.
  else if d.median = 0. then infinity
  else iqr /. Float.abs d.median

(* ---- bounds ------------------------------------------------------- *)

type direction =
  | Lower
  | Higher

type bound = {
  metric : string;
  unit : string;
  better : direction;
  bound : float;
}

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or malformed %S" name)

let bounds_of_benchmark j =
  List.fold_right
    (fun m acc ->
      let* acc = acc in
      let* metric = field "name" Json.str m in
      let* unit = field "unit" Json.str m in
      let* better = field "better" Json.str m in
      let* bound = field "bound" Json.num m in
      let* better =
        match better with
        | "lower" -> Ok Lower
        | "higher" -> Ok Higher
        | other -> Error (Printf.sprintf "%s: better must be lower|higher, got %S" metric other)
      in
      Ok ({ metric; unit; better; bound } :: acc))
    (match Json.member "end_to_end" j with Some a -> Json.arr a | None -> [])
    (Ok [])

(* ---- results file ------------------------------------------------- *)

type workload_result = {
  metrics : (string * (string * dist)) list;
  per_layer : (string * (string * float)) list;
}

type results = {
  version : string;
  nproc : int;
  ocaml : string;
  seed : int;
  repeats : int;
  workloads : (string * workload_result) list;
}

let schema = "tmr-e2ebench-results/1"

let dist_to_json unit d =
  Json.(
    Obj
      [
        ("unit", Str unit);
        ("median", Num d.median);
        ("q1", Num d.q1);
        ("q3", Num d.q3);
        ("min", Num d.min);
        ("max", Num d.max);
        ("n", Num (float_of_int d.n));
      ])

let results_to_json r =
  Json.(
    Obj
      [
        ("schema", Str schema);
        ("version", Str r.version);
        ("nproc", Num (float_of_int r.nproc));
        ("ocaml", Str r.ocaml);
        ("seed", Num (float_of_int r.seed));
        ("repeats", Num (float_of_int r.repeats));
        ( "workloads",
          Obj
            (List.map
               (fun (name, w) ->
                 ( name,
                   Obj
                     [
                       ( "metrics",
                         Obj (List.map (fun (m, (u, d)) -> (m, dist_to_json u d)) w.metrics) );
                       ( "per_layer",
                         Obj
                           (List.map
                              (fun (m, (u, v)) -> (m, Obj [ ("unit", Str u); ("value", Num v) ]))
                              w.per_layer) );
                     ] ))
               r.workloads) );
      ])

let obj_fields name j =
  match Json.member name j with
  | Some (Json.Obj fields) -> Ok fields
  | _ -> Error (Printf.sprintf "missing or malformed %S" name)

let map_result f xs =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    xs (Ok [])

let dist_of_json (name, j) =
  let* unit = field "unit" Json.str j in
  let* median = field "median" Json.num j in
  let* q1 = field "q1" Json.num j in
  let* q3 = field "q3" Json.num j in
  let* min = field "min" Json.num j in
  let* max = field "max" Json.num j in
  let* n = field "n" Json.int j in
  Ok (name, (unit, { median; q1; q3; min; max; n }))

let layer_of_json (name, j) =
  let* unit = field "unit" Json.str j in
  let* value = field "value" Json.num j in
  Ok (name, (unit, value))

let results_of_json j =
  let* s = field "schema" Json.str j in
  let* () =
    if s = schema then Ok ()
    else Error (Printf.sprintf "schema %S, expected %S" s schema)
  in
  let* version = field "version" Json.str j in
  let* nproc = field "nproc" Json.int j in
  let* ocaml = field "ocaml" Json.str j in
  let* seed = field "seed" Json.int j in
  let* repeats = field "repeats" Json.int j in
  let* ws = obj_fields "workloads" j in
  let* workloads =
    map_result
      (fun (name, w) ->
        let* ms = obj_fields "metrics" w in
        let* metrics = map_result dist_of_json ms in
        let* ls = obj_fields "per_layer" w in
        let* per_layer = map_result layer_of_json ls in
        Ok (name, { metrics; per_layer }))
      ws
  in
  Ok { version; nproc; ocaml; seed; repeats; workloads }

(* ---- compare ------------------------------------------------------ *)

type verdict =
  | Better
  | Worse
  | Unchanged
  | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* positive = worse, as a share of the old median *)
let worsening b ~old ~cur =
  let rel = (cur.median -. old.median) /. Float.abs old.median in
  match b.better with Lower -> rel | Higher -> -.rel

let judge b ~old ~cur =
  let all_better =
    match b.better with
    | Lower -> cur.max < old.min
    | Higher -> cur.min > old.max
  in
  if Float.max (spread old) (spread cur) > b.bound then
    if all_better then Better else Unresolved
  else
    let w = worsening b ~old ~cur in
    if Float.is_nan w then Unresolved
    else if w > b.bound then Worse
    else if w < -.b.bound then Better
    else Unchanged

type row = {
  workload : string;
  row_metric : string;
  old_median : float;
  new_median : float;
  change : float;
  verdict : verdict;
}

let compare bounds ~old ~cur =
  List.concat_map
    (fun (wname, ow) ->
      let cw = List.assoc_opt wname cur.workloads in
      List.map
        (fun b ->
          let o = List.assoc_opt b.metric ow.metrics in
          let c = Option.bind cw (fun w -> List.assoc_opt b.metric w.metrics) in
          match (o, c) with
          | Some (_, od), Some (_, cd) ->
              {
                workload = wname;
                row_metric = b.metric;
                old_median = od.median;
                new_median = cd.median;
                change = (cd.median -. od.median) /. Float.abs od.median;
                verdict = judge b ~old:od ~cur:cd;
              }
          | _ ->
              {
                workload = wname;
                row_metric = b.metric;
                old_median = nan;
                new_median = nan;
                change = nan;
                verdict = Unresolved;
              })
        bounds)
    old.workloads
