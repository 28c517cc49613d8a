(* Offline aggregation of Trace's Chrome-trace JSONL.  All times here
   are microseconds (the trace unit); nesting is reconstructed per tid
   by interval containment, which is exact for the single-writer
   per-domain spans Trace emits. *)

(* A lane is (pid, tid): in a merged fleet trace each forked worker
   contributes its own pid, and domain ids collide across processes, so
   nesting must be reconstructed per process AND per domain. *)
type span = {
  s_name : string;
  s_ts : float;
  s_dur : float;
  s_pid : int;
  s_tid : int;
}

type agg = {
  mutable a_count : int;
  mutable a_total : float;
  mutable a_self : float;
  mutable a_min : float;
  mutable a_max : float;
}

type t = {
  nspans : int;
  t0 : float;  (* earliest span start *)
  t1 : float;  (* latest span end *)
  by_name : (string * agg) list;  (* sorted by self time, descending *)
  stacks : (string * float) list;  (* collapsed path -> self µs, sorted *)
  top_level : ((int * int) * (float * float) list) list;
      (* (pid, tid) -> busy intervals *)
}

(* --- parsing ---------------------------------------------------------- *)

let parse_span line =
  match Json.parse line with
  | Error e -> Error e
  | Ok j -> (
      match Json.(member "ph" j |> Option.map (fun v -> str v)) with
      | Some (Some "X") -> (
          let name = Option.bind (Json.member "name" j) Json.str in
          let ts = Option.bind (Json.member "ts" j) Json.num in
          let dur = Option.bind (Json.member "dur" j) Json.num in
          let tid = Option.bind (Json.member "tid" j) Json.int in
          let pid =
            (* tolerate pid-less traces from other emitters *)
            Option.value ~default:0 (Option.bind (Json.member "pid" j) Json.int)
          in
          match (name, ts, dur, tid) with
          | Some s_name, Some s_ts, Some s_dur, Some s_tid ->
              Ok (Some { s_name; s_ts; s_dur; s_pid = pid; s_tid })
          | _ -> Error "profile: complete event missing name/ts/dur/tid")
      | _ -> Ok None (* not a complete-span event: ignore *))

(* --- nesting reconstruction ------------------------------------------- *)

(* Timestamps carry 3 decimals (nanosecond resolution in µs); the
   epsilon absorbs that rounding when deciding containment. *)
let eps = 0.0005

type frame = {
  f_name : string;
  f_end : float;
  f_dur : float;
  f_path : string;
  mutable f_child : float;  (* direct children's total duration *)
}

let of_lines lines =
  let exception Bad of string in
  try
    let spans =
      List.filter_map
        (fun line ->
          if String.trim line = "" then None
          else
            match parse_span line with
            | Ok s -> s
            | Error e -> raise (Bad e))
        lines
    in
    if spans = [] then Error "profile: no complete-span events in trace"
    else begin
      let names : (string, agg) Hashtbl.t = Hashtbl.create 32 in
      let stacks : (string, float ref) Hashtbl.t = Hashtbl.create 64 in
      let tops : (int * int, (float * float) list ref) Hashtbl.t =
        Hashtbl.create 8
      in
      let agg_of name =
        match Hashtbl.find_opt names name with
        | Some a -> a
        | None ->
            let a =
              { a_count = 0; a_total = 0.; a_self = 0.; a_min = infinity; a_max = 0. }
            in
            Hashtbl.add names name a;
            a
      in
      let finalize f =
        let a = agg_of f.f_name in
        let self = Float.max 0. (f.f_dur -. f.f_child) in
        a.a_self <- a.a_self +. self;
        let r =
          match Hashtbl.find_opt stacks f.f_path with
          | Some r -> r
          | None ->
              let r = ref 0. in
              Hashtbl.add stacks f.f_path r;
              r
        in
        r := !r +. self
      in
      let by_lane : (int * int, span list ref) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun s ->
          let lane = (s.s_pid, s.s_tid) in
          match Hashtbl.find_opt by_lane lane with
          | Some l -> l := s :: !l
          | None -> Hashtbl.add by_lane lane (ref [ s ]))
        spans;
      Hashtbl.iter
        (fun lane l ->
          let arr = Array.of_list !l in
          (* start ascending; on equal starts the longer span is the
             parent and must be visited first *)
          Array.sort
            (fun a b ->
              match Float.compare a.s_ts b.s_ts with
              | 0 -> Float.compare b.s_dur a.s_dur
              | c -> c)
            arr;
          let stack = ref [] in
          let top_intervals = ref [] in
          Array.iter
            (fun s ->
              let rec unwind () =
                match !stack with
                | f :: rest when s.s_ts >= f.f_end -. eps ->
                    finalize f;
                    stack := rest;
                    unwind ()
                | _ -> ()
              in
              unwind ();
              let a = agg_of s.s_name in
              a.a_count <- a.a_count + 1;
              a.a_total <- a.a_total +. s.s_dur;
              a.a_min <- Float.min a.a_min s.s_dur;
              a.a_max <- Float.max a.a_max s.s_dur;
              let path =
                match !stack with
                | [] ->
                    top_intervals := (s.s_ts, s.s_ts +. s.s_dur) :: !top_intervals;
                    s.s_name
                | parent :: _ ->
                    parent.f_child <- parent.f_child +. s.s_dur;
                    parent.f_path ^ ";" ^ s.s_name
              in
              stack :=
                {
                  f_name = s.s_name;
                  f_end = s.s_ts +. s.s_dur;
                  f_dur = s.s_dur;
                  f_path = path;
                  f_child = 0.;
                }
                :: !stack)
            arr;
          List.iter finalize !stack;
          Hashtbl.add tops lane (ref (List.rev !top_intervals)))
        by_lane;
      let t0 = List.fold_left (fun acc s -> Float.min acc s.s_ts) infinity spans in
      let t1 =
        List.fold_left (fun acc s -> Float.max acc (s.s_ts +. s.s_dur)) 0. spans
      in
      let by_name =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) names []
        |> List.sort (fun (_, a) (_, b) -> Float.compare b.a_self a.a_self)
      in
      let stacks =
        Hashtbl.fold (fun k v acc -> (k, !v) :: acc) stacks []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let top_level =
        Hashtbl.fold (fun k v acc -> (k, !v) :: acc) tops []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      Ok { nspans = List.length spans; t0; t1; by_name; stacks; top_level }
    end
  with Bad e -> Error e

let load_file path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      of_lines (List.rev !lines)

(* --- rendering -------------------------------------------------------- *)

let dur_pp us =
  if us >= 1e6 then Printf.sprintf "%.2fs" (us /. 1e6)
  else if us >= 1e3 then Printf.sprintf "%.2fms" (us /. 1e3)
  else Printf.sprintf "%.1fus" us

let span_table t =
  let b = Buffer.create 1024 in
  let total_self = List.fold_left (fun acc (_, a) -> acc +. a.a_self) 0. t.by_name in
  Buffer.add_string b
    (Printf.sprintf "%-18s %8s %10s %10s %6s %10s %10s %10s\n" "span" "count"
       "total" "self" "self%" "mean" "min" "max");
  List.iter
    (fun (name, a) ->
      let pct = if total_self > 0. then 100. *. a.a_self /. total_self else 0. in
      Buffer.add_string b
        (Printf.sprintf "%-18s %8d %10s %10s %5.1f%% %10s %10s %10s\n" name
           a.a_count (dur_pp a.a_total) (dur_pp a.a_self) pct
           (dur_pp (a.a_total /. float_of_int (max 1 a.a_count)))
           (dur_pp a.a_min) (dur_pp a.a_max)))
    t.by_name;
  Buffer.contents b

let shades = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |]

let npids t =
  List.map (fun ((p, _), _) -> p) t.top_level
  |> List.sort_uniq compare |> List.length

let timeline t =
  let width = 60 in
  let b = Buffer.create 1024 in
  let span = Float.max eps (t.t1 -. t.t0) in
  let bucket_us = span /. float_of_int width in
  let fleet = npids t > 1 in
  Buffer.add_string b
    (Printf.sprintf "per-%s utilization (%d buckets of %s):\n"
       (if fleet then "worker" else "tid")
       width (dur_pp bucket_us));
  List.iter
    (fun ((pid, tid), intervals) ->
      let cover = Array.make width 0. in
      let busy = ref 0. in
      List.iter
        (fun (lo, hi) ->
          busy := !busy +. (hi -. lo);
          let b0 = int_of_float ((lo -. t.t0) /. bucket_us) in
          let b1 = int_of_float ((hi -. t.t0) /. bucket_us) in
          for i = max 0 b0 to min (width - 1) b1 do
            let blo = t.t0 +. (float_of_int i *. bucket_us) in
            let bhi = blo +. bucket_us in
            let o = Float.min hi bhi -. Float.max lo blo in
            if o > 0. then cover.(i) <- cover.(i) +. (o /. bucket_us)
          done)
        intervals;
      let row =
        String.init width (fun i ->
            let f = Float.min 1. cover.(i) in
            shades.(min (Array.length shades - 1) (int_of_float (f *. 10.))))
      in
      let label =
        (* lanes are pid-qualified only when the trace actually spans
           several processes, so single-process output is unchanged *)
        if fleet then Printf.sprintf "  pid %-7d tid %-4d" pid tid
        else Printf.sprintf "  tid %-4d" tid
      in
      Buffer.add_string b
        (Printf.sprintf "%s [%s] %3.0f%%\n" label row (100. *. !busy /. span)))
    t.top_level;
  Buffer.contents b

let collapsed t =
  let b = Buffer.create 1024 in
  List.iter
    (fun (path, self) ->
      Buffer.add_string b
        (Printf.sprintf "%s %d\n" path (max 1 (int_of_float (Float.round self)))))
    t.stacks;
  Buffer.contents b

let report t =
  let lanes = List.length t.top_level in
  let np = npids t in
  let header =
    if np > 1 then
      Printf.sprintf "%d spans across %d lanes in %d processes, wall-clock %s"
        t.nspans lanes np
        (dur_pp (t.t1 -. t.t0))
    else
      Printf.sprintf "%d spans across %d tids, wall-clock %s" t.nspans lanes
        (dur_pp (t.t1 -. t.t0))
  in
  Printf.sprintf "%s\n\n%s\n%s" header (span_table t) (timeline t)
