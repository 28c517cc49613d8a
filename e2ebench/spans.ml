type span = {
  id : int;
  name : string;
  parent : int;  (* id of the enclosing span, -1 at the root *)
  start_ns : int;
  mutable stop_ns : int;
  mutable minor_words : float;
  mutable major_gcs : int;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable next : int;
  mutable open_ : int list;  (* innermost first *)
}

let create () = { spans = []; next = 0; open_ = [] }
let mark t = t.next

let record t name f =
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  let g0 = Gc.quick_stat () in
  let s =
    {
      id = t.next;
      name;
      parent;
      start_ns = Tmr_obs.Clock.now_ns ();
      stop_ns = 0;
      minor_words = 0.;
      major_gcs = 0;
    }
  in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  t.open_ <- s.id :: t.open_;
  let close () =
    s.stop_ns <- Tmr_obs.Clock.now_ns ();
    let g1 = Gc.quick_stat () in
    s.minor_words <- g1.Gc.minor_words -. g0.Gc.minor_words;
    s.major_gcs <- g1.Gc.major_collections - g0.Gc.major_collections;
    t.open_ <- List.tl t.open_
  in
  Fun.protect ~finally:close f

type stat = {
  seconds : float;
  minor_mw : float;
  major_gcs : int;
}

let seconds s = float_of_int (s.stop_ns - s.start_ns) /. 1e9
let since t n = List.rev (List.filter (fun s -> s.id >= n) t.spans)

let totals t ~since:n =
  let acc = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      let prev =
        match Hashtbl.find_opt acc s.name with
        | Some p -> p
        | None ->
            order := s.name :: !order;
            { seconds = 0.; minor_mw = 0.; major_gcs = 0 }
      in
      Hashtbl.replace acc s.name
        {
          seconds = prev.seconds +. seconds s;
          minor_mw = prev.minor_mw +. (s.minor_words /. 1e6);
          major_gcs = prev.major_gcs + s.major_gcs;
        })
    (since t n);
  List.rev_map (fun name -> (name, Hashtbl.find acc name)) !order

let unaccounted t ~since:n =
  match since t n with
  | [] -> invalid_arg "Spans.unaccounted: no span recorded"
  | root :: rest ->
      let covered =
        List.fold_left
          (fun acc s -> if s.parent = root.id then acc +. seconds s else acc)
          0. rest
      in
      let total = seconds root in
      if total <= 0. then 0. else (total -. covered) /. total

let write_chrome t path =
  let pid = Unix.getpid () in
  let names = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace names s.id s.name) t.spans;
  let us ns = Tmr_obs.Json.Num (float_of_int ns /. 1e3) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          let parent =
            Option.value (Hashtbl.find_opt names s.parent) ~default:""
          in
          let line =
            Tmr_obs.Json.(
              Obj
                [
                  ("name", Str s.name);
                  ("cat", Str "e2e");
                  ("ph", Str "X");
                  ("ts", us s.start_ns);
                  ("dur", us (s.stop_ns - s.start_ns));
                  ("pid", Num (float_of_int pid));
                  ("tid", Num 0.);
                  ( "args",
                    Obj
                      [
                        ("parent", Str parent);
                        ("minor_mw", Str (Printf.sprintf "%.3f" (s.minor_words /. 1e6)));
                        ("major_gcs", Str (string_of_int s.major_gcs));
                      ] );
                ])
          in
          output_string oc (Tmr_obs.Json.to_string line);
          output_char oc '\n')
        (List.rev t.spans))
