module Bitdb = Tmr_arch.Bitdb
module Json = Tmr_obs.Json

type class_cov = {
  cc_class : Bitdb.bit_class;
  cc_device : int;
  cc_essential : int;
  cc_injected : int;
}

type t = {
  total_bits : int;
  frames : int;
  frame_bits : int;
  essential : int;
  injected : int;
  injected_distinct : int;
  classes : class_cov list;
  rows : int;
  cols : int;
  grid_essential : int array array;
  grid_injected : int array array;
}

let class_order = [ Bitdb.Class_routing; Class_lut; Class_custom; Class_ff ]

let of_faults ~db ~faultlist ~faults =
  let total_bits = Bitdb.num_bits db in
  let frames = Bitdb.num_frames db in
  let frame_bits = Bitdb.frame_bits db in
  (* The grid buckets the (frame, offset) plane, not single frames: a
     paper-scale device has 2,501 frames and no terminal is that wide. *)
  let cols = min 64 (max 1 frames) in
  let rows = min 16 (max 1 frame_bits) in
  let cell bit =
    let frame = Bitdb.frame_of_bit db bit in
    let offset = bit mod frame_bits in
    (offset * rows / frame_bits, frame * cols / frames)
  in
  let grid_essential = Array.make_matrix rows cols 0 in
  let grid_injected = Array.make_matrix rows cols 0 in
  Array.iter
    (fun bit ->
      let r, c = cell bit in
      grid_essential.(r).(c) <- grid_essential.(r).(c) + 1)
    faultlist.Faultlist.bits;
  (* dedup the sample: a bit injected twice covers no more memory *)
  let distinct = Hashtbl.create (Array.length faults) in
  Array.iter
    (fun bit ->
      if not (Hashtbl.mem distinct bit) then begin
        Hashtbl.replace distinct bit ();
        let r, c = cell bit in
        grid_injected.(r).(c) <- grid_injected.(r).(c) + 1
      end)
    faults;
  let count_by_class bits =
    let tbl = Hashtbl.create 8 in
    let bump cls =
      Hashtbl.replace tbl cls (1 + Option.value ~default:0 (Hashtbl.find_opt tbl cls))
    in
    bits (fun bit -> bump (Bitdb.class_of_bit db bit));
    fun cls -> Option.value ~default:0 (Hashtbl.find_opt tbl cls)
  in
  let essential_of =
    count_by_class (fun f -> Array.iter f faultlist.Faultlist.bits)
  in
  let injected_of =
    count_by_class (fun f -> Hashtbl.iter (fun bit () -> f bit) distinct)
  in
  let device_counts = Bitdb.class_counts db in
  let classes =
    List.map
      (fun cls ->
        {
          cc_class = cls;
          cc_device = Option.value ~default:0 (List.assoc_opt cls device_counts);
          cc_essential = essential_of cls;
          cc_injected = injected_of cls;
        })
      class_order
  in
  {
    total_bits;
    frames;
    frame_bits;
    essential = Array.length faultlist.Faultlist.bits;
    injected = Array.length faults;
    injected_distinct = Hashtbl.length distinct;
    classes;
    rows;
    cols;
    grid_essential;
    grid_injected;
  }

let to_json t =
  let num i = Json.Num (float_of_int i) in
  let grid g =
    Json.Arr
      (Array.to_list (Array.map (fun row ->
           Json.Arr (Array.to_list (Array.map num row)))
          g))
  in
  Json.Obj
    [
      ("total_bits", num t.total_bits);
      ("frames", num t.frames);
      ("frame_bits", num t.frame_bits);
      ("essential", num t.essential);
      ("injected", num t.injected);
      ("injected_distinct", num t.injected_distinct);
      ( "classes",
        Json.Arr
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("class", Json.Str (Bitdb.class_name c.cc_class));
                   ("device", num c.cc_device);
                   ("essential", num c.cc_essential);
                   ("injected", num c.cc_injected);
                 ])
             t.classes) );
      ( "grid",
        Json.Obj
          [
            ("rows", num t.rows);
            ("cols", num t.cols);
            ("essential", grid t.grid_essential);
            ("injected", grid t.grid_injected);
          ] );
    ]
