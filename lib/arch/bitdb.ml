type resource =
  | Pip of int
  | Lut_bit of int * int
  | Ff_init of int
  | Out_sel of int
  | Ce_inv of int
  | Sr_inv of int
  | In_inv of int * int
  | Pad_enable of int
  | Pad_cfg of int * int

type bit_class =
  | Class_routing
  | Class_lut
  | Class_custom
  | Class_ff

type t = {
  resources : resource array;
  frame_bits : int;
  pip_bits : int array;
  lut_bits : int array;  (* bel -> base address of its 16 table bits *)
  ff_init_bits : int array;
  out_sel_bits : int array;
  ce_inv_bits : int array;
  sr_inv_bits : int array;
  in_inv_bits : int array;  (* bel -> base of 4 consecutive pin-invert bits *)
  pad_bits : int array;
  pad_cfg_bits : int array;  (* pad -> base of 3 consecutive attr bits *)
}

(* The bit layout is column-major like the Xilinx configuration memory:
   resources are emitted pads ascending (enable, then attributes 0..2),
   bels ascending (LUT bits 0..15, FF init, output select, CE and SR
   inversion, pin inversions 0..3), then pips ascending, and stably
   sorted by the tile column they sit in.  A pip sits in the lower column
   of its two endpoints.  [build] does that sort as a counting sort: one
   pass counts the bits of every column, a second walks the emission
   order and writes each resource at its column's next free address.
   Every multi-bit group (LUT table, pin inversions, pad attributes) is
   emitted contiguously into one column, so it stays contiguous. *)
let pip_col dev i =
  let s = dev.Device.pip_src.(i) and d = dev.Device.pip_dst.(i) in
  min dev.Device.wcol.(s) dev.Device.wcol.(d)

let bits_per_bel = 24
let bits_per_pad = 4

let build dev =
  let nbels = dev.Device.nbels in
  let npips = dev.Device.npips in
  let npads = dev.Device.npads in
  let pad_col pad = dev.Device.wcol.(dev.Device.pad_wire.(pad)) in
  let ncols = 1 + Array.fold_left max 0 dev.Device.wcol in
  (* next.(c): first the bit count of column c, then its next free
     address *)
  let next = Array.make ncols 0 in
  let count col k = next.(col) <- next.(col) + k in
  for pad = 0 to npads - 1 do
    count (pad_col pad) bits_per_pad
  done;
  for b = 0 to nbels - 1 do
    count dev.Device.bel_col.(b) bits_per_bel
  done;
  for i = 0 to npips - 1 do
    count (pip_col dev i) 1
  done;
  let n = ref 0 in
  for c = 0 to ncols - 1 do
    let k = next.(c) in
    next.(c) <- !n;
    n := !n + k
  done;
  let resources = Array.make !n (Pip 0) in
  let take col k =
    let a = next.(col) in
    next.(col) <- a + k;
    a
  in
  let pad_bits = Array.make npads (-1) in
  let pad_cfg_bits = Array.make npads (-1) in
  for pad = 0 to npads - 1 do
    let a = take (pad_col pad) bits_per_pad in
    resources.(a) <- Pad_enable pad;
    for attr = 0 to 2 do
      resources.(a + 1 + attr) <- Pad_cfg (pad, attr)
    done;
    pad_bits.(pad) <- a;
    pad_cfg_bits.(pad) <- a + 1
  done;
  let lut_bits = Array.make nbels (-1) in
  let ff_init_bits = Array.make nbels (-1) in
  let out_sel_bits = Array.make nbels (-1) in
  let ce_inv_bits = Array.make nbels (-1) in
  let sr_inv_bits = Array.make nbels (-1) in
  let in_inv_bits = Array.make nbels (-1) in
  for b = 0 to nbels - 1 do
    let a = take dev.Device.bel_col.(b) bits_per_bel in
    for idx = 0 to 15 do
      resources.(a + idx) <- Lut_bit (b, idx)
    done;
    resources.(a + 16) <- Ff_init b;
    resources.(a + 17) <- Out_sel b;
    resources.(a + 18) <- Ce_inv b;
    resources.(a + 19) <- Sr_inv b;
    for pin = 0 to 3 do
      resources.(a + 20 + pin) <- In_inv (b, pin)
    done;
    lut_bits.(b) <- a;
    ff_init_bits.(b) <- a + 16;
    out_sel_bits.(b) <- a + 17;
    ce_inv_bits.(b) <- a + 18;
    sr_inv_bits.(b) <- a + 19;
    in_inv_bits.(b) <- a + 20
  done;
  let pip_bits = Array.make npips (-1) in
  for i = 0 to npips - 1 do
    let a = take (pip_col dev i) 1 in
    resources.(a) <- Pip i;
    pip_bits.(i) <- a
  done;
  {
    resources;
    frame_bits = dev.Device.params.Arch.frame_bits;
    pip_bits;
    lut_bits;
    ff_init_bits;
    out_sel_bits;
    ce_inv_bits;
    sr_inv_bits;
    in_inv_bits;
    pad_bits;
    pad_cfg_bits;
  }

let num_bits t = Array.length t.resources
let frame_bits t = t.frame_bits
let num_frames t = (num_bits t + t.frame_bits - 1) / t.frame_bits
let resource t a = t.resources.(a)
let frame_of_bit t a = a / t.frame_bits

let class_of_resource = function
  | Pip _ -> Class_routing
  | Lut_bit _ -> Class_lut
  | Out_sel _ | Ce_inv _ | Sr_inv _ | In_inv _ | Pad_enable _ | Pad_cfg _ ->
      Class_custom
  | Ff_init _ -> Class_ff

let class_of_bit t a = class_of_resource t.resources.(a)

let pip_bit t i = t.pip_bits.(i)
let lut_bit t ~bel ~idx = t.lut_bits.(bel) + idx
let ff_init_bit t ~bel = t.ff_init_bits.(bel)
let out_sel_bit t ~bel = t.out_sel_bits.(bel)
let ce_inv_bit t ~bel = t.ce_inv_bits.(bel)
let sr_inv_bit t ~bel = t.sr_inv_bits.(bel)
let in_inv_bit t ~bel ~pin = t.in_inv_bits.(bel) + pin
let pad_enable_bit t ~pad = t.pad_bits.(pad)
let pad_cfg_bit t ~pad ~attr = t.pad_cfg_bits.(pad) + attr

let class_counts t =
  let routing = ref 0 and lut = ref 0 and custom = ref 0 and ff = ref 0 in
  Array.iter
    (fun r ->
      match class_of_resource r with
      | Class_routing -> incr routing
      | Class_lut -> incr lut
      | Class_custom -> incr custom
      | Class_ff -> incr ff)
    t.resources;
  [
    (Class_routing, !routing);
    (Class_lut, !lut);
    (Class_custom, !custom);
    (Class_ff, !ff);
  ]

let class_name = function
  | Class_routing -> "routing"
  | Class_lut -> "LUT"
  | Class_custom -> "customization"
  | Class_ff -> "flip-flop"
