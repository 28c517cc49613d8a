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
  resources : int array;  (* bit -> packed resource, see [pack] *)
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
  let cs = dev.Device.wcol.(dev.Device.pip_src.(i))
  and cd = dev.Device.wcol.(dev.Device.pip_dst.(i)) in
  if cs <= cd then cs else cd

(* Each bit's resource is one immediate int: the constructor's tag in
   the low [tag_bits], the second argument (LUT position, pin or pad
   attribute, all below 16) in the next [sub_bits], and the pip, bel or
   pad id above them.  [resource] decodes it on demand, so the database
   holds no block per bit. *)
let tag_bits = 4
let sub_bits = 4
let id_shift = tag_bits + sub_bits
let max_id = max_int lsr id_shift

let tag_pip = 0
let tag_lut = 1
let tag_ff = 2
let tag_out_sel = 3
let tag_ce_inv = 4
let tag_sr_inv = 5
let tag_in_inv = 6
let tag_pad_enable = 7
let tag_pad_cfg = 8

let tag_mask = (1 lsl tag_bits) - 1
let sub_mask = (1 lsl sub_bits) - 1
let pack tag id sub = (id lsl id_shift) lor (sub lsl tag_bits) lor tag

let bits_per_bel = 24
let bits_per_pad = 4

let build dev =
  let nbels = dev.Device.nbels in
  let npips = dev.Device.npips in
  let npads = dev.Device.npads in
  if npips - 1 > max_id || nbels - 1 > max_id || npads - 1 > max_id then
    invalid_arg "Bitdb.build: device too large for a packed resource";
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
  (* pip_bits.(i) holds pip i's column until the second pass replaces it
     with the pip's address *)
  let pip_bits = Array.make npips 0 in
  for i = 0 to npips - 1 do
    let c = pip_col dev i in
    pip_bits.(i) <- c;
    next.(c) <- next.(c) + 1
  done;
  let n = ref 0 in
  for c = 0 to ncols - 1 do
    let k = next.(c) in
    next.(c) <- !n;
    n := !n + k
  done;
  let resources = Array.make !n 0 in
  let take col k =
    let a = next.(col) in
    next.(col) <- a + k;
    a
  in
  let pad_bits = Array.make npads (-1) in
  let pad_cfg_bits = Array.make npads (-1) in
  for pad = 0 to npads - 1 do
    let a = take (pad_col pad) bits_per_pad in
    resources.(a) <- pack tag_pad_enable pad 0;
    for attr = 0 to 2 do
      resources.(a + 1 + attr) <- pack tag_pad_cfg pad attr
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
      resources.(a + idx) <- pack tag_lut b idx
    done;
    resources.(a + 16) <- pack tag_ff b 0;
    resources.(a + 17) <- pack tag_out_sel b 0;
    resources.(a + 18) <- pack tag_ce_inv b 0;
    resources.(a + 19) <- pack tag_sr_inv b 0;
    for pin = 0 to 3 do
      resources.(a + 20 + pin) <- pack tag_in_inv b pin
    done;
    lut_bits.(b) <- a;
    ff_init_bits.(b) <- a + 16;
    out_sel_bits.(b) <- a + 17;
    ce_inv_bits.(b) <- a + 18;
    sr_inv_bits.(b) <- a + 19;
    in_inv_bits.(b) <- a + 20
  done;
  for i = 0 to npips - 1 do
    let c = pip_bits.(i) in
    let a = next.(c) in
    next.(c) <- a + 1;
    resources.(a) <- pack tag_pip i 0;
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

let resource t a =
  let r = t.resources.(a) in
  let tag = r land tag_mask in
  let id = r lsr id_shift and sub = (r lsr tag_bits) land sub_mask in
  if tag = tag_pip then Pip id
  else if tag = tag_lut then Lut_bit (id, sub)
  else if tag = tag_ff then Ff_init id
  else if tag = tag_out_sel then Out_sel id
  else if tag = tag_ce_inv then Ce_inv id
  else if tag = tag_sr_inv then Sr_inv id
  else if tag = tag_in_inv then In_inv (id, sub)
  else if tag = tag_pad_enable then Pad_enable id
  else Pad_cfg (id, sub)

let frame_of_bit t a = a / t.frame_bits

let class_of_tag tag =
  if tag = tag_pip then Class_routing
  else if tag = tag_lut then Class_lut
  else if tag = tag_ff then Class_ff
  else Class_custom

let class_of_bit t a = class_of_tag (t.resources.(a) land tag_mask)

let pip_bit t i = t.pip_bits.(i)
let lut_bit t ~bel ~idx = t.lut_bits.(bel) + idx
let ff_init_bit t ~bel = t.ff_init_bits.(bel)
let out_sel_bit t ~bel = t.out_sel_bits.(bel)
let ce_inv_bit t ~bel = t.ce_inv_bits.(bel)
let sr_inv_bit t ~bel = t.sr_inv_bits.(bel)
let in_inv_bit t ~bel ~pin = t.in_inv_bits.(bel) + pin
let pad_enable_bit t ~pad = t.pad_bits.(pad)
let pad_cfg_bit t ~pad ~attr = t.pad_cfg_bits.(pad) + attr

(* [iter f] calls [f] on every address to count *)
let tally t iter =
  let routing = ref 0 and lut = ref 0 and custom = ref 0 and ff = ref 0 in
  iter (fun a ->
      match class_of_bit t a with
      | Class_routing -> incr routing
      | Class_lut -> incr lut
      | Class_custom -> incr custom
      | Class_ff -> incr ff);
  [
    (Class_routing, !routing);
    (Class_lut, !lut);
    (Class_custom, !custom);
    (Class_ff, !ff);
  ]

let class_counts t =
  tally t (fun f ->
      for a = 0 to num_bits t - 1 do
        f a
      done)

let class_counts_of t bits = tally t (fun f -> Array.iter f bits)

let class_name = function
  | Class_routing -> "routing"
  | Class_lut -> "LUT"
  | Class_custom -> "customization"
  | Class_ff -> "flip-flop"
