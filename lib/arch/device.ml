type wire_kind =
  | HSingle
  | VSingle
  | HDouble
  | VDouble
  | HLong
  | VLong
  | BelIn
  | BelOut
  | PadIn
  | PadOut

type t = {
  params : Arch.params;
  nwires : int;
  wkind : wire_kind array;
  wrow : int array;
  wcol : int array;
  widx : int array;
  npips : int;
  pip_src : int array;
  pip_dst : int array;
  pip_bidir : bool array;
  wire_out : int array array;
  wire_in : int array array;
  nbels : int;
  bel_row : int array;
  bel_col : int array;
  bel_slot : int array;
  bel_in : int array array;
  bel_out : int array;
  wire_bel : int array;
  npads : int;
  pad_wire : int array;
  pad_is_input : bool array;
  wire_pad : int array;
}

(* Wire id layout: contiguous blocks per wire family, with closed-form
   id computation so construction never needs a lookup table. *)
type layout = {
  p : Arch.params;
  hs_base : int;
  vs_base : int;
  hd_base : int;
  vd_base : int;
  hl_base : int;
  vl_base : int;
  pin_base : int;
  pad_base : int;
  total : int;
  pad_positions : int;
}

let layout p =
  let open Arch in
  let hs = (p.rows + 1) * p.cols * p.ch_singles in
  let vs = (p.cols + 1) * p.rows * p.ch_singles in
  let hd = (p.rows + 1) * p.cols * p.ch_doubles in
  let vd = (p.cols + 1) * p.rows * p.ch_doubles in
  let hl = (p.rows + 1) * p.ch_longs in
  let vl = (p.cols + 1) * p.ch_longs in
  let pins = num_bels p * (p.lut_inputs + 1) in
  let pad_positions = (2 * p.cols) + (2 * p.rows) in
  let pads = pad_positions * p.pads_per_position * 2 in
  let hs_base = 0 in
  let vs_base = hs_base + hs in
  let hd_base = vs_base + vs in
  let vd_base = hd_base + hd in
  let hl_base = vd_base + vd in
  let vl_base = hl_base + hl in
  let pin_base = vl_base + vl in
  let pad_base = pin_base + pins in
  let total = pad_base + pads in
  { p; hs_base; vs_base; hd_base; vd_base; hl_base; vl_base; pin_base;
    pad_base; total; pad_positions }

(* Horizontal channel y in 0..rows, segment x in 0..cols-1, track i. *)
let hs l y x i =
  assert (y >= 0 && y <= l.p.Arch.rows && x >= 0 && x < l.p.Arch.cols);
  l.hs_base + (((y * l.p.Arch.cols) + x) * l.p.Arch.ch_singles) + i

(* Vertical channel x in 0..cols, segment y in 0..rows-1, track i. *)
let vs l x y i =
  assert (x >= 0 && x <= l.p.Arch.cols && y >= 0 && y < l.p.Arch.rows);
  l.vs_base + (((x * l.p.Arch.rows) + y) * l.p.Arch.ch_singles) + i

let hd l y x j =
  assert (y >= 0 && y <= l.p.Arch.rows && x >= 0 && x < l.p.Arch.cols);
  l.hd_base + (((y * l.p.Arch.cols) + x) * l.p.Arch.ch_doubles) + j

let vd l x y j =
  assert (x >= 0 && x <= l.p.Arch.cols && y >= 0 && y < l.p.Arch.rows);
  l.vd_base + (((x * l.p.Arch.rows) + y) * l.p.Arch.ch_doubles) + j

let hl l y k =
  assert (y >= 0 && y <= l.p.Arch.rows);
  l.hl_base + (y * l.p.Arch.ch_longs) + k

let vl l x k =
  assert (x >= 0 && x <= l.p.Arch.cols);
  l.vl_base + (x * l.p.Arch.ch_longs) + k

let bel_id l r c slot =
  ((r * l.p.Arch.cols) + c) * Arch.bels_per_tile l.p + slot

let pin l b j = l.pin_base + (b * (l.p.Arch.lut_inputs + 1)) + j

let pad_id_wire l pos k is_input =
  let per_pos = l.p.Arch.pads_per_position * 2 in
  l.pad_base + (pos * per_pos) + (k * 2) + if is_input then 0 else 1

(* Perimeter position coordinates: positions 0..cols-1 top (H channel 0),
   cols..2cols-1 bottom (H channel rows), then left (V channel 0) and right
   (V channel cols). *)
let pad_channel_anchor p pos =
  let open Arch in
  if pos < p.cols then `H (0, pos)
  else if pos < 2 * p.cols then `H (p.rows, pos - p.cols)
  else if pos < (2 * p.cols) + p.rows then `V (0, pos - (2 * p.cols))
  else `V (p.cols, pos - (2 * p.cols) - p.rows)

(* Where [raw_pips] puts the pips it generates: it only counts them
   while the arrays are too short to hold them. *)
type sink = {
  mutable n : int;
  src : int array;
  dst : int array;
  bid : bool array;
}

let emit sk s d b =
  let n = sk.n in
  if n < Array.length sk.src then begin
    sk.src.(n) <- s;
    sk.dst.(n) <- d;
    sk.bid.(n) <- b
  end;
  sk.n <- n + 1

(* directional (buffered) pip: a drives b *)
let pip sk a b = emit sk a b false

(* bidirectional (pass-transistor) pip: a and b are shorted when on, and
   the endpoints go in ascending order *)
let bidir sk a b = if a <= b then emit sk a b true else emit sk b a true

(* -1 marks a side the array edge cuts off *)
let both sk a b = if a >= 0 && b >= 0 then bidir sk a b

(* Every pip the fabric style defines, in generation order.  The order
   fixes the pip ids, so it must not change; narrow channels emit the
   same connection more than once, and [build] keeps the first. *)
let raw_pips l sk =
  let p = l.p in
  let open Arch in
  let incident = Array.make 4 (-1) in
  (* Switch boxes: points (y, x), y in 0..rows, x in 0..cols. *)
  for y = 0 to p.rows do
    for x = 0 to p.cols do
      (* disjoint pattern: same-track clique across the four sides *)
      for i = 0 to p.ch_singles - 1 do
        incident.(0) <- (if y <= p.rows - 1 then vs l x y i else -1);
        incident.(1) <- (if y - 1 >= 0 then vs l x (y - 1) i else -1);
        incident.(2) <- (if x <= p.cols - 1 then hs l y x i else -1);
        incident.(3) <- (if x - 1 >= 0 then hs l y (x - 1) i else -1);
        for ia = 0 to 3 do
          for ib = 0 to 3 do
            let a = incident.(ia) and b = incident.(ib) in
            if a >= 0 && a < b then emit sk a b true
          done
        done
      done;
      (* Wilton-style rotating turns: track i turns onto track i+1, so the
         graph is not partitioned per track index *)
      for i = 0 to p.ch_singles - 1 do
        let i' = (i + 1) mod p.ch_singles in
        if x - 1 >= 0 && y <= p.rows - 1 then
          bidir sk (hs l y (x - 1) i) (vs l x y i');
        if x <= p.cols - 1 && y - 1 >= 0 then
          bidir sk (hs l y x i) (vs l x (y - 1) i')
      done;
      (* doubles: straight-through, turns, and transfers to singles *)
      for j = 0 to p.ch_doubles - 1 do
        let hw = if x - 2 >= 0 then hd l y (x - 2) j else -1 in
        let he = if x <= p.cols - 1 then hd l y x j else -1 in
        let vsou = if y - 2 >= 0 then vd l x (y - 2) j else -1 in
        let vno = if y <= p.rows - 1 then vd l x y j else -1 in
        both sk hw he;
        both sk vsou vno;
        both sk hw vno;
        both sk he vsou;
        (* transfer to the same-index single at this point *)
        let single_here =
          if x <= p.cols - 1 then hs l y x j
          else if x - 1 >= 0 then hs l y (x - 1) j
          else -1
        in
        let vsingle_here =
          if y <= p.rows - 1 then vs l x y j
          else if y - 1 >= 0 then vs l x (y - 1) j
          else -1
        in
        both sk hw single_here;
        both sk hw vsingle_here;
        both sk he single_here;
        both sk he vsingle_here;
        both sk vsou single_here;
        both sk vsou vsingle_here;
        both sk vno single_here;
        both sk vno vsingle_here
      done;
      (* long-line taps *)
      if x mod p.long_tap_period = 0 then
        for k = 0 to p.ch_longs - 1 do
          if x <= p.cols - 1 then bidir sk (hl l y k) (hs l y x k)
        done;
      if y mod p.long_tap_period = 0 then
        for k = 0 to p.ch_longs - 1 do
          if y <= p.rows - 1 then bidir sk (vl l x k) (vs l x y k)
        done
    done
  done;
  (* Connection boxes: tile (r, c) uses H channel y=r segment x=c and
     V channel x=c segment y=r. *)
  let scatter base span salt = (base + salt) mod span in
  for r = 0 to p.rows - 1 do
    for c = 0 to p.cols - 1 do
      for slot = 0 to bels_per_tile p - 1 do
        let b = bel_id l r c slot in
        (* input pins: odd stride over the tracks so the option set of each
           pin mixes parities and differs across slots and pins *)
        for j = 0 to p.lut_inputs - 1 do
          let pw = pin l b j in
          let salt = (slot * 7) + (j * 5) + r + c in
          for k = 0 to p.cb_in_singles - 1 do
            if k mod 2 = 0 then
              pip sk (hs l r c (scatter (k * 3) p.ch_singles salt)) pw
            else pip sk (vs l c r (scatter (k * 3) p.ch_singles salt)) pw
          done;
          (* one double and one long tap per pin *)
          pip sk (hd l r c ((slot + j + c) mod p.ch_doubles)) pw;
          if j mod 2 = 0 then pip sk (hl l r (j mod p.ch_longs)) pw
          else pip sk (vl l c (j mod p.ch_longs)) pw
        done;
        (* output pin *)
        let ow = pin l b p.lut_inputs in
        let osalt = (slot * 13) + r + c in
        for k = 0 to p.cb_out_singles - 1 do
          pip sk ow (hs l r c (scatter (k * 3) p.ch_singles osalt));
          pip sk ow (vs l c r (scatter ((k * 3) + 1) p.ch_singles osalt))
        done;
        pip sk ow (hd l r c (slot mod p.ch_doubles));
        pip sk ow (vd l c r ((slot + 1) mod p.ch_doubles))
      done
    done
  done;
  (* Pads: four channel tracks, each driven by the input pad and driving
     the output pad *)
  for pos = 0 to l.pad_positions - 1 do
    for k = 0 to p.pads_per_position - 1 do
      let inw = pad_id_wire l pos k true in
      let outw = pad_id_wire l pos k false in
      let anchor = pad_channel_anchor p pos in
      for t = 0 to 3 do
        let track = ((t * 3) + k + pos) mod p.ch_singles in
        let w =
          match anchor with
          | `H (y, x) -> hs l y x track
          | `V (x, y) -> vs l x y track
        in
        pip sk inw w;
        pip sk w outw
      done
    done
  done

let build p =
  let l = layout p in
  let open Arch in
  let nwires = l.total in
  let wkind = Array.make nwires HSingle in
  let wrow = Array.make nwires 0 in
  let wcol = Array.make nwires 0 in
  let widx = Array.make nwires 0 in
  (* Fill wire attributes per family. *)
  for y = 0 to p.rows do
    for x = 0 to p.cols - 1 do
      for i = 0 to p.ch_singles - 1 do
        let w = hs l y x i in
        wkind.(w) <- HSingle; wrow.(w) <- y; wcol.(w) <- x; widx.(w) <- i
      done;
      for j = 0 to p.ch_doubles - 1 do
        let w = hd l y x j in
        wkind.(w) <- HDouble; wrow.(w) <- y; wcol.(w) <- x; widx.(w) <- j
      done
    done;
    for k = 0 to p.ch_longs - 1 do
      let w = hl l y k in
      wkind.(w) <- HLong; wrow.(w) <- y; wcol.(w) <- 0; widx.(w) <- k
    done
  done;
  for x = 0 to p.cols do
    for y = 0 to p.rows - 1 do
      for i = 0 to p.ch_singles - 1 do
        let w = vs l x y i in
        wkind.(w) <- VSingle; wrow.(w) <- y; wcol.(w) <- x; widx.(w) <- i
      done;
      for j = 0 to p.ch_doubles - 1 do
        let w = vd l x y j in
        wkind.(w) <- VDouble; wrow.(w) <- y; wcol.(w) <- x; widx.(w) <- j
      done
    done;
    for k = 0 to p.ch_longs - 1 do
      let w = vl l x k in
      wkind.(w) <- VLong; wrow.(w) <- 0; wcol.(w) <- x; widx.(w) <- k
    done
  done;
  let nbels = num_bels p in
  let bpt = bels_per_tile p in
  let bel_row = Array.make nbels 0 in
  let bel_col = Array.make nbels 0 in
  let bel_slot = Array.make nbels 0 in
  let bel_in = Array.make nbels [||] in
  let bel_out = Array.make nbels 0 in
  let wire_bel = Array.make nwires (-1) in
  for r = 0 to p.rows - 1 do
    for c = 0 to p.cols - 1 do
      for slot = 0 to bpt - 1 do
        let b = bel_id l r c slot in
        bel_row.(b) <- r;
        bel_col.(b) <- c;
        bel_slot.(b) <- slot;
        bel_in.(b) <- Array.init p.lut_inputs (fun j -> pin l b j);
        bel_out.(b) <- pin l b p.lut_inputs;
        Array.iteri
          (fun j w ->
            wkind.(w) <- BelIn; wrow.(w) <- r; wcol.(w) <- c; widx.(w) <- j;
            wire_bel.(w) <- b)
          bel_in.(b);
        let ow = bel_out.(b) in
        wkind.(ow) <- BelOut; wrow.(ow) <- r; wcol.(ow) <- c;
        widx.(ow) <- p.lut_inputs;
        wire_bel.(ow) <- b
      done
    done
  done;
  let npads = l.pad_positions * p.pads_per_position * 2 in
  let pad_wire = Array.make npads 0 in
  let pad_is_input = Array.make npads false in
  let wire_pad = Array.make nwires (-1) in
  for pos = 0 to l.pad_positions - 1 do
    for k = 0 to p.pads_per_position - 1 do
      List.iter
        (fun is_input ->
          let w = pad_id_wire l pos k is_input in
          let pid = w - l.pad_base in
          pad_wire.(pid) <- w;
          pad_is_input.(pid) <- is_input;
          wire_pad.(w) <- pid;
          wkind.(w) <- (if is_input then PadIn else PadOut);
          (match pad_channel_anchor p pos with
          | `H (y, x) -> (wrow.(w) <- y; wcol.(w) <- x)
          | `V (x, y) -> (wrow.(w) <- y; wcol.(w) <- x));
          widx.(w) <- k)
        [ true; false ]
    done
  done;
  (* ---------------- PIPs ---------------- *)
  (* Raw pips go into arrays of exactly their count: [raw_pips] runs once
     to count and once to fill. *)
  let count = { n = 0; src = [||]; dst = [||]; bid = [||] } in
  raw_pips l count;
  let nraw = count.n in
  let raw =
    { n = 0; src = Array.make nraw 0; dst = Array.make nraw 0;
      bid = Array.make nraw false }
  in
  raw_pips l raw;
  let pip_src = raw.src and pip_dst = raw.dst and pip_bidir = raw.bid in
  (* Deduplicate (src, dst, kind) triples: a connection is one bit, and
     its first occurrence fixes its pip id.  The pips kept so far are
     chained per destination wire (at most 11 pips enter one wire at
     paper scale, where a long line is the source of 336), so a raw pip
     is checked only against the kept pips with its destination:
     head.(w) is the newest kept pip entering w and next.(k) the one
     kept before k.  Kept pips move down in place to their id (k <= i),
     and each one is counted on the wires whose adjacency lists it. *)
  let head = Array.make nwires (-1) in
  let next = Array.make nraw (-1) in
  let out_cnt = Array.make nwires 0 and in_cnt = Array.make nwires 0 in
  let kept = ref 0 in
  for i = 0 to nraw - 1 do
    let s = pip_src.(i) and d = pip_dst.(i) and bid = pip_bidir.(i) in
    let k = ref head.(d) in
    while !k >= 0 && (pip_src.(!k) <> s || pip_bidir.(!k) <> bid) do
      k := next.(!k)
    done;
    if !k < 0 then begin
      let k = !kept in
      pip_src.(k) <- s;
      pip_dst.(k) <- d;
      pip_bidir.(k) <- bid;
      next.(k) <- head.(d);
      head.(d) <- k;
      kept := k + 1;
      out_cnt.(s) <- out_cnt.(s) + 1;
      in_cnt.(d) <- in_cnt.(d) + 1;
      if bid then begin
        out_cnt.(d) <- out_cnt.(d) + 1;
        in_cnt.(s) <- in_cnt.(s) + 1
      end
    end
  done;
  let npips = !kept in
  let exact a = if npips = nraw then a else Array.sub a 0 npips in
  let pip_src = exact pip_src and pip_dst = exact pip_dst in
  let pip_bidir = exact pip_bidir in
  (* Adjacency: each wire's lists are allocated at their counted size
     and filled from the last pip down, counting back to zero, which
     leaves them in ascending pip id. *)
  let wire_out = Array.init nwires (fun w -> Array.make out_cnt.(w) 0) in
  let wire_in = Array.init nwires (fun w -> Array.make in_cnt.(w) 0) in
  for i = npips - 1 downto 0 do
    let s = pip_src.(i) and d = pip_dst.(i) in
    let c = out_cnt.(s) - 1 in
    out_cnt.(s) <- c;
    wire_out.(s).(c) <- i;
    let c = in_cnt.(d) - 1 in
    in_cnt.(d) <- c;
    wire_in.(d).(c) <- i;
    if pip_bidir.(i) then begin
      let c = out_cnt.(d) - 1 in
      out_cnt.(d) <- c;
      wire_out.(d).(c) <- i;
      let c = in_cnt.(s) - 1 in
      in_cnt.(s) <- c;
      wire_in.(s).(c) <- i
    end
  done;
  {
    params = p; nwires; wkind; wrow; wcol; widx; npips; pip_src; pip_dst;
    pip_bidir; wire_out; wire_in; nbels; bel_row; bel_col; bel_slot; bel_in;
    bel_out; wire_bel; npads; pad_wire; pad_is_input; wire_pad;
  }

let bel_at t ~row ~col ~slot =
  let p = t.params in
  ((row * p.Arch.cols) + col) * Arch.bels_per_tile p + slot

let wire_span t w =
  match t.wkind.(w) with
  | HSingle | VSingle | BelIn | BelOut | PadIn | PadOut -> 1
  | HDouble | VDouble -> 2
  | HLong -> t.params.Arch.cols
  | VLong -> t.params.Arch.rows

let kind_name = function
  | HSingle -> "hs"
  | VSingle -> "vs"
  | HDouble -> "hd"
  | VDouble -> "vd"
  | HLong -> "hl"
  | VLong -> "vl"
  | BelIn -> "belin"
  | BelOut -> "belout"
  | PadIn -> "padin"
  | PadOut -> "padout"

let describe_wire t w =
  Printf.sprintf "%s(%d,%d)#%d" (kind_name t.wkind.(w)) t.wrow.(w) t.wcol.(w)
    t.widx.(w)

let pip_other t i w =
  if t.pip_src.(i) = w then t.pip_dst.(i) else t.pip_src.(i)

let input_pads t =
  let out = ref [] in
  for pid = t.npads - 1 downto 0 do
    if t.pad_is_input.(pid) then out := pid :: !out
  done;
  Array.of_list !out

let output_pads t =
  let out = ref [] in
  for pid = t.npads - 1 downto 0 do
    if not t.pad_is_input.(pid) then out := pid :: !out
  done;
  Array.of_list !out

let check_invariants t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  for i = 0 to t.npips - 1 do
    let s = t.pip_src.(i) and d = t.pip_dst.(i) in
    if s < 0 || s >= t.nwires || d < 0 || d >= t.nwires then
      err "pip %d endpoint out of range" i
    else if s = d then err "pip %d is a self-loop" i
  done;
  let count_out = ref 0 and count_in = ref 0 in
  Array.iter (fun a -> count_out := !count_out + Array.length a) t.wire_out;
  Array.iter (fun a -> count_in := !count_in + Array.length a) t.wire_in;
  let nbidir = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.pip_bidir in
  let expected = t.npips + nbidir in
  if !count_out <> expected then
    err "wire_out covers %d of %d pip slots" !count_out expected;
  if !count_in <> expected then
    err "wire_in covers %d of %d pip slots" !count_in expected;
  Array.iteri
    (fun w pips ->
      Array.iter
        (fun i ->
          let ok =
            t.pip_src.(i) = w || (t.pip_bidir.(i) && t.pip_dst.(i) = w)
          in
          if not ok then err "wire_out mismatch at wire %d" w)
        pips)
    t.wire_out;
  for b = 0 to t.nbels - 1 do
    Array.iter
      (fun w ->
        if t.wire_bel.(w) <> b then err "pin wire %d not owned by bel %d" w b)
      t.bel_in.(b);
    if t.wire_bel.(t.bel_out.(b)) <> b then err "out pin of bel %d unowned" b;
    (* every input pin must be reachable: it needs at least one incoming pip *)
    Array.iter
      (fun w ->
        if Array.length t.wire_in.(w) = 0 then
          err "bel %d input pin %s has no incoming pips" b (describe_wire t w))
      t.bel_in.(b);
    if Array.length t.wire_out.(t.bel_out.(b)) = 0 then
      err "bel %d output pin has no outgoing pips" b
  done;
  for pid = 0 to t.npads - 1 do
    let w = t.pad_wire.(pid) in
    if t.wire_pad.(w) <> pid then err "pad %d wire back-pointer broken" pid;
    if t.pad_is_input.(pid) then begin
      if Array.length t.wire_out.(w) = 0 then err "input pad %d drives nothing" pid
    end
    else if Array.length t.wire_in.(w) = 0 then err "output pad %d unreachable" pid
  done;
  match !errors with
  | [] -> Ok ()
  | es -> Error (List.rev es)
