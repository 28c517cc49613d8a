(* [Device.build] as it was before it wrote the raw pips into exact-size
   arrays and chained the dedup per destination wire, kept verbatim as
   the reference: every pip id and adjacency order, and so every route
   and bit address, must come out the same. *)
module Arch = Tmr_arch.Arch
open Tmr_arch.Device

(* Growable int vector, used while the final sizes are unknown. *)
module Ivec = struct
  type t = {
    mutable a : int array;
    mutable n : int;
  }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push t v =
    if t.n >= Array.length t.a then
      t.a <- Array.append t.a (Array.make (Array.length t.a) 0);
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

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
  let src_v = Ivec.create () and dst_v = Ivec.create () in
  let bid_v = Ivec.create () in
  (* directional (buffered) pip: a drives b *)
  let pip a b = Ivec.push src_v a; Ivec.push dst_v b; Ivec.push bid_v 0 in
  (* bidirectional (pass-transistor) pip: a and b are shorted when on.
     Canonical endpoint order avoids duplicates. *)
  let bidir a b =
    let a, b = if a <= b then (a, b) else (b, a) in
    Ivec.push src_v a; Ivec.push dst_v b; Ivec.push bid_v 1
  in
  (* Switch boxes: points (y, x), y in 0..rows, x in 0..cols. *)
  for y = 0 to p.rows do
    for x = 0 to p.cols do
      (* disjoint pattern: same-track clique across the four sides *)
      for i = 0 to p.ch_singles - 1 do
        let incident = ref [] in
        if x - 1 >= 0 then incident := hs l y (x - 1) i :: !incident;
        if x <= p.cols - 1 then incident := hs l y x i :: !incident;
        if y - 1 >= 0 then incident := vs l x (y - 1) i :: !incident;
        if y <= p.rows - 1 then incident := vs l x y i :: !incident;
        let ws = !incident in
        List.iter
          (fun a -> List.iter (fun b -> if a < b then bidir a b) ws)
          ws
      done;
      (* Wilton-style rotating turns: track i turns onto track i+1, so the
         graph is not partitioned per track index *)
      for i = 0 to p.ch_singles - 1 do
        let i' = (i + 1) mod p.ch_singles in
        if x - 1 >= 0 && y <= p.rows - 1 then
          bidir (hs l y (x - 1) i) (vs l x y i');
        if x <= p.cols - 1 && y - 1 >= 0 then
          bidir (hs l y x i) (vs l x (y - 1) i')
      done;
      (* doubles: straight-through, turns, and transfers to singles *)
      for j = 0 to p.ch_doubles - 1 do
        let hw = if x - 2 >= 0 then Some (hd l y (x - 2) j) else None in
        let he = if x <= p.cols - 1 then Some (hd l y x j) else None in
        let vsou = if y - 2 >= 0 then Some (vd l x (y - 2) j) else None in
        let vno = if y <= p.rows - 1 then Some (vd l x y j) else None in
        let opt2 f a b = match a, b with Some a, Some b -> f a b | _ -> () in
        opt2 bidir hw he;
        opt2 bidir vsou vno;
        opt2 bidir hw vno;
        opt2 bidir he vsou;
        (* transfer to the same-index single at this point *)
        let single_here =
          if x <= p.cols - 1 then Some (hs l y x j)
          else if x - 1 >= 0 then Some (hs l y (x - 1) j)
          else None
        in
        let vsingle_here =
          if y <= p.rows - 1 then Some (vs l x y j)
          else if y - 1 >= 0 then Some (vs l x (y - 1) j)
          else None
        in
        List.iter
          (fun d ->
            opt2 bidir d single_here;
            opt2 bidir d vsingle_here)
          [ hw; he; vsou; vno ]
        |> ignore
      done;
      (* long-line taps *)
      if x mod p.long_tap_period = 0 then
        for k = 0 to p.ch_longs - 1 do
          if x <= p.cols - 1 then bidir (hl l y k) (hs l y x k)
        done;
      if y mod p.long_tap_period = 0 then
        for k = 0 to p.ch_longs - 1 do
          if y <= p.rows - 1 then bidir (vl l x k) (vs l x y k)
        done
    done
  done;
  (* Connection boxes: tile (r, c) uses H channel y=r segment x=c and
     V channel x=c segment y=r. *)
  let scatter base span salt = (base + salt) mod span in
  for r = 0 to p.rows - 1 do
    for c = 0 to p.cols - 1 do
      for slot = 0 to bpt - 1 do
        let b = bel_id l r c slot in
        (* input pins: odd stride over the tracks so the option set of each
           pin mixes parities and differs across slots and pins *)
        for j = 0 to p.lut_inputs - 1 do
          let pw = bel_in.(b).(j) in
          let salt = (slot * 7) + (j * 5) + r + c in
          for k = 0 to p.cb_in_singles - 1 do
            if k mod 2 = 0 then
              pip (hs l r c (scatter (k * 3) p.ch_singles salt)) pw
            else pip (vs l c r (scatter (k * 3) p.ch_singles salt)) pw
          done;
          (* one double and one long tap per pin *)
          pip (hd l r c ((slot + j + c) mod p.ch_doubles)) pw;
          if j mod 2 = 0 then pip (hl l r (j mod p.ch_longs)) pw
          else pip (vl l c (j mod p.ch_longs)) pw
        done;
        (* output pin *)
        let ow = bel_out.(b) in
        let osalt = (slot * 13) + r + c in
        for k = 0 to p.cb_out_singles - 1 do
          pip ow (hs l r c (scatter (k * 3) p.ch_singles osalt));
          pip ow (vs l c r (scatter ((k * 3) + 1) p.ch_singles osalt))
        done;
        pip ow (hd l r c (slot mod p.ch_doubles));
        pip ow (vd l c r ((slot + 1) mod p.ch_doubles))
      done
    done
  done;
  (* Pads *)
  for pos = 0 to l.pad_positions - 1 do
    for k = 0 to p.pads_per_position - 1 do
      let inw = pad_id_wire l pos k true in
      let outw = pad_id_wire l pos k false in
      let connect_channel tracks =
        List.iter
          (fun w ->
            pip inw w;
            pip w outw)
          tracks
      in
      match pad_channel_anchor p pos with
      | `H (y, x) ->
          connect_channel
            (List.init 4 (fun t -> hs l y x ((t * 3 + k + pos) mod p.ch_singles)))
      | `V (x, y) ->
          connect_channel
            (List.init 4 (fun t -> vs l x y ((t * 3 + k + pos) mod p.ch_singles)))
    done
  done;
  (* Deduplicate (src, dst, kind) triples: a connection is one bit, and
     its first occurrence fixes its pip id.  The pips kept so far are
     chained per source wire, so a raw pip is checked only against the
     few kept pips that share its source: head.(w) is the newest kept pip
     leaving w, and kept pip k stores its (dst, kind) key at
     link.(2k) and the pip kept before it from the same source at
     link.(2k+1), next to each other for the chain walk. *)
  let head = Array.make nwires (-1) in
  let link = Ivec.create () in
  let kept_src = Ivec.create () in
  for i = 0 to src_v.Ivec.n - 1 do
    let s = src_v.Ivec.a.(i) in
    let key = (dst_v.Ivec.a.(i) * 2) + bid_v.Ivec.a.(i) in
    let k = ref head.(s) in
    while !k >= 0 && link.Ivec.a.(2 * !k) <> key do
      k := link.Ivec.a.((2 * !k) + 1)
    done;
    if !k < 0 then begin
      Ivec.push link key;
      Ivec.push link head.(s);
      head.(s) <- kept_src.Ivec.n;
      Ivec.push kept_src s
    end
  done;
  let pip_src = Ivec.to_array kept_src in
  let npips = Array.length pip_src in
  let pip_dst = Array.init npips (fun k -> link.Ivec.a.(2 * k) lsr 1) in
  let pip_bidir =
    Array.init npips (fun k -> link.Ivec.a.(2 * k) land 1 = 1)
  in
  (* adjacency *)
  let out_cnt = Array.make nwires 0 and in_cnt = Array.make nwires 0 in
  for i = 0 to npips - 1 do
    out_cnt.(pip_src.(i)) <- out_cnt.(pip_src.(i)) + 1;
    in_cnt.(pip_dst.(i)) <- in_cnt.(pip_dst.(i)) + 1;
    if pip_bidir.(i) then begin
      out_cnt.(pip_dst.(i)) <- out_cnt.(pip_dst.(i)) + 1;
      in_cnt.(pip_src.(i)) <- in_cnt.(pip_src.(i)) + 1
    end
  done;
  let wire_out = Array.init nwires (fun w -> Array.make out_cnt.(w) 0) in
  let wire_in = Array.init nwires (fun w -> Array.make in_cnt.(w) 0) in
  Array.fill out_cnt 0 nwires 0;
  Array.fill in_cnt 0 nwires 0;
  for i = 0 to npips - 1 do
    let s = pip_src.(i) and d = pip_dst.(i) in
    wire_out.(s).(out_cnt.(s)) <- i;
    out_cnt.(s) <- out_cnt.(s) + 1;
    wire_in.(d).(in_cnt.(d)) <- i;
    in_cnt.(d) <- in_cnt.(d) + 1;
    if pip_bidir.(i) then begin
      wire_out.(d).(out_cnt.(d)) <- i;
      out_cnt.(d) <- out_cnt.(d) + 1;
      wire_in.(s).(in_cnt.(s)) <- i;
      in_cnt.(s) <- in_cnt.(s) + 1
    end
  done;
  {
    params = p; nwires; wkind; wrow; wcol; widx; npips; pip_src; pip_dst;
    pip_bidir; wire_out; wire_in; nbels; bel_row; bel_col; bel_slot; bel_in;
    bel_out; wire_bel; npads; pad_wire; pad_is_input; wire_pad;
  }

