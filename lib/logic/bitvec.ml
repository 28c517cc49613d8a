type t = {
  w : int;
  v : int; (* invariant: 0 <= v < 2^w *)
}

let mask w = (1 lsl w) - 1

let create ~width v =
  if width < 1 || width > 62 then
    invalid_arg (Printf.sprintf "Bitvec.create: width %d out of [1,62]" width);
  { w = width; v = v land mask width }

let to_unsigned t = t.v

let to_signed t =
  let sign = 1 lsl (t.w - 1) in
  if t.v land sign = 0 then t.v else t.v - (1 lsl t.w)

let of_signed ~width v = create ~width v

let equal a b = a.w = b.w && a.v = b.v

let check_width op a b =
  if a.w <> b.w then
    invalid_arg (Printf.sprintf "Bitvec.%s: width mismatch %d vs %d" op a.w b.w)

let bit t i =
  if i < 0 || i >= t.w then invalid_arg "Bitvec.bit: index out of range";
  (t.v lsr i) land 1 = 1

let set_bit t i b =
  if i < 0 || i >= t.w then invalid_arg "Bitvec.set_bit: index out of range";
  let v = if b then t.v lor (1 lsl i) else t.v land lnot (1 lsl i) in
  { t with v }

let add a b =
  check_width "add" a b;
  { w = a.w; v = (a.v + b.v) land mask a.w }

let neg a = { w = a.w; v = -a.v land mask a.w }

let sub a b =
  check_width "sub" a b;
  { w = a.w; v = (a.v - b.v) land mask a.w }

let mul a b =
  check_width "mul" a b;
  { w = a.w; v = a.v * b.v land mask a.w }

let mul_wide a b =
  let w = a.w + b.w in
  if w > 62 then invalid_arg "Bitvec.mul_wide: result wider than 62 bits";
  create ~width:w (to_signed a * to_signed b)

let shift_left a n =
  if n < 0 then invalid_arg "Bitvec.shift_left: negative shift";
  { w = a.w; v = (a.v lsl n) land mask a.w }

let resize t ~width = create ~width (to_signed t)

let concat_bits bits_lsb_first =
  let w = List.length bits_lsb_first in
  let v, _ =
    List.fold_left
      (fun (acc, i) b -> ((if b then acc lor (1 lsl i) else acc), i + 1))
      (0, 0) bits_lsb_first
  in
  create ~width:(max w 1) v

let bits t = List.init t.w (fun i -> bit t i)

let to_string t = String.init t.w (fun i -> if bit t (t.w - 1 - i) then '1' else '0')
