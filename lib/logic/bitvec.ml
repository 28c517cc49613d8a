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

module Lanemask = struct
  (* 32 bits per array word so a mask word always fits the tagged-int
     range on every platform the batch engine targets; the tail word
     keeps its unused high bits zero as an invariant, so popcount and
     word-level union/intersection never need defensive masking. *)
  let bits_per_word = 32

  type nonrec t = {
    n : int;
    words : int array; (* invariant: bits >= n are 0 *)
  }

  let nwords n = (n + bits_per_word - 1) / bits_per_word

  let word_mask n w =
    let hi = min bits_per_word (n - (w * bits_per_word)) in
    (1 lsl hi) - 1

  let create n =
    if n < 1 then invalid_arg "Bitvec.Lanemask.create: length < 1";
    { n; words = Array.make (nwords n) 0 }

  let length t = t.n
  let num_words t = Array.length t.words

  let check t i op =
    if i < 0 || i >= t.n then
      invalid_arg (Printf.sprintf "Bitvec.Lanemask.%s: lane %d out of [0,%d)" op i t.n)

  let get t i =
    check t i "get";
    (t.words.(i lsr 5) lsr (i land 31)) land 1 = 1

  let set t i =
    check t i "set";
    let w = i lsr 5 in
    t.words.(w) <- t.words.(w) lor (1 lsl (i land 31))

  let clear t i =
    check t i "clear";
    let w = i lsr 5 in
    t.words.(w) <- t.words.(w) land lnot (1 lsl (i land 31))

  let set_all t =
    for w = 0 to Array.length t.words - 1 do
      t.words.(w) <- word_mask t.n w
    done

  let word t w = t.words.(w)

  let set_word t w v =
    (* stores only the bits that exist: the tail word is masked so the
       zero-padding invariant holds whatever [v] carries above it *)
    t.words.(w) <- v land word_mask t.n w

  let pop_int v =
    let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + (v land 1)) in
    go v 0

  let popcount t = Array.fold_left (fun acc w -> acc + pop_int w) 0 t.words

  let is_empty t = Array.for_all (fun w -> w = 0) t.words

  let first_set t =
    let rec scan w =
      if w = Array.length t.words then -1
      else if t.words.(w) = 0 then scan (w + 1)
      else
        let rec bit i = if (t.words.(w) lsr i) land 1 = 1 then i else bit (i + 1) in
        (w * bits_per_word) + bit 0
    in
    scan 0

  let check_pair a b op =
    if a.n <> b.n then
      invalid_arg
        (Printf.sprintf "Bitvec.Lanemask.%s: length mismatch %d vs %d" op a.n b.n)

  let union_into ~into src =
    check_pair into src "union_into";
    for w = 0 to Array.length into.words - 1 do
      into.words.(w) <- into.words.(w) lor src.words.(w)
    done

  let inter_into ~into src =
    check_pair into src "inter_into";
    for w = 0 to Array.length into.words - 1 do
      into.words.(w) <- into.words.(w) land src.words.(w)
    done

  let diff_into ~into src =
    check_pair into src "diff_into";
    for w = 0 to Array.length into.words - 1 do
      into.words.(w) <- into.words.(w) land lnot src.words.(w)
    done

  let copy t = { n = t.n; words = Array.copy t.words }

  let equal a b = a.n = b.n && a.words = b.words

  let iter f t =
    for w = 0 to Array.length t.words - 1 do
      let bits = ref t.words.(w) in
      while !bits <> 0 do
        let i = !bits land - !bits in
        f ((w * bits_per_word) + pop_int (i - 1));
        bits := !bits land lnot i
      done
    done
end
