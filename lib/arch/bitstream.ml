type t = {
  nbits : int;
  data : Bytes.t;
}

let create ~nbits = { nbits; data = Bytes.make ((nbits + 7) / 8) '\000' }

let length t = t.nbits

let check t a =
  if a < 0 || a >= t.nbits then
    invalid_arg (Printf.sprintf "Bitstream: address %d out of %d" a t.nbits)

let get t a =
  check t a;
  Char.code (Bytes.get t.data (a lsr 3)) land (1 lsl (a land 7)) <> 0

let set t a v =
  check t a;
  let byte = Char.code (Bytes.get t.data (a lsr 3)) in
  let mask = 1 lsl (a land 7) in
  let byte' = if v then byte lor mask else byte land lnot mask in
  Bytes.set t.data (a lsr 3) (Char.chr (byte' land 0xff))

let flip t a = set t a (not (get t a))

let copy t = { nbits = t.nbits; data = Bytes.copy t.data }

let popcount t =
  let count = ref 0 in
  for i = 0 to Bytes.length t.data - 1 do
    let b = Char.code (Bytes.get t.data i) in
    let rec pop v acc = if v = 0 then acc else pop (v lsr 1) (acc + (v land 1)) in
    count := !count + pop b 0
  done;
  !count

let diff a b =
  if a.nbits <> b.nbits then invalid_arg "Bitstream.diff: size mismatch";
  let out = ref [] in
  for i = a.nbits - 1 downto 0 do
    if get a i <> get b i then out := i :: !out
  done;
  !out

let to_hex t =
  let buf = Buffer.create (2 * Bytes.length t.data) in
  Bytes.iter (fun b -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code b))) t.data;
  Buffer.contents buf
