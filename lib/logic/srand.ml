(* The state lives unboxed in an 8-byte buffer (native byte order: it is
   never serialised), and every step is inlined down to its int result,
   so drawing a number allocates nothing. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state z =
  let t = Bytes.create 8 in
  set64 t 0 z;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix64 s

let split t = of_state (bits64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Srand.int: bound must be positive";
  (* Take 62 non-negative bits and reduce; bias is negligible for the bounds
     used in this project (all far below 2^31). *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let float t bound =
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int v /. 9007199254740992.0 *. bound

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample t n m =
  let n = min n m in
  if n <= 0 then [||]
  else if n * 3 >= m then begin
    (* dense: partial Fisher-Yates over the full range *)
    let a = Array.init m (fun i -> i) in
    for i = 0 to n - 1 do
      let j = i + int t (m - i) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.sub a 0 n
  end
  else begin
    (* sparse: rejection sampling *)
    let seen = Hashtbl.create (2 * n) in
    let out = Array.make n 0 in
    let rec draw k =
      if k < n then begin
        let v = int t m in
        if Hashtbl.mem seen v then draw k
        else begin
          Hashtbl.add seen v ();
          out.(k) <- v;
          draw (k + 1)
        end
      end
    in
    draw 0;
    out
  end

let pick t a =
  if Array.length a = 0 then invalid_arg "Srand.pick: empty array";
  a.(int t (Array.length a))
