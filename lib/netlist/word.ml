module Logic = Tmr_logic.Logic

type word = Netlist.id array

let input t port_name ~width =
  let bits =
    Array.init width (fun i ->
        Netlist.add_cell t ~name:(Printf.sprintf "%s[%d]" port_name i)
          Netlist.Input ~fanins:[||])
  in
  Netlist.add_input_port t port_name bits;
  bits

let output t port_name w =
  let bits =
    Array.mapi
      (fun i src ->
        Netlist.add_cell t ~name:(Printf.sprintf "%s[%d]" port_name i)
          Netlist.Output ~fanins:[| src |])
      w
  in
  Netlist.add_output_port t port_name bits

let const t ~width v =
  Array.init width (fun i ->
      let b = (v asr i) land 1 = 1 in
      Netlist.add_cell t (Netlist.Const (Logic.of_bool b)) ~fanins:[||])

let map2 t kind a b =
  if Array.length a <> Array.length b then
    invalid_arg "Word: width mismatch";
  Array.map2 (fun x y -> Netlist.add_cell t kind ~fanins:[| x; y |]) a b

let bitnot t a = Array.map (fun x -> Netlist.add_cell t Netlist.Not ~fanins:[| x |]) a
let bitand t a b = map2 t Netlist.And2 a b
let bitor t a b = map2 t Netlist.Or2 a b
let bitxor t a b = map2 t Netlist.Xor2 a b

(* Full adder: sum = a ^ b ^ cin, cout = maj3 (a, b, cin). *)
let full_adder t a b cin =
  let axb = Netlist.add_cell t Netlist.Xor2 ~fanins:[| a; b |] in
  let sum = Netlist.add_cell t Netlist.Xor2 ~fanins:[| axb; cin |] in
  let cout = Netlist.add_cell t Netlist.Maj3 ~fanins:[| a; b; cin |] in
  (sum, cout)

let add_with_carry t a b cin =
  if Array.length a <> Array.length b then invalid_arg "Word.add: width mismatch";
  let n = Array.length a in
  let out = Array.make n 0 in
  let carry = ref cin in
  for i = 0 to n - 1 do
    let sum, cout = full_adder t a.(i) b.(i) !carry in
    out.(i) <- sum;
    carry := cout
  done;
  out

let zero_bit t = Netlist.add_cell t (Netlist.Const Logic.Zero) ~fanins:[||]
let one_bit t = Netlist.add_cell t (Netlist.Const Logic.One) ~fanins:[||]

let add t a b = add_with_carry t a b (zero_bit t)

let sub t a b = add_with_carry t a (bitnot t b) (one_bit t)

let neg t a =
  let zero = const t ~width:(Array.length a) 0 in
  sub t zero a

let resize _t w ~width:target =
  let n = Array.length w in
  if target <= n then Array.sub w 0 target
  else Array.init target (fun i -> if i < n then w.(i) else w.(n - 1))

let shift_left_const t w k =
  if k < 0 then invalid_arg "Word.shift_left_const: negative shift";
  let n = Array.length w in
  Array.init n (fun i -> if i < k then zero_bit t else w.(i - k))

let mul_const t a c ~width:target =
  let a = resize t a ~width:target in
  if c = 0 then const t ~width:target 0
  else begin
    let negative = c < 0 in
    let m = abs c in
    let terms = ref [] in
    let rec collect k =
      if 1 lsl k <= m then begin
        if (m lsr k) land 1 = 1 then terms := shift_left_const t a k :: !terms;
        collect (k + 1)
      end
    in
    collect 0;
    let sum =
      match !terms with
      | [] -> assert false
      | first :: rest -> List.fold_left (fun acc term -> add t acc term) first rest
    in
    if negative then neg t sum else sum
  end

(* Signed array multiplier (Baugh-Wooley style via sign-extended partial
   products at full result width; simple and correct, if not minimal). *)
let mul t a b =
  let wa = Array.length a and wb = Array.length b in
  let wr = wa + wb in
  let a_ext = resize t a ~width:wr in
  let acc = ref (const t ~width:wr 0) in
  for i = 0 to wb - 1 do
    let shifted = shift_left_const t a_ext i in
    let masked = Array.map (fun bit -> Netlist.add_cell t Netlist.And2 ~fanins:[| bit; b.(i) |]) shifted in
    if i = wb - 1 then
      (* MSB of b has negative weight in two's complement. *)
      acc := sub t !acc masked
    else acc := add t !acc masked
  done;
  !acc

let mux2 t ~sel a b =
  if Array.length a <> Array.length b then invalid_arg "Word.mux2: width mismatch";
  Array.map2
    (fun x y -> Netlist.add_cell t Netlist.Mux2 ~fanins:[| sel; x; y |])
    a b

let eq t a b =
  let diffs = bitxor t a b in
  let any =
    Array.fold_left
      (fun acc d ->
        match acc with
        | None -> Some d
        | Some acc -> Some (Netlist.add_cell t Netlist.Or2 ~fanins:[| acc; d |]))
      None diffs
  in
  match any with
  | None -> one_bit t
  | Some any -> Netlist.add_cell t Netlist.Not ~fanins:[| any |]

let reg t ?(init = 0) w =
  Array.mapi
    (fun i d ->
      let init_bit = Logic.of_bool ((init asr i) land 1 = 1) in
      Netlist.add_cell t (Netlist.Ff init_bit) ~fanins:[| d |])
    w
