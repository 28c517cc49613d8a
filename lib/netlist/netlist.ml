module Logic = Tmr_logic.Logic

type id = int

type lut = {
  arity : int;
  table : int;
}

type kind =
  | Input
  | Output
  | Const of Logic.t
  | Not
  | And2
  | Or2
  | Xor2
  | Mux2
  | Maj3
  | Lut of lut
  | Ff of Logic.t

type t = {
  mutable kinds : kind array;
  mutable fanin : id array array;
  mutable names : string array;
  mutable comps : string array;
  mutable domains : int array;
  mutable voters : bool array;
  mutable n : int;
  mutable ambient_comp : string;
  mutable in_ports : (string * id array) list; (* reversed *)
  mutable out_ports : (string * id array) list; (* reversed *)
}

let create () =
  {
    kinds = Array.make 64 Input;
    fanin = Array.make 64 [||];
    names = Array.make 64 "";
    comps = Array.make 64 "";
    domains = Array.make 64 (-1);
    voters = Array.make 64 false;
    n = 0;
    ambient_comp = "";
    in_ports = [];
    out_ports = [];
  }

let num_cells t = t.n

let grow t =
  let cap = Array.length t.kinds in
  if t.n >= cap then begin
    let cap' = 2 * cap in
    let extend a fill = Array.append a (Array.make cap fill) in
    t.kinds <- extend t.kinds Input;
    t.fanin <- extend t.fanin [||];
    t.names <- extend t.names "";
    t.comps <- extend t.comps "";
    t.domains <- extend t.domains (-1);
    t.voters <- extend t.voters false;
    ignore cap'
  end

let arity_of_kind = function
  | Input | Const _ -> 0
  | Output | Not | Ff _ -> 1
  | And2 | Or2 | Xor2 -> 2
  | Mux2 | Maj3 -> 3
  | Lut { arity; _ } -> arity

let add_cell t ?(name = "") ?(domain = -1) ?(voter = false) kind ~fanins =
  let expected = arity_of_kind kind in
  if Array.length fanins <> expected then
    invalid_arg
      (Printf.sprintf "Netlist.add_cell: kind needs %d fanins, got %d" expected
         (Array.length fanins));
  Array.iter
    (fun src ->
      if src < 0 || src >= t.n then
        invalid_arg (Printf.sprintf "Netlist.add_cell: bad fanin id %d" src))
    fanins;
  (match kind with
  | Lut { arity; table } ->
      if arity < 1 || arity > 4 then invalid_arg "Netlist.add_cell: LUT arity";
      if table < 0 || table >= 1 lsl (1 lsl arity) then
        invalid_arg "Netlist.add_cell: LUT table out of range"
  | Input | Output | Const _ | Not | And2 | Or2 | Xor2 | Mux2 | Maj3 | Ff _ ->
      ());
  grow t;
  let id = t.n in
  t.kinds.(id) <- kind;
  t.fanin.(id) <- fanins;
  t.names.(id) <- name;
  t.comps.(id) <- t.ambient_comp;
  t.domains.(id) <- domain;
  t.voters.(id) <- voter;
  t.n <- id + 1;
  id

let check_id t c =
  if c < 0 || c >= t.n then invalid_arg (Printf.sprintf "Netlist: bad id %d" c)

let kind t c = check_id t c; t.kinds.(c)
let fanins t c = check_id t c; t.fanin.(c)

let set_fanin t c i src =
  check_id t c;
  check_id t src;
  let f = t.fanin.(c) in
  if i < 0 || i >= Array.length f then
    invalid_arg "Netlist.set_fanin: slot out of range";
  f.(i) <- src

let name t c = check_id t c; t.names.(c)
let comp t c = check_id t c; t.comps.(c)
let domain t c = check_id t c; t.domains.(c)
let is_voter t c = check_id t c; t.voters.(c)

let set_comp t label = t.ambient_comp <- label

let with_comp t label f =
  let saved = t.ambient_comp in
  t.ambient_comp <- label;
  match f () with
  | v ->
      t.ambient_comp <- saved;
      v
  | exception e ->
      t.ambient_comp <- saved;
      raise e

let add_input_port t port_name bits =
  Array.iter
    (fun c ->
      check_id t c;
      match t.kinds.(c) with
      | Input -> ()
      | _ -> invalid_arg "Netlist.add_input_port: bit is not an Input cell")
    bits;
  t.in_ports <- (port_name, bits) :: t.in_ports

let add_output_port t port_name bits =
  Array.iter
    (fun c ->
      check_id t c;
      match t.kinds.(c) with
      | Output -> ()
      | _ -> invalid_arg "Netlist.add_output_port: bit is not an Output cell")
    bits;
  t.out_ports <- (port_name, bits) :: t.out_ports

let input_ports t = List.rev t.in_ports
let output_ports t = List.rev t.out_ports

let find_port ports what port_name =
  match List.assoc_opt port_name ports with
  | Some bits -> bits
  | None -> invalid_arg (Printf.sprintf "Netlist: no %s port %S" what port_name)

let find_input_port t port_name = find_port t.in_ports "input" port_name
let find_output_port t port_name = find_port t.out_ports "output" port_name

let iter_cells t f =
  for c = 0 to t.n - 1 do
    f c
  done

let fold_cells t ~init ~f =
  let acc = ref init in
  for c = 0 to t.n - 1 do
    acc := f !acc c
  done;
  !acc

let compute_fanouts t =
  let out = Array.make t.n [] in
  for c = t.n - 1 downto 0 do
    Array.iter (fun src -> out.(src) <- c :: out.(src)) t.fanin.(c)
  done;
  out

let eval_lut { arity; table } vs =
  (* If some inputs are X, the output is defined only when the table agrees
     on every completion of the unknown bits. *)
  let rec scan i idx =
    if i >= arity then Logic.of_bool ((table lsr idx) land 1 = 1)
    else
      match vs.(i) with
      | Logic.Zero -> scan (i + 1) idx
      | Logic.One -> scan (i + 1) (idx lor (1 lsl i))
      | Logic.X ->
          let a = scan (i + 1) idx in
          let b = scan (i + 1) (idx lor (1 lsl i)) in
          if Logic.equal a b then a else Logic.X
  in
  scan 0 0

let eval_kind k vs =
  match k with
  | Input -> invalid_arg "Netlist.eval_kind: Input has no combinational value"
  | Output | Ff _ -> vs.(0)
  | Const v -> v
  | Not -> Logic.logic_not vs.(0)
  | And2 -> Logic.( &&& ) vs.(0) vs.(1)
  | Or2 -> Logic.( ||| ) vs.(0) vs.(1)
  | Xor2 -> Logic.logic_xor vs.(0) vs.(1)
  | Mux2 -> Logic.mux ~sel:vs.(0) vs.(1) vs.(2)
  | Maj3 -> Logic.maj3 vs.(0) vs.(1) vs.(2)
  | Lut l -> eval_lut l vs

let lut_of_fun ~arity f =
  if arity < 1 || arity > 4 then invalid_arg "Netlist.lut_of_fun: arity";
  let table = ref 0 in
  for idx = 0 to (1 lsl arity) - 1 do
    let ins = Array.init arity (fun i -> (idx lsr i) land 1 = 1) in
    if f ins then table := !table lor (1 lsl idx)
  done;
  { arity; table = !table }

let pp_kind ppf = function
  | Input -> Format.pp_print_string ppf "input"
  | Output -> Format.pp_print_string ppf "output"
  | Const v -> Format.fprintf ppf "const:%c" (Logic.to_char v)
  | Not -> Format.pp_print_string ppf "not"
  | And2 -> Format.pp_print_string ppf "and2"
  | Or2 -> Format.pp_print_string ppf "or2"
  | Xor2 -> Format.pp_print_string ppf "xor2"
  | Mux2 -> Format.pp_print_string ppf "mux2"
  | Maj3 -> Format.pp_print_string ppf "maj3"
  | Lut { arity; table } -> Format.fprintf ppf "lut%d:%04x" arity table
  | Ff init -> Format.fprintf ppf "ff:%c" (Logic.to_char init)
