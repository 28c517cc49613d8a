module Logic = Tmr_logic.Logic

(* VCD identifier codes: printable characters '!'..'~' in a varint-like
   scheme. *)
let code_of_int n =
  let base = 94 in
  let rec go n acc =
    let digit = Char.chr (33 + (n mod base)) in
    let acc = String.make 1 digit ^ acc in
    if n < base then acc else go ((n / base) - 1) acc
  in
  go n ""

let sanitize label =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '[' | ']' -> c
      | _ -> '_')
    label

(* ------------------------------------------------------------------ *)
(* Signals hold caller-supplied Logic values; [tick] renders the change
   block of one cycle.  Fabric-level waveform dumps (tmrtool explain)
   sit on top. *)

type sig_id = int

type wsignal = {
  w_label : string;
  w_code : string;
  w_cur : Logic.t array;  (* LSB first *)
  mutable w_last : string option;
}

type writer = {
  mutable w_signals : wsignal list;  (* reversed *)
  mutable w_next : int;
  mutable w_cycles : string list;  (* rendered change blocks, reversed *)
  mutable w_nticks : int;
  mutable w_started : bool;
}

let writer () =
  { w_signals = []; w_next = 0; w_cycles = []; w_nticks = 0; w_started = false }

let add_signal w ~label ~width =
  if w.w_started then invalid_arg "Vcd.add_signal: sampling already started";
  if width <= 0 then invalid_arg "Vcd.add_signal: width must be positive";
  let code = code_of_int w.w_next in
  w.w_next <- w.w_next + 1;
  w.w_signals <-
    { w_label = label; w_code = code; w_cur = Array.make width Logic.X;
      w_last = None }
    :: w.w_signals;
  List.length w.w_signals - 1

let nth_signal w id =
  let n = List.length w.w_signals in
  if id < 0 || id >= n then invalid_arg "Vcd: unknown signal";
  List.nth w.w_signals (n - 1 - id)

let set w id values =
  let s = nth_signal w id in
  if Array.length values <> Array.length s.w_cur then
    invalid_arg "Vcd.set: width mismatch";
  Array.blit values 0 s.w_cur 0 (Array.length values)

let value_string s =
  (* VCD bit strings are MSB first *)
  let n = Array.length s.w_cur in
  String.init n (fun i ->
      match s.w_cur.(n - 1 - i) with
      | Logic.Zero -> '0'
      | Logic.One -> '1'
      | Logic.X -> 'x')

let tick w =
  w.w_started <- true;
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "#%d\n" w.w_nticks);
  w.w_nticks <- w.w_nticks + 1;
  List.iter
    (fun s ->
      let v = value_string s in
      if s.w_last <> Some v then begin
        s.w_last <- Some v;
        if Array.length s.w_cur = 1 then
          Buffer.add_string buf (Printf.sprintf "%s%s\n" v s.w_code)
        else Buffer.add_string buf (Printf.sprintf "b%s %s\n" v s.w_code)
      end)
    (List.rev w.w_signals);
  w.w_cycles <- Buffer.contents buf :: w.w_cycles

let writer_to_string w =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "$date reproduction run $end\n";
  Buffer.add_string buf "$version tmr-fpga Vcd $end\n";
  Buffer.add_string buf "$timescale 1 ns $end\n";
  Buffer.add_string buf "$scope module dut $end\n";
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "$var wire %d %s %s $end\n"
           (Array.length s.w_cur) s.w_code (sanitize s.w_label)))
    (List.rev w.w_signals);
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  List.iter (Buffer.add_string buf) (List.rev w.w_cycles);
  Buffer.contents buf

let writer_save w path =
  let oc = open_out path in
  output_string oc (writer_to_string w);
  close_out oc
