module Logic = Tmr_logic.Logic
module Bitvec = Tmr_logic.Bitvec
module Netlist = Tmr_netlist.Netlist
module Word = Tmr_netlist.Word
module Levelize = Tmr_netlist.Levelize
module Netsim = Tmr_netlist.Netsim
module Check = Tmr_netlist.Check
module Stats = Tmr_netlist.Stats

let wrap width v =
  let m = 1 lsl width in
  let r = ((v mod m) + m) mod m in
  if r land (1 lsl (width - 1)) <> 0 then r - m else r

let signed_gen width =
  QCheck.Gen.map
    (fun v -> v - (1 lsl (width - 1)))
    (QCheck.Gen.int_bound ((1 lsl width) - 1))

(* Build a combinational two-input circuit, simulate it once, return the
   integer output. *)
let run2 ~width build a b =
  let nl = Netlist.create () in
  let wa = Word.input nl "a" ~width in
  let wb = Word.input nl "b" ~width in
  let wr = build nl wa wb in
  Word.output nl "r" wr;
  Check.run_exn nl;
  let sim = Netsim.create nl in
  Netsim.reset sim;
  Netsim.set_input sim "a" a;
  Netsim.set_input sim "b" b;
  Netsim.eval sim;
  match Netsim.output_int sim "r" with
  | Some v -> v
  | None -> Alcotest.fail "output is X"

let qcheck_add =
  QCheck.Test.make ~count:200 ~name:"word add matches ints"
    (QCheck.make (QCheck.Gen.pair (signed_gen 10) (signed_gen 10)))
    (fun (a, b) -> run2 ~width:10 Word.add a b = wrap 10 (a + b))

let qcheck_sub =
  QCheck.Test.make ~count:200 ~name:"word sub matches ints"
    (QCheck.make (QCheck.Gen.pair (signed_gen 10) (signed_gen 10)))
    (fun (a, b) -> run2 ~width:10 Word.sub a b = wrap 10 (a - b))

let qcheck_bitops =
  QCheck.Test.make ~count:100 ~name:"word and/or/xor/not match ints"
    (QCheck.make (QCheck.Gen.pair (signed_gen 8) (signed_gen 8)))
    (fun (a, b) ->
      run2 ~width:8 Word.bitand a b = wrap 8 (a land b)
      && run2 ~width:8 Word.bitor a b = wrap 8 (a lor b)
      && run2 ~width:8 Word.bitxor a b = wrap 8 (a lxor b)
      && run2 ~width:8 (fun nl x _ -> Word.bitnot nl x) a b = wrap 8 (lnot a))

let qcheck_mul =
  QCheck.Test.make ~count:100 ~name:"word signed multiplier is exact"
    (QCheck.make (QCheck.Gen.pair (signed_gen 6) (signed_gen 6)))
    (fun (a, b) -> run2 ~width:6 (fun nl x y -> Word.mul nl x y) a b = a * b)

let paper_coefficients = [ 1; -1; -9; 6; 73; 120 ]

let qcheck_mul_const =
  QCheck.Test.make ~count:200 ~name:"mul_const matches ints for paper coefficients"
    (QCheck.make (QCheck.Gen.pair (signed_gen 9) (QCheck.Gen.oneofl paper_coefficients)))
    (fun (a, c) ->
      run2 ~width:18
        (fun nl x _ -> Word.mul_const nl (Array.sub x 0 9) c ~width:18)
        a 0
      = wrap 18 (a * c))

let qcheck_mul_const_vs_general =
  (* cross-validation: the shift-and-add constant multiplier must agree
     with the general array multiplier *)
  QCheck.Test.make ~count:150 ~name:"mul_const agrees with general mul"
    (QCheck.make (QCheck.Gen.pair (signed_gen 7) (signed_gen 5)))
    (fun (a, c) ->
      let via_const =
        run2 ~width:12 (fun nl x _ -> Word.mul_const nl (Array.sub x 0 7) c ~width:12) a 0
      in
      let via_general =
        let nl = Netlist.create () in
        let wa = Word.input nl "a" ~width:7 in
        let wc = Word.const nl ~width:5 c in
        let product = Word.mul nl wa wc in
        Word.output nl "r" product;
        let sim = Netsim.create nl in
        Netsim.reset sim;
        Netsim.set_input sim "a" a;
        Netsim.eval sim;
        match Netsim.output_int sim "r" with
        | Some v -> wrap 12 v
        | None -> Alcotest.fail "mul output X"
      in
      via_const = via_general)

let build_datapath_for_level () =
  let nl = Netlist.create () in
  let a = Word.input nl "a" ~width:4 in
  let b = Word.input nl "b" ~width:4 in
  let s = Word.add nl a b in
  let r = Word.reg nl s in
  let t = Word.bitxor nl r s in
  Word.output nl "r" t;
  nl

let test_levelize_order_respects_fanins () =
  let nl = build_datapath_for_level () in
  let lev = Levelize.run_exn nl in
  let pos = Array.make (Netlist.num_cells nl) (-1) in
  Array.iteri (fun i c -> pos.(c) <- i) lev.Levelize.order;
  let sound =
    Netlist.fold_cells nl ~init:true ~f:(fun acc c ->
        acc
        &&
        match Netlist.kind nl c with
        | Netlist.Ff _ | Netlist.Input | Netlist.Const _ -> true
        | Netlist.Output | Netlist.Not | Netlist.And2 | Netlist.Or2
        | Netlist.Xor2 | Netlist.Mux2 | Netlist.Maj3 | Netlist.Lut _ ->
            Array.for_all (fun src -> pos.(src) < pos.(c)) (Netlist.fanins nl c))
  in
  Alcotest.(check bool) "drivers before readers" true sound;
  Alcotest.(check bool) "depth positive" true (lev.Levelize.depth > 0)

let test_netsim_undriven_input_is_x () =
  let nl = Netlist.create () in
  let a = Word.input nl "a" ~width:2 in
  Word.output nl "o" (Word.bitnot nl a);
  let sim = Netsim.create nl in
  Netsim.reset sim;
  Netsim.eval sim;
  Alcotest.(check (option int)) "undriven -> X" None (Netsim.output_int sim "o");
  Netsim.set_input_bits sim "a" [| Logic.One; Logic.X |];
  Netsim.eval sim;
  let bits = Netsim.output_bits sim "o" in
  Alcotest.(check char) "defined bit inverts" '0' (Logic.to_char bits.(0));
  Alcotest.(check char) "x bit stays x" 'X' (Logic.to_char bits.(1))

let test_mul_const_zero () =
  Alcotest.(check int) "x * 0" 0
    (run2 ~width:12 (fun nl x _ -> Word.mul_const nl x 0 ~width:12) 123 0)

let test_mul_const_negative_pow2 () =
  Alcotest.(check int) "x * -8" (-136)
    (run2 ~width:12 (fun nl x _ -> Word.mul_const nl x (-8) ~width:12) 17 0)

let test_resize_sign_extend () =
  Alcotest.(check int) "-5 resized 9->18" (-5)
    (run2 ~width:18
       (fun nl x _ -> Word.resize nl (Array.sub x 0 9) ~width:18)
       (wrap 18 (-5)) 0)

let test_mux2 () =
  let nl = Netlist.create () in
  let sel = Word.input nl "sel" ~width:1 in
  let a = Word.input nl "a" ~width:4 in
  let b = Word.input nl "b" ~width:4 in
  Word.output nl "r" (Word.mux2 nl ~sel:sel.(0) a b);
  let sim = Netsim.create nl in
  Netsim.reset sim;
  Netsim.set_input sim "a" 3;
  Netsim.set_input sim "b" 5;
  Netsim.set_input sim "sel" 0;
  Netsim.eval sim;
  Alcotest.(check (option int)) "sel=0" (Some 3) (Netsim.output_int sim "r");
  Netsim.set_input sim "sel" 1;
  Netsim.eval sim;
  Alcotest.(check (option int)) "sel=1" (Some 5) (Netsim.output_int sim "r")

let test_eq () =
  (* The output is one bit wide, so a true result reads back as -1 in
     two's complement. *)
  let check_eq a b expected =
    let nl = Netlist.create () in
    let wa = Word.input nl "a" ~width:5 in
    let wb = Word.input nl "b" ~width:5 in
    Word.output nl "r" [| Word.eq nl wa wb |];
    let sim = Netsim.create nl in
    Netsim.reset sim;
    Netsim.set_input sim "a" a;
    Netsim.set_input sim "b" b;
    Netsim.eval sim;
    Alcotest.(check (option int))
      (Printf.sprintf "eq %d %d" a b)
      (Some expected) (Netsim.output_int sim "r")
  in
  check_eq 7 7 (-1);
  check_eq 7 9 0;
  check_eq 0 0 (-1)

let test_register_pipeline () =
  let nl = Netlist.create () in
  let a = Word.input nl "a" ~width:8 in
  let r1 = Word.reg nl a in
  let r2 = Word.reg nl r1 in
  Word.output nl "r" r2;
  Check.run_exn nl;
  let sim = Netsim.create nl in
  Netsim.reset sim;
  let inputs = [ 5; -3; 100; 0; 42 ] in
  let outputs = ref [] in
  List.iter
    (fun v ->
      Netsim.set_input sim "a" v;
      Netsim.step sim;
      outputs := Netsim.output_int sim "r" :: !outputs)
    inputs;
  (* After reset both stages hold 0; latency is two cycles.  Outputs are
     sampled after the clock edge. *)
  Alcotest.(check (list (option int)))
    "two-cycle latency"
    [ Some 0; Some 5; Some (-3); Some 100; Some 0 ]
    (List.rev !outputs)

let test_register_init () =
  let nl = Netlist.create () in
  let a = Word.input nl "a" ~width:4 in
  let r = Word.reg nl ~init:9 a in
  Word.output nl "r" r;
  let sim = Netsim.create nl in
  Netsim.reset sim;
  Netsim.eval sim;
  Alcotest.(check (option int)) "init visible before first edge" (Some (-7))
    (Netsim.output_int sim "r")

let test_comb_loop_detected () =
  let nl = Netlist.create () in
  let a = Netlist.add_cell nl Netlist.Input ~fanins:[||] in
  let g1 = Netlist.add_cell nl Netlist.And2 ~fanins:[| a; a |] in
  let g2 = Netlist.add_cell nl Netlist.Or2 ~fanins:[| g1; a |] in
  Netlist.set_fanin nl g1 1 g2;
  (match Levelize.run nl with
  | Ok _ -> Alcotest.fail "loop not detected"
  | Error msg ->
      Alcotest.(check bool) "mentions loop" true
        (String.length msg > 0))

let test_ff_breaks_loop () =
  let nl = Netlist.create () in
  let a = Netlist.add_cell nl Netlist.Input ~fanins:[||] in
  let ff = Netlist.add_cell nl (Netlist.Ff Logic.Zero) ~fanins:[| a |] in
  let g = Netlist.add_cell nl Netlist.Xor2 ~fanins:[| ff; a |] in
  Netlist.set_fanin nl ff 0 g;
  (match Levelize.run nl with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("sequential loop rejected: " ^ msg))

let test_toggle_ff () =
  (* A T-flip-flop built as ff := ff xor 1 must toggle every cycle. *)
  let nl = Netlist.create () in
  let one = Netlist.add_cell nl (Netlist.Const Logic.One) ~fanins:[||] in
  let ff = Netlist.add_cell nl (Netlist.Ff Logic.Zero) ~fanins:[| one |] in
  let g = Netlist.add_cell nl Netlist.Xor2 ~fanins:[| ff; one |] in
  Netlist.set_fanin nl ff 0 g;
  let out = Netlist.add_cell nl Netlist.Output ~fanins:[| ff |] in
  Netlist.add_output_port nl "q" [| out |];
  let sim = Netsim.create nl in
  Netsim.reset sim;
  let values = ref [] in
  for _ = 1 to 4 do
    Netsim.step sim;
    values := Netsim.output_int sim "q" :: !values
  done;
  (* One-bit signed output: logic 1 reads back as -1. *)
  Alcotest.(check (list (option int)))
    "toggles" [ Some (-1); Some 0; Some (-1); Some 0 ]
    (List.rev !values)

let test_check_domain_isolation () =
  let nl = Netlist.create () in
  let a = Netlist.add_cell nl ~domain:0 Netlist.Input ~fanins:[||] in
  let _bad = Netlist.add_cell nl ~domain:1 Netlist.Not ~fanins:[| a |] in
  (match Check.run nl with
  | Ok () -> Alcotest.fail "cross-domain read not caught"
  | Error errs ->
      Alcotest.(check bool) "one error" true (List.length errs >= 1))

let test_check_voter_exempt () =
  let nl = Netlist.create () in
  let mk d = Netlist.add_cell nl ~domain:d Netlist.Input ~fanins:[||] in
  let a = mk 0 and b = mk 1 and c = mk 2 in
  let v =
    Netlist.add_cell nl ~domain:0 ~voter:true Netlist.Maj3 ~fanins:[| a; b; c |]
  in
  let out = Netlist.add_cell nl ~domain:0 Netlist.Output ~fanins:[| v |] in
  Netlist.add_output_port nl "o" [| out |];
  match Check.run nl with
  | Ok () -> ()
  | Error errs -> Alcotest.fail (String.concat "; " errs)

let test_check_voter_must_be_majority () =
  let nl = Netlist.create () in
  let a = Netlist.add_cell nl Netlist.Input ~fanins:[||] in
  let _v = Netlist.add_cell nl ~voter:true Netlist.Not ~fanins:[| a |] in
  match Check.run nl with
  | Ok () -> Alcotest.fail "non-majority voter accepted"
  | Error _ -> ()

let test_lut_eval_x_aware () =
  (* AND LUT: with one X input the output is X only when the other is 1. *)
  let lut = Netlist.lut_of_fun ~arity:2 (fun v -> v.(0) && v.(1)) in
  let eval a b = Netlist.eval_kind (Netlist.Lut lut) [| a; b |] in
  Alcotest.(check char) "0,X -> 0" '0' (Logic.to_char (eval Logic.Zero Logic.X));
  Alcotest.(check char) "1,X -> X" 'X' (Logic.to_char (eval Logic.One Logic.X));
  Alcotest.(check char) "1,1 -> 1" '1' (Logic.to_char (eval Logic.One Logic.One))

let test_lut_of_fun_table () =
  let lut = Netlist.lut_of_fun ~arity:3 (fun v -> (v.(0) && v.(1)) || (v.(0) && v.(2)) || (v.(1) && v.(2))) in
  Alcotest.(check int) "maj3 table" 0b11101000 lut.Netlist.table

let test_ambient_comp () =
  let nl = Netlist.create () in
  Netlist.set_comp nl "top";
  let a = Netlist.add_cell nl Netlist.Input ~fanins:[||] in
  let inner =
    Netlist.with_comp nl "tap3" (fun () ->
        Netlist.add_cell nl Netlist.Not ~fanins:[| a |])
  in
  let after = Netlist.add_cell nl Netlist.Not ~fanins:[| inner |] in
  Alcotest.(check string) "inner" "tap3" (Netlist.comp nl inner);
  Alcotest.(check string) "restored" "top" (Netlist.comp nl after)

let test_fanouts () =
  let nl = Netlist.create () in
  let a = Netlist.add_cell nl Netlist.Input ~fanins:[||] in
  let g1 = Netlist.add_cell nl Netlist.Not ~fanins:[| a |] in
  let g2 = Netlist.add_cell nl Netlist.And2 ~fanins:[| a; g1 |] in
  let fo = Netlist.compute_fanouts nl in
  Alcotest.(check (list int)) "a feeds g1 g2" [ g1; g2 ] (List.sort compare fo.(a));
  Alcotest.(check (list int)) "g1 feeds g2" [ g2 ] fo.(g1);
  Alcotest.(check (list int)) "g2 feeds none" [] fo.(g2)

let test_stats () =
  let nl = Netlist.create () in
  let a = Word.input nl "a" ~width:2 in
  let b = Word.input nl "b" ~width:2 in
  let s = Word.add nl a b in
  let r = Word.reg nl s in
  Word.output nl "r" r;
  let st = Stats.compute nl in
  Alcotest.(check int) "inputs" 4 st.Stats.inputs;
  Alcotest.(check int) "outputs" 2 st.Stats.outputs;
  Alcotest.(check int) "ffs" 2 st.Stats.ffs;
  Alcotest.(check bool) "gates > 0" true (st.Stats.gates > 0);
  Alcotest.(check int) "no voters" 0 st.Stats.voters

let test_bad_fanin_rejected () =
  let nl = Netlist.create () in
  Alcotest.(check bool) "bad fanin id" true
    (try
       ignore (Netlist.add_cell nl Netlist.Not ~fanins:[| 5 |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad arity" true
    (try
       ignore (Netlist.add_cell nl Netlist.And2 ~fanins:[||]);
       false
     with Invalid_argument _ -> true)

let test_vcd_dump () =
  let module Vcd = Tmr_netlist.Vcd in
  let nl = build_datapath_for_level () in
  let sim = Netsim.create nl in
  Netsim.reset sim;
  let w = Vcd.writer () in
  (* every port, and one flip-flop too *)
  let ff = ref (-1) in
  Netlist.iter_cells nl (fun c ->
      match Netlist.kind nl c with
      | Netlist.Ff _ when !ff < 0 -> ff := c
      | _ -> ());
  let traced =
    List.map
      (fun (label, cells) ->
        (Vcd.add_signal w ~label ~width:(Array.length cells), cells))
      (Netlist.input_ports nl @ Netlist.output_ports nl @ [ ("r0", [| !ff |]) ])
  in
  List.iter
    (fun (a, b) ->
      Netsim.set_input sim "a" a;
      Netsim.set_input sim "b" b;
      Netsim.eval sim;
      List.iter
        (fun (id, cells) -> Vcd.set w id (Array.map (Netsim.value sim) cells))
        traced;
      Vcd.tick w;
      Netsim.clock sim)
    [ (1, 2); (3, 4); (3, 4); (0, 0) ];
  let path = Filename.temp_file "tmr" ".vcd" in
  Vcd.writer_save w path;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let has needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "header" true (has "$enddefinitions");
  Alcotest.(check bool) "declares ports" true (has "$var wire 4 ! a $end");
  Alcotest.(check bool) "declares watch" true (has "$var wire 1 $ r0 $end");
  Alcotest.(check bool) "first cycle, MSB first" true (has "#0\nb0001 !\nb0010 \"\n");
  Alcotest.(check bool) "four cycles" true (has "#3");
  (* the repeated inputs of cycle 2 emit no change of a or b *)
  Alcotest.(check bool) "unchanged vectors not re-emitted" false
    (has "#2\nb0011 !")

let () =
  Alcotest.run "tmr_netlist"
    [
      ( "word-arith",
        [
          QCheck_alcotest.to_alcotest qcheck_add;
          QCheck_alcotest.to_alcotest qcheck_sub;
          QCheck_alcotest.to_alcotest qcheck_bitops;
          QCheck_alcotest.to_alcotest qcheck_mul;
          QCheck_alcotest.to_alcotest qcheck_mul_const;
          QCheck_alcotest.to_alcotest qcheck_mul_const_vs_general;
          Alcotest.test_case "mul_const by zero" `Quick test_mul_const_zero;
          Alcotest.test_case "mul_const negative power of two" `Quick
            test_mul_const_negative_pow2;
          Alcotest.test_case "resize sign-extends" `Quick test_resize_sign_extend;
          Alcotest.test_case "mux2" `Quick test_mux2;
          Alcotest.test_case "eq" `Quick test_eq;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "register pipeline latency" `Quick
            test_register_pipeline;
          Alcotest.test_case "register init value" `Quick test_register_init;
          Alcotest.test_case "toggle flip-flop" `Quick test_toggle_ff;
        ] );
      ( "levelize",
        [
          Alcotest.test_case "combinational loop detected" `Quick
            test_comb_loop_detected;
          Alcotest.test_case "ff breaks loop" `Quick test_ff_breaks_loop;
          Alcotest.test_case "order respects fanins" `Quick
            test_levelize_order_respects_fanins;
        ] );
      ( "netsim-x",
        [
          Alcotest.test_case "undriven inputs read X" `Quick
            test_netsim_undriven_input_is_x;
        ] );
      ( "vcd",
        [
          Alcotest.test_case "waveform dump" `Quick test_vcd_dump;
        ] );
      ( "check",
        [
          Alcotest.test_case "domain isolation enforced" `Quick
            test_check_domain_isolation;
          Alcotest.test_case "voters exempt from isolation" `Quick
            test_check_voter_exempt;
          Alcotest.test_case "voter must be majority" `Quick
            test_check_voter_must_be_majority;
        ] );
      ( "cells",
        [
          Alcotest.test_case "lut eval is X-aware" `Quick test_lut_eval_x_aware;
          Alcotest.test_case "lut_of_fun builds maj3 table" `Quick
            test_lut_of_fun_table;
          Alcotest.test_case "ambient component labels" `Quick test_ambient_comp;
          Alcotest.test_case "fanouts" `Quick test_fanouts;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "bad fanins rejected" `Quick test_bad_fanin_rejected;
        ] );
    ]
