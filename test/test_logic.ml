module Logic = Tmr_logic.Logic
module Bitvec = Tmr_logic.Bitvec
module Srand = Tmr_logic.Srand
module Texttab = Tmr_logic.Texttab

let logic = Alcotest.testable Logic.pp Logic.equal

let all = [ Logic.Zero; Logic.One; Logic.X ]

let to_opt = Logic.to_bool_opt

(* A three-valued operator is a sound abstraction of its boolean operator if
   for defined operands it agrees, and for X operands the result is either X
   or the value shared by all completions. *)
let check_abstraction2 op_name op bool_op =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let r = op a b in
          let completions =
            List.concat_map
              (fun av ->
                List.map (fun bv -> bool_op av bv)
                  (match to_opt b with Some v -> [ v ] | None -> [ false; true ]))
              (match to_opt a with Some v -> [ v ] | None -> [ false; true ])
          in
          match to_opt r with
          | Some rv ->
              List.iter
                (fun c ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s %c %c sound" op_name (Logic.to_char a)
                       (Logic.to_char b))
                    rv c)
                completions
          | None -> ())
        all)
    all

let test_and_or_xor_sound () =
  check_abstraction2 "and" Logic.( &&& ) ( && );
  check_abstraction2 "or" Logic.( ||| ) ( || );
  check_abstraction2 "xor" Logic.logic_xor (fun a b -> a <> b)

let test_kleene_identities () =
  Alcotest.check logic "0 and X" Logic.Zero Logic.(Zero &&& X);
  Alcotest.check logic "1 and X" Logic.X Logic.(One &&& X);
  Alcotest.check logic "1 or X" Logic.One Logic.(One ||| X);
  Alcotest.check logic "0 or X" Logic.X Logic.(Zero ||| X);
  Alcotest.check logic "not X" Logic.X (Logic.logic_not Logic.X);
  Alcotest.check logic "X xor X" Logic.X (Logic.logic_xor Logic.X Logic.X)

let test_maj3_masks_single_x () =
  List.iter
    (fun v ->
      Alcotest.check logic "maj masks X (pos 0)" v (Logic.maj3 Logic.X v v);
      Alcotest.check logic "maj masks X (pos 1)" v (Logic.maj3 v Logic.X v);
      Alcotest.check logic "maj masks X (pos 2)" v (Logic.maj3 v v Logic.X))
    [ Logic.Zero; Logic.One ];
  Alcotest.check logic "two X" Logic.X (Logic.maj3 Logic.X Logic.X Logic.One)

let test_maj3_truth () =
  let b v = Logic.of_bool v in
  List.iter
    (fun (x, y, z) ->
      let expected = (x && y) || (x && z) || (y && z) in
      Alcotest.check logic "maj3 bool" (b expected) (Logic.maj3 (b x) (b y) (b z)))
    [
      (false, false, false); (false, false, true); (false, true, false);
      (false, true, true); (true, false, false); (true, false, true);
      (true, true, false); (true, true, true);
    ]

let test_mux_x_select () =
  Alcotest.check logic "x-sel same" Logic.One
    (Logic.mux ~sel:Logic.X Logic.One Logic.One);
  Alcotest.check logic "x-sel diff" Logic.X
    (Logic.mux ~sel:Logic.X Logic.Zero Logic.One);
  Alcotest.check logic "sel 0" Logic.Zero
    (Logic.mux ~sel:Logic.Zero Logic.Zero Logic.One);
  Alcotest.check logic "sel 1" Logic.One
    (Logic.mux ~sel:Logic.One Logic.Zero Logic.One)

let test_resolve () =
  Alcotest.check logic "agree 1" Logic.One (Logic.resolve Logic.One Logic.One);
  Alcotest.check logic "agree 0" Logic.Zero (Logic.resolve Logic.Zero Logic.Zero);
  Alcotest.check logic "conflict" Logic.X (Logic.resolve Logic.Zero Logic.One);
  Alcotest.check logic "x wins" Logic.X (Logic.resolve Logic.X Logic.One);
  Alcotest.check logic "floating" Logic.X (Logic.resolve_list []);
  Alcotest.check logic "single" Logic.One (Logic.resolve_list [ Logic.One ]);
  Alcotest.check logic "three conflict" Logic.X
    (Logic.resolve_list [ Logic.One; Logic.One; Logic.Zero ])

let test_char_roundtrip () =
  List.iter
    (fun v ->
      match Logic.of_char (Logic.to_char v) with
      | Some v' -> Alcotest.check logic "roundtrip" v v'
      | None -> Alcotest.fail "of_char failed")
    all;
  Alcotest.(check bool) "bad char" true (Logic.of_char 'q' = None)

(* ------------------------------------------------------------------ *)
(* Bitvec *)

let signed_gen width =
  QCheck.Gen.map
    (fun v -> v - (1 lsl (width - 1)))
    (QCheck.Gen.int_bound ((1 lsl width) - 1))

let in_range width v = v >= -(1 lsl (width - 1)) && v < 1 lsl (width - 1)

let wrap width v =
  let m = 1 lsl width in
  let r = ((v mod m) + m) mod m in
  if r land (1 lsl (width - 1)) <> 0 then r - m else r

let qcheck_bitvec_ops =
  let width = 11 in
  QCheck.Test.make ~count:500 ~name:"bitvec add/sub/mul wrap like ints"
    (QCheck.make (QCheck.Gen.pair (signed_gen width) (signed_gen width)))
    (fun (a, b) ->
      let va = Bitvec.of_signed ~width a and vb = Bitvec.of_signed ~width b in
      Bitvec.to_signed (Bitvec.add va vb) = wrap width (a + b)
      && Bitvec.to_signed (Bitvec.sub va vb) = wrap width (a - b)
      && Bitvec.to_signed (Bitvec.mul va vb) = wrap width (a * b)
      && Bitvec.to_signed (Bitvec.neg va) = wrap width (-a))

let qcheck_bitvec_mul_wide =
  QCheck.Test.make ~count:500 ~name:"bitvec mul_wide is exact"
    (QCheck.make (QCheck.Gen.pair (signed_gen 9) (signed_gen 9)))
    (fun (a, b) ->
      let va = Bitvec.of_signed ~width:9 a and vb = Bitvec.of_signed ~width:9 b in
      Bitvec.to_signed (Bitvec.mul_wide va vb) = a * b)

let qcheck_bitvec_resize =
  QCheck.Test.make ~count:500 ~name:"bitvec resize sign-extends"
    (QCheck.make (signed_gen 9))
    (fun a ->
      let v = Bitvec.of_signed ~width:9 a in
      Bitvec.to_signed (Bitvec.resize v ~width:18) = a)

let test_bitvec_basics () =
  let v = Bitvec.of_signed ~width:9 (-1) in
  Alcotest.(check int) "minus one unsigned" 511 (Bitvec.to_unsigned v);
  Alcotest.(check int) "minus one signed" (-1) (Bitvec.to_signed v);
  Alcotest.(check string) "to_string" "111111111" (Bitvec.to_string v);
  Alcotest.(check bool) "bit 0" true (Bitvec.bit v 0);
  let v2 = Bitvec.set_bit v 0 false in
  Alcotest.(check int) "set_bit" (-2) (Bitvec.to_signed v2);
  Alcotest.(check bool) "in_range helper sane" true (in_range 9 255);
  Alcotest.check_raises "width 0 rejected" (Invalid_argument "Bitvec.create: width 0 out of [1,62]")
    (fun () -> ignore (Bitvec.create ~width:0 0))

let test_bitvec_bits () =
  let v = Bitvec.create ~width:4 0b1010 in
  Alcotest.(check (list bool)) "bits lsb first" [ false; true; false; true ]
    (Bitvec.bits v);
  let v' = Bitvec.concat_bits [ false; true; false; true ] in
  Alcotest.(check bool) "concat_bits roundtrip" true (Bitvec.equal v v')

let test_bitvec_shift () =
  let v = Bitvec.of_signed ~width:8 3 in
  Alcotest.(check int) "shl 2" 12 (Bitvec.to_signed (Bitvec.shift_left v 2));
  Alcotest.(check int) "shl overflow wraps" (-128)
    (Bitvec.to_signed (Bitvec.shift_left (Bitvec.of_signed ~width:8 1) 7))

(* ------------------------------------------------------------------ *)
(* Srand *)

let test_srand_deterministic () =
  let a = Srand.create 42 and b = Srand.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Srand.int a 1000) (Srand.int b 1000)
  done;
  let c = Srand.create 43 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Srand.int a 1_000_000 <> Srand.int c 1_000_000 then differs := true
  done;
  Alcotest.(check bool) "different seed differs" true !differs

(* The first draws of seed 1, recorded from the generator's first
   implementation (a boxed int64 state): placement, stimulus and fault
   samples all depend on this exact stream. *)
let test_srand_stream_pinned () =
  let r = Srand.create 1 in
  Alcotest.(check (list int)) "ints"
    [ 808126293; 624635970; 565617645; 893811442; 134869802; 767873536 ]
    (List.init 6 (fun _ -> Srand.int r 1_000_000_007));
  let c = Srand.split r in
  Alcotest.(check (list int)) "split stream"
    [ 1327614307408224819; 797169183612368656; 2315218692810306491 ]
    (List.init 3 (fun _ -> Srand.int c max_int));
  Alcotest.(check (float 0.0)) "float" 0x1.7cd0f89b24754p-3 (Srand.float r 1.0);
  Alcotest.(check (list bool)) "bools"
    [ true; false; false; true; false; true; true; false ]
    (List.init 8 (fun _ -> Srand.bool r))

let test_srand_bounds () =
  let r = Srand.create 7 in
  for _ = 1 to 1000 do
    let v = Srand.int r 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_srand_sample () =
  let r = Srand.create 9 in
  (* dense *)
  let s = Srand.sample r 80 100 in
  Alcotest.(check int) "dense size" 80 (Array.length s);
  let seen = Hashtbl.create 128 in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "dense distinct" false (Hashtbl.mem seen v);
      Alcotest.(check bool) "dense range" true (v >= 0 && v < 100);
      Hashtbl.add seen v ())
    s;
  (* sparse *)
  let s2 = Srand.sample r 50 1_000_000 in
  Alcotest.(check int) "sparse size" 50 (Array.length s2);
  let seen2 = Hashtbl.create 128 in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "sparse distinct" false (Hashtbl.mem seen2 v);
      Hashtbl.add seen2 v ())
    s2;
  (* clamp *)
  Alcotest.(check int) "n > m clamps" 5 (Array.length (Srand.sample r 10 5))

let test_srand_shuffle_permutes () =
  let r = Srand.create 11 in
  let a = Array.init 50 (fun i -> i) in
  Srand.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 50 (fun i -> i)) sorted

let test_srand_split_independent () =
  let parent = Srand.create 5 in
  let child = Srand.split parent in
  let differs = ref false in
  for _ = 1 to 20 do
    if Srand.int parent 1_000_000 <> Srand.int child 1_000_000 then differs := true
  done;
  Alcotest.(check bool) "split differs from parent" true !differs

(* ------------------------------------------------------------------ *)
(* Texttab *)

let test_texttab_render () =
  let t =
    Texttab.create ~title:"T" ~header:[ "name"; "n" ] [ Texttab.Left; Texttab.Right ]
  in
  Texttab.add_row t [ "a"; "1" ];
  Texttab.add_separator t;
  Texttab.add_row t [ "bcd"; "22" ];
  let s = Texttab.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  (* right alignment: the "1" row must pad the number column *)
  Alcotest.(check bool) "right aligned" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "a      1"));
  Alcotest.(check bool) "left aligned" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "bcd   22"))

let test_texttab_arity () =
  let t = Texttab.create ~header:[ "a" ] [ Texttab.Left ] in
  Alcotest.check_raises "row arity"
    (Invalid_argument "Texttab.add_row: expected 1 cells, got 2") (fun () ->
      Texttab.add_row t [ "x"; "y" ])

let () =
  Alcotest.run "tmr_logic"
    [
      ( "logic",
        [
          Alcotest.test_case "and/or/xor abstraction soundness" `Quick
            test_and_or_xor_sound;
          Alcotest.test_case "kleene identities" `Quick test_kleene_identities;
          Alcotest.test_case "maj3 masks a single X" `Quick
            test_maj3_masks_single_x;
          Alcotest.test_case "maj3 boolean truth table" `Quick test_maj3_truth;
          Alcotest.test_case "mux with X select" `Quick test_mux_x_select;
          Alcotest.test_case "driver resolution" `Quick test_resolve;
          Alcotest.test_case "char roundtrip" `Quick test_char_roundtrip;
        ] );
      ( "bitvec",
        [
          Alcotest.test_case "basics" `Quick test_bitvec_basics;
          Alcotest.test_case "bits/concat" `Quick test_bitvec_bits;
          Alcotest.test_case "shift" `Quick test_bitvec_shift;
          QCheck_alcotest.to_alcotest qcheck_bitvec_ops;
          QCheck_alcotest.to_alcotest qcheck_bitvec_mul_wide;
          QCheck_alcotest.to_alcotest qcheck_bitvec_resize;
        ] );
      ( "srand",
        [
          Alcotest.test_case "deterministic" `Quick test_srand_deterministic;
          Alcotest.test_case "stream pinned" `Quick test_srand_stream_pinned;
          Alcotest.test_case "bounds" `Quick test_srand_bounds;
          Alcotest.test_case "sample" `Quick test_srand_sample;
          Alcotest.test_case "shuffle permutes" `Quick test_srand_shuffle_permutes;
          Alcotest.test_case "split independent" `Quick test_srand_split_independent;
        ] );
      ( "texttab",
        [
          Alcotest.test_case "render/align" `Quick test_texttab_render;
          Alcotest.test_case "arity check" `Quick test_texttab_arity;
        ] );
    ]
