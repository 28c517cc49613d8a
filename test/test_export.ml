module Netlist = Tmr_netlist.Netlist
module Word = Tmr_netlist.Word
module Netsim = Tmr_netlist.Netsim
module Export = Tmr_netlist.Export
module Partition = Tmr_core.Partition

let build_design () =
  let nl = Netlist.create () in
  Netlist.set_comp nl "weird comp/with spaces";
  let a = Word.input nl "a" ~width:5 in
  let b = Word.input nl "b with space" ~width:5 in
  Netlist.set_comp nl "dp/mul";
  let p = Word.mul_const nl a 6 ~width:8 in
  Netlist.set_comp nl "dp/add";
  let s = Word.add nl p (Word.resize nl b ~width:8) in
  Netlist.set_comp nl "dp/reg";
  let r = Word.reg nl ~init:3 s in
  Netlist.set_comp nl "";
  Word.output nl "y" r;
  nl

let simulate nl stimulus =
  let sim = Netsim.create nl in
  Netsim.reset sim;
  List.map
    (fun (a, b) ->
      Netsim.set_input sim "a" a;
      Netsim.set_input sim "b with space" b;
      Netsim.step sim;
      Netsim.output_int sim "y")
    stimulus

let test_roundtrip_structure () =
  let nl = build_design () in
  let text = Export.to_string nl in
  let nl2 = Export.of_string_exn text in
  Alcotest.(check string) "stable fixpoint" text (Export.to_string nl2);
  Alcotest.(check int) "same size" (Netlist.num_cells nl) (Netlist.num_cells nl2);
  Alcotest.(check (list string)) "ports"
    (List.map fst (Netlist.input_ports nl))
    (List.map fst (Netlist.input_ports nl2))

let test_roundtrip_behaviour () =
  let nl = build_design () in
  let nl2 = Export.of_string_exn (Export.to_string nl) in
  let stim = [ (3, 7); (-10, 2); (15, -15); (0, 0) ] in
  Alcotest.(check (list (option int))) "same outputs" (simulate nl stim)
    (simulate nl2 stim)

let test_roundtrip_tmr_attributes () =
  let base = build_design () in
  let tmr = Partition.protect base Partition.Max_partition in
  let tmr2 = Export.of_string_exn (Export.to_string tmr) in
  Tmr_netlist.Check.run_exn tmr2;
  let voters nl =
    Netlist.fold_cells nl ~init:0 ~f:(fun acc c ->
        if Netlist.is_voter nl c then acc + 1 else acc)
  in
  Alcotest.(check int) "voters preserved" (voters tmr) (voters tmr2);
  let domain_sum nl =
    Netlist.fold_cells nl ~init:0 ~f:(fun acc c -> acc + Netlist.domain nl c)
  in
  Alcotest.(check int) "domains preserved" (domain_sum tmr) (domain_sum tmr2)

let test_rejects_garbage () =
  (match Export.of_string "tmrnl 1\ncell 0 frobnicate" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad kind accepted");
  (match Export.of_string "tmrnl 1\ncell 1 input" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-dense ids accepted");
  (match Export.of_string "tmrnl 99" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad version accepted");
  (match Export.of_string "tmrnl 1\ncell 0 not 5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dangling fanin accepted");
  List.iter
    (fun text ->
      match Export.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bad escape accepted in %S" text)
    [
      "tmrnl 1\ncell 0 input ; name=%zz";
      "tmrnl 1\ncell 0 input ; comp=a%4";
      "tmrnl 1\ninport %g0 0";
    ]

(* Mutated dumps of a real netlist: whatever the damage, the parser
   answers [Ok] or [Error] and never raises. *)
let tiny_fir_text =
  lazy (Export.to_string (Tmr_filter.Fir.build Tmr_filter.Fir.tiny_params))

let mutate text muts =
  let alphabet = "%0aFzg ;=\n-19:" in
  List.fold_left
    (fun t (op, pos, a, b) ->
      let n = String.length t in
      let pos = if n = 0 then 0 else pos mod n in
      let c k = String.make 1 alphabet.[k mod String.length alphabet] in
      let before = String.sub t 0 pos and after = String.sub t pos (n - pos) in
      match op with
      | 0 -> before ^ c a ^ c b ^ after
      | 1 ->
          let len = min (String.length after) (1 + (a mod 8)) in
          before ^ String.sub after len (String.length after - len)
      | _ ->
          if after = "" then t
          else before ^ c a ^ String.sub after 1 (String.length after - 1))
    text muts

let qcheck_mutated_dump_never_raises =
  let open QCheck.Gen in
  let mutation =
    quad (int_bound 2) (int_bound 1_000_000) (int_bound 100) (int_bound 100)
  in
  QCheck.Test.make ~count:500 ~name:"mutated dump parses or fails closed"
    (QCheck.make (list_size (int_range 1 4) mutation))
    (fun muts ->
      match Export.of_string (mutate (Lazy.force tiny_fir_text) muts) with
      | Ok _ | Error _ -> true)

let () =
  Alcotest.run "tmr_export"
    [
      ( "export",
        [
          Alcotest.test_case "roundtrip structure" `Quick test_roundtrip_structure;
          Alcotest.test_case "roundtrip behaviour" `Quick test_roundtrip_behaviour;
          Alcotest.test_case "roundtrip TMR attributes" `Quick
            test_roundtrip_tmr_attributes;
          Alcotest.test_case "rejects garbage" `Quick test_rejects_garbage;
          QCheck_alcotest.to_alcotest qcheck_mutated_dump_never_raises;
        ] );
    ]
