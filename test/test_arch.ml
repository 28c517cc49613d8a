module Arch = Tmr_arch.Arch
module Device = Tmr_arch.Device
module Bitdb = Tmr_arch.Bitdb
module Bitstream = Tmr_arch.Bitstream
module Srand = Tmr_logic.Srand

let dev = lazy (Device.build Arch.small)
let db = lazy (Bitdb.build (Lazy.force dev))

let test_bitstream_basics () =
  let bs = Bitstream.create ~nbits:100 in
  Alcotest.(check int) "length" 100 (Bitstream.length bs);
  Alcotest.(check bool) "starts 0" false (Bitstream.get bs 42);
  Bitstream.set bs 42 true;
  Alcotest.(check bool) "set" true (Bitstream.get bs 42);
  Bitstream.flip bs 42;
  Alcotest.(check bool) "flip back" false (Bitstream.get bs 42);
  Bitstream.set bs 0 true;
  Bitstream.set bs 99 true;
  Alcotest.(check int) "popcount" 2 (Bitstream.popcount bs);
  let bs2 = Bitstream.copy bs in
  Bitstream.flip bs2 7;
  Alcotest.(check (list int)) "diff" [ 7 ] (Bitstream.diff bs bs2);
  Alcotest.check_raises "oob" (Invalid_argument "Bitstream: address 100 out of 100")
    (fun () -> ignore (Bitstream.get bs 100))

(* [to_hex] (what [Impl] digests): two characters per byte, bit [a] at
   bit [a mod 8] of byte [a / 8] *)
let qcheck_hex_image =
  QCheck.Test.make ~count:50 ~name:"hex image layout"
    (QCheck.make
       (QCheck.Gen.pair (QCheck.Gen.int_range 1 200)
          (QCheck.Gen.list_size (QCheck.Gen.return 30) (QCheck.Gen.int_bound 1000))))
    (fun (nbits, sets) ->
      let bs = Bitstream.create ~nbits in
      List.iter (fun v -> Bitstream.set bs (v mod nbits) true) sets;
      let hex = Bitstream.to_hex bs in
      let byte i = int_of_string ("0x" ^ String.sub hex (2 * i) 2) in
      String.length hex = 2 * ((nbits + 7) / 8)
      && List.for_all
           (fun a -> byte (a / 8) land (1 lsl (a mod 8)) <> 0 = Bitstream.get bs a)
           (List.init nbits Fun.id))

let test_bitdb_reverse_lookups () =
  let d = Lazy.force dev and database = Lazy.force db in
  let rng = Srand.create 3 in
  for _ = 1 to 200 do
    let p = Srand.int rng d.Device.npips in
    (match Bitdb.resource database (Bitdb.pip_bit database p) with
    | Bitdb.Pip p' -> Alcotest.(check int) "pip roundtrip" p p'
    | _ -> Alcotest.fail "pip bit maps elsewhere");
    let b = Srand.int rng d.Device.nbels in
    (match Bitdb.resource database (Bitdb.lut_bit database ~bel:b ~idx:7) with
    | Bitdb.Lut_bit (b', 7) -> Alcotest.(check int) "lut roundtrip" b b'
    | _ -> Alcotest.fail "lut bit maps elsewhere");
    (match Bitdb.resource database (Bitdb.ff_init_bit database ~bel:b) with
    | Bitdb.Ff_init b' -> Alcotest.(check int) "ff roundtrip" b b'
    | _ -> Alcotest.fail "ff bit maps elsewhere");
    match Bitdb.resource database (Bitdb.in_inv_bit database ~bel:b ~pin:2) with
    | Bitdb.In_inv (b', 2) -> Alcotest.(check int) "inv roundtrip" b b'
    | _ -> Alcotest.fail "inv bit maps elsewhere"
  done

let test_bitdb_class_counts () =
  let database = Lazy.force db in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 (Bitdb.class_counts database) in
  Alcotest.(check int) "classes cover all bits" (Bitdb.num_bits database) total;
  let d = Lazy.force dev in
  let routing = List.assoc Bitdb.Class_routing (Bitdb.class_counts database) in
  Alcotest.(check int) "routing = pips" d.Device.npips routing;
  Alcotest.(check bool) "frames cover bits" true
    (Bitdb.num_frames database * Bitdb.frame_bits database >= Bitdb.num_bits database)

let test_device_geometry () =
  let d = Lazy.force dev in
  let p = d.Device.params in
  Alcotest.(check int) "bels" (Arch.num_bels p) d.Device.nbels;
  (* spans *)
  let count_kind k =
    Array.fold_left (fun acc wk -> if wk = k then acc + 1 else acc) 0 d.Device.wkind
  in
  Alcotest.(check int) "h singles"
    ((p.Arch.rows + 1) * p.Arch.cols * p.Arch.ch_singles)
    (count_kind Device.HSingle);
  Alcotest.(check int) "bel pins"
    (Arch.num_bels p * (p.Arch.lut_inputs + 1))
    (count_kind Device.BelIn + count_kind Device.BelOut);
  (* pip_other is an involution on endpoints *)
  let rng = Srand.create 8 in
  for _ = 1 to 100 do
    let pip = Srand.int rng d.Device.npips in
    let s = d.Device.pip_src.(pip) in
    Alcotest.(check int) "other(other(w))" s
      (Device.pip_other d pip (Device.pip_other d pip s))
  done;
  let ins = Device.input_pads d and outs = Device.output_pads d in
  Alcotest.(check int) "pads split evenly" (Array.length ins) (Array.length outs);
  Alcotest.(check int) "all pads" d.Device.npads
    (Array.length ins + Array.length outs)

let test_scaled_params () =
  let p = Arch.scaled Arch.small ~rows:4 ~cols:5 in
  Alcotest.(check int) "rows" 4 p.Arch.rows;
  Alcotest.(check int) "cols" 5 p.Arch.cols;
  Alcotest.(check int) "channels preserved" Arch.small.Arch.ch_singles
    p.Arch.ch_singles;
  let d = Device.build p in
  match Device.check_invariants d with
  | Ok () -> ()
  | Error es -> Alcotest.fail (List.hd es)

(* Random fabrics around the two shipped ones at 1-6 x 1-6 tiles.  Half
   of them get narrow channels (2-6 singles, up to 8 single choices per
   input pin, no more doubles than singles), where generation emits the
   same connection more than once and [Device.build]'s dedup has work to
   do: no shipped or [Arch.scaled] device has a duplicate raw pip. *)
let arch_gen =
  let open QCheck.Gen in
  let* paper = bool and* rows = int_range 1 6 and* cols = int_range 1 6 in
  let* narrow = bool and* singles = int_range 2 6 and* cb_in = int_range 1 8 in
  let p = Arch.scaled (if paper then Arch.xc2s200e else Arch.small) ~rows ~cols in
  return
    (if narrow then
       { p with Arch.ch_singles = singles; cb_in_singles = cb_in;
                ch_doubles = min p.Arch.ch_doubles singles }
     else p)

let arch_arb =
  QCheck.make arch_gen ~print:(fun p ->
      Printf.sprintf "%dx%d singles %d doubles %d longs %d cb_in %d cb_out %d"
        p.Arch.rows p.Arch.cols p.Arch.ch_singles p.Arch.ch_doubles
        p.Arch.ch_longs p.Arch.cb_in_singles p.Arch.cb_out_singles)

let qcheck_dedup_oracle =
  QCheck.Test.make ~count:100 ~name:"build equals the pre-rewrite builder"
    arch_arb (fun p -> Device.build p = Device_oracle.build p)

let test_narrow_dedup () =
  let p =
    { (Arch.scaled Arch.small ~rows:3 ~cols:3) with
      Arch.ch_singles = 3; cb_in_singles = 6 }
  in
  let d = Device.build p in
  (* 2,546 raw pips, 936 of them repeats *)
  Alcotest.(check int) "pips kept" 1610 d.Device.npips;
  Alcotest.(check bool) "same as the pre-rewrite builder" true
    (d = Device_oracle.build p);
  match Device.check_invariants d with
  | Ok () -> ()
  | Error es -> Alcotest.fail (List.hd es)

(* Words [f] allocates, each block counted once wherever it was born:
   [Gc.minor_words] is exact at any point, while the minor count in
   [Gc.counters] lags until the next minor collection; major minus
   promoted words is what went straight to the major heap. *)
let allocated_words f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = words () in
  let x = f () in
  (x, words () -. w0)

(* The paper-scale builders allocate little beyond the arrays they
   return: 7.1 Mwords for the device graph and 1.6 Mwords for the bit
   database, against 27.0 and 3.5 when the raw pips went through
   doubling vectors and every bit held a boxed resource.  The bounds
   leave 15 % for compiler and runtime drift. *)
let test_build_allocation () =
  let d, dev_words = allocated_words (fun () -> Device.build Arch.xc2s200e) in
  let _, db_words = allocated_words (fun () -> Bitdb.build d) in
  Printf.printf "Device.build %.2f Mwords, Bitdb.build %.2f Mwords\n"
    (dev_words /. 1e6) (db_words /. 1e6);
  let within name words limit =
    if words > limit then
      Alcotest.failf "%s allocated %.2f Mwords, above %.2f" name
        (words /. 1e6) (limit /. 1e6)
  in
  within "Device.build" dev_words 8.2e6;
  within "Bitdb.build" db_words 1.85e6

let test_packed_field_guard () =
  let d = Lazy.force dev in
  Alcotest.check_raises "pip id past the packed field"
    (Invalid_argument "Bitdb.build: device too large for a packed resource")
    (fun () -> ignore (Bitdb.build { d with Device.npips = max_int }))

(* Layout pins: digests over the device graph and the bit database,
   recorded before the builders were rewritten, so any change to pip ids,
   adjacency order or bit addresses (and so to every route, bitstream and
   fault list) shows up here. *)
let ints b a =
  Buffer.add_string b (string_of_int (Array.length a));
  Array.iter (fun x -> Buffer.add_char b ' '; Buffer.add_string b (string_of_int x)) a;
  Buffer.add_char b '\n'

let hex b = Digest.to_hex (Digest.string (Buffer.contents b))

let device_digest (d : Device.t) =
  let b = Buffer.create 65536 in
  ints b d.Device.pip_src;
  ints b d.Device.pip_dst;
  ints b (Array.map Bool.to_int d.Device.pip_bidir);
  Array.iter (ints b) d.Device.wire_out;
  Array.iter (ints b) d.Device.wire_in;
  hex b

let resource_string = function
  | Bitdb.Pip i -> Printf.sprintf "pip %d" i
  | Bitdb.Lut_bit (bel, idx) -> Printf.sprintf "lut %d %d" bel idx
  | Bitdb.Ff_init bel -> Printf.sprintf "ff %d" bel
  | Bitdb.Out_sel bel -> Printf.sprintf "osel %d" bel
  | Bitdb.Ce_inv bel -> Printf.sprintf "ce %d" bel
  | Bitdb.Sr_inv bel -> Printf.sprintf "sr %d" bel
  | Bitdb.In_inv (bel, pin) -> Printf.sprintf "inv %d %d" bel pin
  | Bitdb.Pad_enable pad -> Printf.sprintf "pad %d" pad
  | Bitdb.Pad_cfg (pad, attr) -> Printf.sprintf "padcfg %d %d" pad attr

let bitdb_digest database =
  let b = Buffer.create 65536 in
  Buffer.add_string b (string_of_int (Bitdb.frame_bits database));
  for a = 0 to Bitdb.num_bits database - 1 do
    Buffer.add_char b '\n';
    Buffer.add_string b (resource_string (Bitdb.resource database a))
  done;
  hex b

let golden_layouts =
  [
    ("small", Arch.small, "b75482c385c385c8e7be6121dbffdfe7",
     "d8c26505fe64d66a190648ba8054b246");
    ("xc2s200e", Arch.xc2s200e, "fe4680efe61cb8c509f7b445448891a4",
     "a6a7eb508c3490a56820af88ac5ebef8");
  ]

let test_layout_digests () =
  List.iter
    (fun (name, p, dev_expected, db_expected) ->
      let d = Device.build p in
      Alcotest.(check string) (name ^ " device digest") dev_expected
        (device_digest d);
      Alcotest.(check string) (name ^ " bitdb digest") db_expected
        (bitdb_digest (Bitdb.build d)))
    golden_layouts

(* The layout contract itself: the bits of a column are its pads, then
   its bels, then its pips, each in id order with the sub-bits of one
   resource in a fixed order; every resource has exactly one bit. *)
let layout_key (d : Device.t) = function
  | Bitdb.Pad_enable pad -> (d.Device.wcol.(d.Device.pad_wire.(pad)), 0, pad, 0)
  | Bitdb.Pad_cfg (pad, attr) ->
      (d.Device.wcol.(d.Device.pad_wire.(pad)), 0, pad, 1 + attr)
  | Bitdb.Lut_bit (bel, idx) -> (d.Device.bel_col.(bel), 1, bel, idx)
  | Bitdb.Ff_init bel -> (d.Device.bel_col.(bel), 1, bel, 16)
  | Bitdb.Out_sel bel -> (d.Device.bel_col.(bel), 1, bel, 17)
  | Bitdb.Ce_inv bel -> (d.Device.bel_col.(bel), 1, bel, 18)
  | Bitdb.Sr_inv bel -> (d.Device.bel_col.(bel), 1, bel, 19)
  | Bitdb.In_inv (bel, pin) -> (d.Device.bel_col.(bel), 1, bel, 20 + pin)
  | Bitdb.Pip i ->
      let s = d.Device.pip_src.(i) and t = d.Device.pip_dst.(i) in
      (min d.Device.wcol.(s) d.Device.wcol.(t), 2, i, 0)

let qcheck_layout_contract =
  QCheck.Test.make ~count:20 ~name:"bit layout contract on scaled devices"
    arch_arb
    (fun p ->
      let d = Device.build p in
      let database = Bitdb.build d in
      let n = Bitdb.num_bits database in
      let expected =
        d.Device.npips + (d.Device.nbels * 24) + (d.Device.npads * 4)
      in
      let ordered = ref true in
      for a = 1 to n - 1 do
        let prev = layout_key d (Bitdb.resource database (a - 1)) in
        if compare prev (layout_key d (Bitdb.resource database a)) >= 0 then
          ordered := false
      done;
      (* every resource sits at its lookup address, strictly increasing
         keys make the bits distinct, and the count leaves no room for
         anything else: each resource appears exactly once *)
      let contiguous = ref true in
      let at a r = if Bitdb.resource database a <> r then contiguous := false in
      for bel = 0 to d.Device.nbels - 1 do
        for idx = 0 to 15 do
          at (Bitdb.lut_bit database ~bel ~idx) (Bitdb.Lut_bit (bel, idx))
        done;
        for pin = 0 to 3 do
          at (Bitdb.in_inv_bit database ~bel ~pin) (Bitdb.In_inv (bel, pin))
        done;
        at (Bitdb.ff_init_bit database ~bel) (Bitdb.Ff_init bel);
        at (Bitdb.out_sel_bit database ~bel) (Bitdb.Out_sel bel);
        at (Bitdb.ce_inv_bit database ~bel) (Bitdb.Ce_inv bel);
        at (Bitdb.sr_inv_bit database ~bel) (Bitdb.Sr_inv bel)
      done;
      for pad = 0 to d.Device.npads - 1 do
        at (Bitdb.pad_enable_bit database ~pad) (Bitdb.Pad_enable pad);
        for attr = 0 to 2 do
          at (Bitdb.pad_cfg_bit database ~pad ~attr) (Bitdb.Pad_cfg (pad, attr))
        done
      done;
      for i = 0 to d.Device.npips - 1 do
        at (Bitdb.pip_bit database i) (Bitdb.Pip i)
      done;
      n = expected && !ordered && !contiguous)

let () =
  Alcotest.run "tmr_arch"
    [
      ( "bitstream",
        [
          Alcotest.test_case "basics" `Quick test_bitstream_basics;
          QCheck_alcotest.to_alcotest qcheck_hex_image;
        ] );
      ( "bitdb",
        [
          Alcotest.test_case "reverse lookups" `Quick test_bitdb_reverse_lookups;
          Alcotest.test_case "class counts" `Quick test_bitdb_class_counts;
          Alcotest.test_case "layout digests" `Quick test_layout_digests;
          QCheck_alcotest.to_alcotest qcheck_layout_contract;
          Alcotest.test_case "ids past the packed field rejected" `Quick
            test_packed_field_guard;
          Alcotest.test_case "paper-scale build allocation" `Quick
            test_build_allocation;
        ] );
      ( "device",
        [
          Alcotest.test_case "geometry" `Quick test_device_geometry;
          Alcotest.test_case "scaled params" `Quick test_scaled_params;
          Alcotest.test_case "narrow channels deduplicate" `Quick
            test_narrow_dedup;
          QCheck_alcotest.to_alcotest qcheck_dedup_oracle;
        ] );
    ]
