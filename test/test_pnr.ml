module Logic = Tmr_logic.Logic
module Netlist = Tmr_netlist.Netlist
module Word = Tmr_netlist.Word
module Arch = Tmr_arch.Arch
module Device = Tmr_arch.Device
module Bitdb = Tmr_arch.Bitdb
module Bitstream = Tmr_arch.Bitstream
module Pack = Tmr_pnr.Pack
module Place = Tmr_pnr.Place
module Route = Tmr_pnr.Route
module Impl = Tmr_pnr.Impl
module Techmap = Tmr_techmap.Techmap

let dev = lazy (Device.build Arch.small)
let db = lazy (Bitdb.build (Lazy.force dev))

let build_datapath () =
  let nl = Netlist.create () in
  let a = Word.input nl "a" ~width:6 in
  let b = Word.input nl "b" ~width:6 in
  let s = Word.add nl a b in
  let r = Word.reg nl s in
  let p = Word.mul_const nl r 5 ~width:6 in
  Word.output nl "y" p;
  nl

let mapped_datapath () = (Techmap.run (build_datapath ())).Techmap.mapped

let test_device_invariants () =
  match Device.check_invariants (Lazy.force dev) with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_pack_pairs_ff_with_private_lut () =
  let nl = Netlist.create () in
  let a = Netlist.add_cell nl Netlist.Input ~fanins:[||] in
  let b = Netlist.add_cell nl Netlist.Input ~fanins:[||] in
  let lut =
    Netlist.add_cell nl (Netlist.Lut { arity = 2; table = 0b1000 })
      ~fanins:[| a; b |]
  in
  let ff = Netlist.add_cell nl (Netlist.Ff Logic.Zero) ~fanins:[| lut |] in
  let o = Netlist.add_cell nl Netlist.Output ~fanins:[| ff |] in
  Netlist.add_input_port nl "a" [| a |];
  Netlist.add_input_port nl "b" [| b |];
  Netlist.add_output_port nl "y" [| o |];
  let pack = Pack.run nl in
  Alcotest.(check int) "one site" 1 (Array.length pack.Pack.sites);
  let site = pack.Pack.sites.(0) in
  Alcotest.(check bool) "lut present" true (site.Pack.lut = Some lut);
  Alcotest.(check bool) "ff present" true (site.Pack.ff = Some ff);
  Alcotest.(check bool) "registered" true site.Pack.registered

let test_pack_route_through_ff () =
  (* FF driven by an input (not a LUT) needs an identity route-through. *)
  let nl = Netlist.create () in
  let a = Netlist.add_cell nl Netlist.Input ~fanins:[||] in
  let ff = Netlist.add_cell nl (Netlist.Ff Logic.Zero) ~fanins:[| a |] in
  let o = Netlist.add_cell nl Netlist.Output ~fanins:[| ff |] in
  Netlist.add_input_port nl "a" [| a |];
  Netlist.add_output_port nl "y" [| o |];
  let pack = Pack.run nl in
  let site = pack.Pack.sites.(0) in
  Alcotest.(check bool) "no lut cell" true (site.Pack.lut = None);
  Alcotest.(check int) "identity table" Pack.identity_table site.Pack.table;
  Alcotest.(check int) "pin0 is input" a site.Pack.pins.(0)

let test_pack_drops_dead_logic () =
  let nl = Netlist.create () in
  let a = Netlist.add_cell nl Netlist.Input ~fanins:[||] in
  let dead =
    Netlist.add_cell nl (Netlist.Lut { arity = 1; table = 0b01 }) ~fanins:[| a |]
  in
  let live =
    Netlist.add_cell nl (Netlist.Lut { arity = 1; table = 0b10 }) ~fanins:[| a |]
  in
  let o = Netlist.add_cell nl Netlist.Output ~fanins:[| live |] in
  Netlist.add_input_port nl "a" [| a |];
  Netlist.add_output_port nl "y" [| o |];
  let pack = Pack.run nl in
  Alcotest.(check int) "only live site" 1 (Array.length pack.Pack.sites);
  Alcotest.(check int) "dead unmapped" (-1) pack.Pack.site_of_cell.(dead)

let test_place_legal () =
  let nl = mapped_datapath () in
  let pack = Pack.run nl in
  let place = Place.run ~seed:3 (Lazy.force dev) pack nl in
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun bel ->
      Alcotest.(check bool) "bel in range" true
        (bel >= 0 && bel < (Lazy.force dev).Device.nbels);
      Alcotest.(check bool) "bel unique" false (Hashtbl.mem seen bel);
      Hashtbl.add seen bel ())
    place.Place.site_bel;
  (* every live port cell has a pad, all distinct *)
  let pads = Hashtbl.create 64 in
  Array.iter
    (fun c ->
      let pad = place.Place.pad_of_cell.(c) in
      Alcotest.(check bool) "pad assigned" true (pad >= 0);
      Alcotest.(check bool) "pad unique" false (Hashtbl.mem pads pad);
      Hashtbl.add pads pad ())
    (Array.append pack.Pack.live_inputs pack.Pack.live_outputs)

let test_route_no_overuse_and_connected () =
  let nl = mapped_datapath () in
  let pack = Pack.run nl in
  let d = Lazy.force dev in
  let place = Place.run ~seed:3 d pack nl in
  match Route.run d pack place with
  | Error e -> Alcotest.fail e
  | Ok route ->
      (* capacity: every wire used by at most one net *)
      let occ = Array.make d.Device.nwires 0 in
      Array.iter
        (fun wires -> Array.iter (fun w -> occ.(w) <- occ.(w) + 1) wires)
        route.Route.net_wires;
      Array.iteri
        (fun w n ->
          if n > 1 then
            Alcotest.failf "wire %s used by %d nets" (Device.describe_wire d w) n)
        occ;
      (* connectivity: walking tree pips from the source reaches all sinks *)
      Array.iteri
        (fun ni net ->
          let src = Route.driver_wire d pack place ni in
          let reach = Hashtbl.create 32 in
          Hashtbl.replace reach src ();
          let pips = route.Route.net_pips.(ni) in
          let changed = ref true in
          while !changed do
            changed := false;
            Array.iter
              (fun pipid ->
                let s = d.Device.pip_src.(pipid) and dd = d.Device.pip_dst.(pipid) in
                let spread a b =
                  if Hashtbl.mem reach a && not (Hashtbl.mem reach b) then begin
                    Hashtbl.replace reach b ();
                    changed := true
                  end
                in
                spread s dd;
                if d.Device.pip_bidir.(pipid) then spread dd s)
              pips
          done;
          List.iter
            (fun sink ->
              let w = Route.sink_wire d pack place sink in
              if not (Hashtbl.mem reach w) then
                Alcotest.failf "net %d sink %s unreachable" ni
                  (Device.describe_wire d w))
            net.Pack.sinks)
        pack.Pack.nets

(* The router's heap before it moved holes and picked children without a
   branch, kept verbatim as the reference: the router's ties, and so every
   route, depend on the exact pop order. *)
module Swap_heap = struct
  type t = {
    mutable keys : float array;
    mutable data : int array;
    mutable n : int;
  }

  let create () = { keys = Array.make 1024 0.0; data = Array.make 1024 0; n = 0 }

  let clear h = h.n <- 0

  let grow h =
    h.keys <- Array.append h.keys (Array.make (Array.length h.keys) 0.0);
    h.data <- Array.append h.data (Array.make (Array.length h.data) 0)

  let sift_up h i =
    let i = ref i in
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if h.keys.(parent) > h.keys.(!i) then begin
        let tk = h.keys.(parent) and td = h.data.(parent) in
        h.keys.(parent) <- h.keys.(!i);
        h.data.(parent) <- h.data.(!i);
        h.keys.(!i) <- tk;
        h.data.(!i) <- td;
        i := parent
      end
      else continue := false
    done

  (* inlined so the float key is never boxed at the call *)
  let[@inline] push h k v =
    if h.n >= Array.length h.keys then grow h;
    let i = h.n in
    h.keys.(i) <- k;
    h.data.(i) <- v;
    h.n <- i + 1;
    sift_up h i

  (* requires [h.n > 0] *)
  let pop h =
    let v = h.data.(0) in
    h.n <- h.n - 1;
    h.keys.(0) <- h.keys.(h.n);
    h.data.(0) <- h.data.(h.n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let left = (2 * !i) + 1 and right = (2 * !i) + 2 in
      let smallest = ref !i in
      if left < h.n && h.keys.(left) < h.keys.(!smallest) then smallest := left;
      if right < h.n && h.keys.(right) < h.keys.(!smallest) then
        smallest := right;
      if !smallest <> !i then begin
        let tk = h.keys.(!smallest) and td = h.data.(!smallest) in
        h.keys.(!smallest) <- h.keys.(!i);
        h.data.(!smallest) <- h.data.(!i);
        h.keys.(!i) <- tk;
        h.data.(!i) <- td;
        i := !smallest
      end
      else continue := false
    done;
    v
end

type heap_op = Push of float | Pop | Clear

(* Keys from three values, so nearly every comparison is a tie; long
   sequences without clears push past the initial capacity of 1024.  Each push carries a
   distinct value, so equal pop sequences mean equal tie-breaking. *)
let qcheck_heap_equivalence =
  let open QCheck in
  let push = Gen.map (fun k -> Push k) (Gen.oneofl [ 0.0; 0.9; 1.8 ]) in
  let op clears =
    Gen.frequency
      ([ (12, push); (8, Gen.return Pop) ]
      @ if clears then [ (1, Gen.return Clear) ] else [])
  in
  let pp = function
    | Push k -> Printf.sprintf "push %g" k
    | Pop -> "pop"
    | Clear -> "clear"
  in
  Test.make ~count:200 ~name:"Route.Heap pops what the swap heap pops"
    (make
       ~print:(fun ops -> String.concat "; " (List.map pp ops))
       Gen.(bool >>= fun clears -> list_size (int_range 0 8000) (op clears)))
    (fun ops ->
      let h = Route.Heap.create () and r = Swap_heap.create () in
      let next = ref 0 in
      List.for_all
        (function
          | Push k ->
              Route.Heap.push h k !next;
              Swap_heap.push r k !next;
              incr next;
              true
          | Clear ->
              Route.Heap.clear h;
              Swap_heap.clear r;
              true
          | Pop ->
              Route.Heap.size h = r.Swap_heap.n
              && (r.Swap_heap.n = 0 || Route.Heap.pop h = Swap_heap.pop r))
        ops
      && Route.Heap.size h = r.Swap_heap.n
      &&
      let rec drain () =
        r.Swap_heap.n = 0 || (Route.Heap.pop h = Swap_heap.pop r && drain ())
      in
      drain ())

(* Golden routes: one [Impl.route_digest] per design, so any change to the
   router's search order shows up here. *)
let golden_routes =
  let open Tmr_core in
  [
    ("standard", Partition.Unprotected, Voter.Majority,
     "62af4aeff3354732ffdc7b3a3272e575");
    ("tmr_p1", Partition.Max_partition, Voter.Majority,
     "5a7fe0b114f2ca8200f51db2df289875");
    ("tmr_p2", Partition.Medium_partition, Voter.Majority,
     "2f5f72900dd2ed97cf5d1eba2e3c4da0");
    ("tmr_p3", Partition.Min_partition, Voter.Majority,
     "d6c66e37b01cd1f975c8654a44edfcce");
    ("tmr_p3_nv", Partition.Min_partition_nv, Voter.Majority,
     "dcbdc311f41c23cccdba7dda22bb81b9");
    ("tmr_p2/detecting", Partition.Medium_partition, Voter.Detecting,
     "38bdaa5139661c330bf4b3ecdd0683ca");
  ]

let test_golden_routes () =
  List.iter
    (fun (name, strategy, voter, expected) ->
      let nl =
        Tmr_filter.Designs.build ~params:Tmr_filter.Fir.tiny_params ~voter
          strategy
      in
      let impl = Impl.implement_exn ~seed:1 (Lazy.force dev) (Lazy.force db) nl in
      Alcotest.(check string) (name ^ " route digest") expected
        (Impl.route_digest impl))
    golden_routes

let test_impl_end_to_end () =
  let nl = build_datapath () in
  let impl = Impl.implement_exn ~seed:5 (Lazy.force dev) (Lazy.force db) nl in
  Alcotest.(check bool) "has slices" true (Impl.used_slices impl > 0);
  Alcotest.(check bool) "mhz positive" true
    (impl.Impl.timing.Tmr_pnr.Timing.mhz > 0.0);
  let bits = impl.Impl.bitgen.Tmr_pnr.Bitgen.dut_bits in
  Alcotest.(check bool) "dut bits non-empty" true (Array.length bits > 0);
  (* sorted unique, in range *)
  let ok = ref true in
  Array.iteri
    (fun i b ->
      if i > 0 && bits.(i - 1) >= b then ok := false;
      if b < 0 || b >= Bitdb.num_bits (Lazy.force db) then ok := false)
    bits;
  Alcotest.(check bool) "dut bits sorted/unique/in-range" true !ok;
  (* every programmed routing bit is in the DUT list *)
  let dut = Hashtbl.create 1024 in
  Array.iter (fun b -> Hashtbl.replace dut b ()) bits;
  for a = 0 to Bitdb.num_bits (Lazy.force db) - 1 do
    if Bitstream.get impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream a then
      match Bitdb.resource (Lazy.force db) a with
      | Bitdb.Pip _ ->
          Alcotest.(check bool) "on pip in dut list" true (Hashtbl.mem dut a)
      | _ -> ()
  done

let test_timing_voters_slow_designs () =
  (* Adding voter stages must not make the design faster. *)
  let params = Tmr_filter.Fir.tiny_params in
  let mk strategy =
    let nl = Tmr_filter.Designs.build ~params strategy in
    let impl = Impl.implement_exn ~seed:5 (Lazy.force dev) (Lazy.force db) nl in
    impl.Impl.timing.Tmr_pnr.Timing.logic_levels
  in
  let p1 = mk Tmr_core.Partition.Max_partition in
  let p3 = mk Tmr_core.Partition.Min_partition in
  Alcotest.(check bool)
    (Printf.sprintf "p1 levels (%d) >= p3 levels (%d)" p1 p3)
    true (p1 >= p3)

let test_place_domains_floorplan () =
  let params = Tmr_filter.Fir.tiny_params in
  let nl = Tmr_filter.Designs.build ~params Tmr_core.Partition.Min_partition_nv in
  let { Techmap.mapped; _ } = Techmap.run nl in
  let pack = Pack.run mapped in
  let d = Lazy.force dev in
  let place = Place.run ~seed:3 ~floorplan:`Domains d pack mapped in
  let cols = d.Device.params.Arch.cols in
  let third = cols / 3 in
  let violations = ref 0 in
  Array.iteri
    (fun s bel ->
      let site = pack.Pack.sites.(s) in
      let dom =
        match site.Pack.lut, site.Pack.ff with
        | Some c, _ | None, Some c -> Netlist.domain mapped c
        | None, None -> -1
      in
      if dom >= 0 then begin
        let c = d.Device.bel_col.(bel) in
        let lo = dom * third in
        let hi = if dom = 2 then cols - 1 else lo + third - 1 in
        if c < lo || c > hi then incr violations
      end)
    place.Place.site_bel;
  Alcotest.(check int) "domain region violations" 0 !violations

let () =
  Alcotest.run "tmr_pnr"
    [
      ( "device",
        [ Alcotest.test_case "invariants" `Quick test_device_invariants ] );
      ( "pack",
        [
          Alcotest.test_case "pairs ff with private lut" `Quick
            test_pack_pairs_ff_with_private_lut;
          Alcotest.test_case "route-through ff" `Quick test_pack_route_through_ff;
          Alcotest.test_case "drops dead logic" `Quick test_pack_drops_dead_logic;
        ] );
      ( "place",
        [
          Alcotest.test_case "legal placement" `Quick test_place_legal;
          Alcotest.test_case "domains floorplan respected" `Quick
            test_place_domains_floorplan;
        ] );
      ( "route",
        [
          Alcotest.test_case "no overuse; all sinks connected" `Quick
            test_route_no_overuse_and_connected;
          QCheck_alcotest.to_alcotest qcheck_heap_equivalence;
          Alcotest.test_case "golden routes (5 designs + detecting voter)"
            `Quick test_golden_routes;
        ] );
      ( "impl",
        [
          Alcotest.test_case "end to end" `Quick test_impl_end_to_end;
          Alcotest.test_case "voters add logic levels" `Quick
            test_timing_voters_slow_designs;
        ] );
    ]
