module Netlist = Tmr_netlist.Netlist
module Device = Tmr_arch.Device
module Arch = Tmr_arch.Arch

type t = {
  source : Netlist.t;
  mapped : Netlist.t;
  dev : Device.t;
  db : Tmr_arch.Bitdb.t;
  pack : Pack.t;
  place : Place.t;
  route : Route.result;
  bitgen : Bitgen.t;
  timing : Timing.report;
  seed : int;
}

(* Per-CAD-phase wall time: a trace span each, all under an enclosing
   "implement" span (e2ebench's per-layer ledger reads them). *)
let phase = Tmr_obs.Trace.with_span

let implement ?(seed = 1) ?moves_per_site ?floorplan dev db nl =
  Tmr_obs.Trace.with_span ~args:[ ("seed", string_of_int seed) ] "implement"
  @@ fun () ->
  match Tmr_netlist.Check.run nl with
  | Error es -> Error ("design check failed: " ^ String.concat "; " es)
  | Ok () ->
      let { Tmr_techmap.Techmap.mapped; _ } =
        phase "techmap" (fun () -> Tmr_techmap.Techmap.run nl)
      in
      (match Tmr_netlist.Check.run mapped with
      | Error es -> Error ("mapped check failed: " ^ String.concat "; " es)
      | Ok () -> (
          let pack = phase "pack" (fun () -> Pack.run mapped) in
          match
            phase "place" (fun () ->
                Place.run ~seed ?moves_per_site ?floorplan dev pack mapped)
          with
          | exception Failure msg -> Error msg
          | place -> (
              match
                phase "route" (fun () -> Route.run dev pack place)
              with
              | Error msg -> Error ("route: " ^ msg)
              | Ok route ->
                  let bitgen =
                    phase "bitgen" (fun () ->
                        Bitgen.run dev db pack place route mapped)
                  in
                  let timing =
                    phase "timing" (fun () ->
                        Timing.analyze dev pack place route mapped)
                  in
                  Ok
                    {
                      source = nl;
                      mapped;
                      dev;
                      db;
                      pack;
                      place;
                      route;
                      bitgen;
                      timing;
                      seed;
                    })))

let implement_exn ?seed ?moves_per_site ?floorplan dev db nl =
  match implement ?seed ?moves_per_site ?floorplan dev db nl with
  | Ok t -> t
  | Error msg -> failwith ("Impl.implement: " ^ msg)

let route_digest t =
  let r = t.route in
  let b = Buffer.create 65536 in
  let ints a =
    Buffer.add_string b (string_of_int (Array.length a));
    Array.iter (fun x -> Buffer.add_char b ' '; Buffer.add_string b (string_of_int x)) a;
    Buffer.add_char b '\n'
  in
  Array.iter ints r.Route.net_pips;
  Array.iter ints r.Route.net_wires;
  Array.iter
    (Array.iter (fun (s, d, sp) -> ints [| s; d; sp |]))
    r.Route.sink_stats;
  ints [| r.Route.iterations |];
  Buffer.add_string b (Tmr_arch.Bitstream.to_hex t.bitgen.Bitgen.bitstream);
  Digest.to_hex (Digest.string (Buffer.contents b))

let port_pad_wire t find_port port bit =
  let bits = find_port t.mapped port in
  if bit < 0 || bit >= Array.length bits then
    invalid_arg (Printf.sprintf "Impl: port %S has no bit %d" port bit);
  let cell = bits.(bit) in
  let pad = t.place.Place.pad_of_cell.(cell) in
  if pad < 0 then invalid_arg (Printf.sprintf "Impl: port %S bit %d unplaced" port bit);
  t.dev.Device.pad_wire.(pad)

let input_pad_wire t port bit = port_pad_wire t Netlist.find_input_port port bit
let output_pad_wire t port bit = port_pad_wire t Netlist.find_output_port port bit

let used_slices t =
  let p = t.dev.Device.params in
  let luts_per_slice = p.Arch.luts_per_slice in
  let seen = Hashtbl.create 512 in
  Array.iter
    (fun bel ->
      let slice_of_bel = bel / luts_per_slice in
      Hashtbl.replace seen slice_of_bel ())
    t.place.Place.site_bel;
  Hashtbl.length seen

let used_luts t = Array.length t.pack.Pack.sites

let used_ffs t =
  Array.fold_left
    (fun acc site -> match site.Pack.ff with Some _ -> acc + 1 | None -> acc)
    0 t.pack.Pack.sites
