module Logic = Tmr_logic.Logic
module Device = Tmr_arch.Device
module Bitdb = Tmr_arch.Bitdb
module Bitstream = Tmr_arch.Bitstream
module Netlist = Tmr_netlist.Netlist

type t = {
  bitstream : Bitstream.t;
  dut_bits : int array;
  used_wires : bool array;
  used_bels : bool array;
  used_pads : bool array;
}

let run dev db pack place route nl =
  let bs = Bitstream.create ~nbits:(Bitdb.num_bits db) in
  let used_wires = Array.make dev.Device.nwires false in
  let used_bels = Array.make dev.Device.nbels false in
  let used_pads = Array.make dev.Device.npads false in
  (* routing *)
  Array.iter
    (fun pips ->
      Array.iter (fun pipid -> Bitstream.set bs (Bitdb.pip_bit db pipid) true) pips)
    route.Route.net_pips;
  Array.iter
    (fun wires -> Array.iter (fun w -> used_wires.(w) <- true) wires)
    route.Route.net_wires;
  (* bels *)
  Array.iteri
    (fun s site ->
      let bel = place.Place.site_bel.(s) in
      used_bels.(bel) <- true;
      for idx = 0 to 15 do
        if (site.Pack.table lsr idx) land 1 = 1 then
          Bitstream.set bs (Bitdb.lut_bit db ~bel ~idx) true
      done;
      if site.Pack.registered then
        Bitstream.set bs (Bitdb.out_sel_bit db ~bel) true;
      (match site.Pack.ff with
      | Some ff -> (
          match Netlist.kind nl ff with
          | Netlist.Ff Logic.One ->
              Bitstream.set bs (Bitdb.ff_init_bit db ~bel) true
          | Netlist.Ff (Logic.Zero | Logic.X) -> ()
          | _ -> invalid_arg "Bitgen.run: site ff is not a flip-flop")
      | None -> ()))
    pack.Pack.sites;
  (* pads *)
  let mark_pad c =
    let pad = place.Place.pad_of_cell.(c) in
    if pad >= 0 then begin
      used_pads.(pad) <- true;
      used_wires.(dev.Device.pad_wire.(pad)) <- true;
      Bitstream.set bs (Bitdb.pad_enable_bit db ~pad) true
    end
  in
  Array.iter mark_pad pack.Pack.live_inputs;
  Array.iter mark_pad pack.Pack.live_outputs;
  (* DUT bit list: each bit is marked once (pip, bel and pad bits are
     distinct addresses), then read back in address order *)
  let marked = Bytes.make (Bitdb.num_bits db) '\000' in
  let n_marked = ref 0 in
  let add b =
    Bytes.set marked b '\001';
    incr n_marked
  in
  (* A routing bit is DUT-related when flipping it can alter a used net:
     any programmed pip (open), a pass pip with a used endpoint (short), or
     a buffered pip into a used wire (extra driver). *)
  for pipid = 0 to dev.Device.npips - 1 do
    let s = dev.Device.pip_src.(pipid) and d = dev.Device.pip_dst.(pipid) in
    let addr = Bitdb.pip_bit db pipid in
    let related =
      Bitstream.get bs addr
      || (if dev.Device.pip_bidir.(pipid) then used_wires.(s) || used_wires.(d)
          else used_wires.(d))
    in
    if related then add addr
  done;
  for bel = 0 to dev.Device.nbels - 1 do
    if used_bels.(bel) then begin
      for idx = 0 to 15 do
        add (Bitdb.lut_bit db ~bel ~idx)
      done;
      for pin = 0 to 3 do
        add (Bitdb.in_inv_bit db ~bel ~pin)
      done;
      add (Bitdb.out_sel_bit db ~bel);
      add (Bitdb.ce_inv_bit db ~bel);
      add (Bitdb.sr_inv_bit db ~bel);
      add (Bitdb.ff_init_bit db ~bel)
    end
  done;
  for pad = 0 to dev.Device.npads - 1 do
    if used_pads.(pad) then begin
      add (Bitdb.pad_enable_bit db ~pad);
      for attr = 0 to 2 do
        add (Bitdb.pad_cfg_bit db ~pad ~attr)
      done
    end
  done;
  let dut_bits = Array.make !n_marked 0 in
  let k = ref 0 in
  Bytes.iteri
    (fun b m ->
      if m <> '\000' then begin
        dut_bits.(!k) <- b;
        incr k
      end)
    marked;
  { bitstream = bs; dut_bits; used_wires; used_bels; used_pads }
