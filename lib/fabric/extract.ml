module Logic = Tmr_logic.Logic
module Device = Tmr_arch.Device
module Bitdb = Tmr_arch.Bitdb
module Bitstream = Tmr_arch.Bitstream

type t = {
  dev : Device.t;
  db : Bitdb.t;
  bs : Bitstream.t;
  drivers : int list array;  (* wire -> src wires of ON buffered pips into it *)
  links : int list array;  (* wire -> wires shorted to it by ON pass pips *)
  lut_tables : int array;  (* bel -> 16-bit table *)
  out_sels : bool array;
  ce_invs : bool array;
  sr_invs : bool array;
  ff_inits : bool array;
  in_invs : int array;  (* bel -> 4-bit pin inversion mask *)
  pad_enables : bool array;
}

let create dev db bs =
  let t =
    {
      dev;
      db;
      bs;
      drivers = Array.make dev.Device.nwires [];
      links = Array.make dev.Device.nwires [];
      lut_tables = Array.make dev.Device.nbels 0;
      out_sels = Array.make dev.Device.nbels false;
      ce_invs = Array.make dev.Device.nbels false;
      sr_invs = Array.make dev.Device.nbels false;
      ff_inits = Array.make dev.Device.nbels false;
      in_invs = Array.make dev.Device.nbels 0;
      pad_enables = Array.make dev.Device.npads false;
    }
  in
  for a = 0 to Bitstream.length bs - 1 do
    if Bitstream.get bs a then
      match Bitdb.resource db a with
      | Bitdb.Pip p ->
          let sw = dev.Device.pip_src.(p) and dw = dev.Device.pip_dst.(p) in
          if dev.Device.pip_bidir.(p) then begin
            t.links.(sw) <- dw :: t.links.(sw);
            t.links.(dw) <- sw :: t.links.(dw)
          end
          else t.drivers.(dw) <- sw :: t.drivers.(dw)
      | Bitdb.Lut_bit (b, idx) -> t.lut_tables.(b) <- t.lut_tables.(b) lor (1 lsl idx)
      | Bitdb.Ff_init b -> t.ff_inits.(b) <- true
      | Bitdb.Out_sel b -> t.out_sels.(b) <- true
      | Bitdb.Ce_inv b -> t.ce_invs.(b) <- true
      | Bitdb.Sr_inv b -> t.sr_invs.(b) <- true
      | Bitdb.In_inv (b, pin) -> t.in_invs.(b) <- t.in_invs.(b) lor (1 lsl pin)
      | Bitdb.Pad_enable pad -> t.pad_enables.(pad) <- true
      | Bitdb.Pad_cfg _ -> ()
  done;
  t

let copy t =
  {
    dev = t.dev;
    db = t.db;
    bs = Bitstream.copy t.bs;
    drivers = Array.copy t.drivers;
    links = Array.copy t.links;
    lut_tables = Array.copy t.lut_tables;
    out_sels = Array.copy t.out_sels;
    ce_invs = Array.copy t.ce_invs;
    sr_invs = Array.copy t.sr_invs;
    ff_inits = Array.copy t.ff_inits;
    in_invs = Array.copy t.in_invs;
    pad_enables = Array.copy t.pad_enables;
  }

let device t = t.dev
let database t = t.db
let bit_is_set t a = Bitstream.get t.bs a

let apply_bit_flip t a =
  Bitstream.flip t.bs a;
  let now = Bitstream.get t.bs a in
  match Bitdb.resource t.db a with
  | Bitdb.Pip p ->
      let s = t.dev.Device.pip_src.(p) and d = t.dev.Device.pip_dst.(p) in
      let rec remove v = function
        | [] -> []
        | x :: rest -> if x = v then rest else x :: remove v rest
      in
      if t.dev.Device.pip_bidir.(p) then
        if now then begin
          t.links.(s) <- d :: t.links.(s);
          t.links.(d) <- s :: t.links.(d)
        end
        else begin
          t.links.(s) <- remove d t.links.(s);
          t.links.(d) <- remove s t.links.(d)
        end
      else if now then t.drivers.(d) <- s :: t.drivers.(d)
      else t.drivers.(d) <- remove s t.drivers.(d)
  | Bitdb.Lut_bit (b, idx) -> t.lut_tables.(b) <- t.lut_tables.(b) lxor (1 lsl idx)
  | Bitdb.Ff_init b -> t.ff_inits.(b) <- now
  | Bitdb.Out_sel b -> t.out_sels.(b) <- now
  | Bitdb.Ce_inv b -> t.ce_invs.(b) <- now
  | Bitdb.Sr_inv b -> t.sr_invs.(b) <- now
  | Bitdb.In_inv (b, pin) -> t.in_invs.(b) <- t.in_invs.(b) lxor (1 lsl pin)
  | Bitdb.Pad_enable pad -> t.pad_enables.(pad) <- now
  | Bitdb.Pad_cfg _ -> ()

let drivers t w = t.drivers.(w)
let links t w = t.links.(w)
let lut_table t b = t.lut_tables.(b)
let out_sel t b = t.out_sels.(b)
let ce_inv t b = t.ce_invs.(b)
let in_inv_mask t b = t.in_invs.(b)

let ff_init t b =
  Logic.of_bool (t.ff_inits.(b) <> t.sr_invs.(b))

let pad_enabled t pad = t.pad_enables.(pad)
