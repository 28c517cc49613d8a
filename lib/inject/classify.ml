module Bitdb = Tmr_arch.Bitdb
module Bitstream = Tmr_arch.Bitstream
module Device = Tmr_arch.Device
module Impl = Tmr_pnr.Impl
module Bitgen = Tmr_pnr.Bitgen

type effect =
  | Lut_effect
  | Mux_effect
  | Init_effect
  | Open_effect
  | Bridge_effect
  | Antenna_effect
  | Conflict_effect
  | Other_effect

let classify impl bit =
  let db = impl.Impl.db in
  let dev = impl.Impl.dev in
  let bg = impl.Impl.bitgen in
  let used = bg.Bitgen.used_wires in
  match Bitdb.resource db bit with
  | Bitdb.Lut_bit (bel, _) ->
      if bg.Bitgen.used_bels.(bel) then Lut_effect else Other_effect
  | Bitdb.Out_sel bel | Bitdb.Ce_inv bel | Bitdb.In_inv (bel, _) ->
      if bg.Bitgen.used_bels.(bel) then Mux_effect else Other_effect
  | Bitdb.Pad_enable pad | Bitdb.Pad_cfg (pad, _) ->
      if bg.Bitgen.used_pads.(pad) then Mux_effect else Other_effect
  | Bitdb.Ff_init bel | Bitdb.Sr_inv bel ->
      if bg.Bitgen.used_bels.(bel) then Init_effect else Other_effect
  | Bitdb.Pip p ->
      let was_on = Bitstream.get bg.Bitgen.bitstream bit in
      if was_on then Open_effect
      else begin
        let s = dev.Device.pip_src.(p) and d = dev.Device.pip_dst.(p) in
        if dev.Device.pip_bidir.(p) then begin
          (* pass transistor: shorts its two endpoints *)
          if used.(s) && used.(d) then Bridge_effect
          else if used.(s) || used.(d) then Antenna_effect
          else Other_effect
        end
        else if used.(d) then begin
          (* buffered: adds a driver to the destination *)
          if used.(s) then Conflict_effect else Antenna_effect
        end
        else Other_effect
      end

let name = function
  | Lut_effect -> "LUT"
  | Mux_effect -> "MUX"
  | Init_effect -> "Initialization"
  | Open_effect -> "Open"
  | Bridge_effect -> "Bridge"
  | Antenna_effect -> "Input-Antenna"
  | Conflict_effect -> "Conflict"
  | Other_effect -> "Others"

let all =
  [ Lut_effect; Mux_effect; Init_effect; Open_effect; Bridge_effect;
    Antenna_effect; Conflict_effect; Other_effect ]

