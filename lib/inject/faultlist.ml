module Srand = Tmr_logic.Srand

type t = {
  bits : int array;
  by_class : (Tmr_arch.Bitdb.bit_class * int) list;
}

let of_impl impl =
  let bg = impl.Tmr_pnr.Impl.bitgen in
  {
    bits = bg.Tmr_pnr.Bitgen.dut_bits;
    by_class = Tmr_arch.Bitdb.class_counts_of impl.Tmr_pnr.Impl.db bg.Tmr_pnr.Bitgen.dut_bits;
  }

let sample t ~seed ~count =
  let rng = Srand.create (seed * 31 + 17) in
  let n = Array.length t.bits in
  let picked = Srand.sample rng count n in
  Array.map (fun i -> t.bits.(i)) picked
