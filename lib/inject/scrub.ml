module Srand = Tmr_logic.Srand
module Bitstream = Tmr_arch.Bitstream
module Impl = Tmr_pnr.Impl
module Extract = Tmr_fabric.Extract

type result = {
  trials : int;
  cap : int;
  upsets_to_failure : int array;
  mean : float;
  survived : int;
}

let accumulate ?(trials = 20) ?(cap = 60) ~seed ~impl ~golden ~stimulus
    ~faultlist () =
  let session =
    Campaign.session ~workers:1 ~cone_skip:false ~name:"scrub" ~impl ~golden
      ~stimulus ()
  in
  let rng = Srand.create (seed * 131 + 7) in
  let bits = faultlist.Faultlist.bits in
  let distinct = List.length (List.sort_uniq Int.compare (Array.to_list bits)) in
  let upsets_to_failure =
    Array.init trials (fun _ ->
        (* a fresh (scrubbed) configuration for every trial *)
        let ex =
          Extract.create impl.Impl.dev impl.Impl.db
            (Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream)
        in
        let injected = Hashtbl.create 64 in
        (* a trial that has injected every bit of the list survives *)
        let rec inject k =
          if k > cap || Hashtbl.length injected = distinct then cap + 1
          else begin
            let bit = Srand.pick rng bits in
            if Hashtbl.mem injected bit then inject k
            else begin
              Hashtbl.add injected bit ();
              Extract.apply_bit_flip ex bit;
              if fst (Campaign.replay session ex) >= 0 then k
              else inject (k + 1)
            end
          end
        in
        inject 1)
  in
  let mean =
    float_of_int (Array.fold_left ( + ) 0 upsets_to_failure)
    /. float_of_int (max trials 1)
  in
  let survived =
    Array.fold_left
      (fun acc v -> if v > cap then acc + 1 else acc)
      0 upsets_to_failure
  in
  { trials; cap; upsets_to_failure; mean; survived }
