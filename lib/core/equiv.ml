module Logic = Tmr_logic.Logic
module Srand = Tmr_logic.Srand
module Netlist = Tmr_netlist.Netlist
module Netsim = Tmr_netlist.Netsim

type mismatch = {
  cycle : int;
  port : string;
  expected : string;
  got : string;
}

let bits_string bits =
  let n = Array.length bits in
  String.init n (fun i -> Logic.to_char bits.(n - 1 - i))

(* Per-port stimulus: directed corners first (all-0, all-1, alternating,
   min, max, +1/-1), then seeded random. *)
let vector_for rng ~width ~cycle =
  let corners =
    [| 0; -1; 0x5555_5555; 0x2AAA_AAAA; 1; -2; 1 lsl (max 0 (width - 1)) |]
  in
  if cycle < Array.length corners then corners.(cycle)
  else Srand.int rng (1 lsl min width 30) - (1 lsl (min width 30 - 1))

(* the random stimulus is the same on every check *)
let seed = 1

let co_simulate ~cycles ~reference ~candidate ~drive_candidate =
  let rng = Srand.create (seed * 97 + 5) in
  let ref_sim = Netsim.create reference in
  let cand_sim = Netsim.create candidate in
  Netsim.reset ref_sim;
  Netsim.reset cand_sim;
  let in_ports = Netlist.input_ports reference in
  let out_ports = Netlist.output_ports reference in
  let result = ref (Ok ()) in
  let cycle = ref 0 in
  while !result = Ok () && !cycle < cycles do
    List.iter
      (fun (port, bits) ->
        let v = vector_for rng ~width:(Array.length bits) ~cycle:!cycle in
        Netsim.set_input ref_sim port v;
        drive_candidate cand_sim port v)
      in_ports;
    Netsim.eval ref_sim;
    Netsim.eval cand_sim;
    List.iter
      (fun (port, _) ->
        if !result = Ok () then begin
          let expected = Netsim.output_bits ref_sim port in
          let got = Netsim.output_bits cand_sim port in
          let equal =
            Array.length expected = Array.length got
            && Array.for_all2 Logic.equal expected got
          in
          if not equal then
            result :=
              Error
                {
                  cycle = !cycle;
                  port;
                  expected = bits_string expected;
                  got = bits_string got;
                }
        end)
      out_ports;
    Netsim.clock ref_sim;
    Netsim.clock cand_sim;
    incr cycle
  done;
  !result

let check_tmr ?(cycles = 256) ~reference ~tmr () =
  co_simulate ~cycles ~reference ~candidate:tmr
    ~drive_candidate:(fun sim port v ->
      for d = 0 to Tmr.domains - 1 do
        Netsim.set_input sim (Tmr.redundant_port port d) v
      done)

let check_same_ports ?(cycles = 256) ~reference ~candidate () =
  co_simulate ~cycles ~reference ~candidate
    ~drive_candidate:(fun sim port v -> Netsim.set_input sim port v)
