(** Netlist well-formedness lint.

    Run after construction and after every transformation (triplication,
    voter insertion, technology mapping) to catch rewiring mistakes
    early. *)

val run : Netlist.t -> (unit, string list) result
(** Checks: no combinational loops; output ports driven; domains within
    [-1, 2]; voter-flagged cells are majority functions or 2-input voter
    macro gates (the improved voter's decomposition, the detecting
    voter's disagreement XORs); LUT tables within range; TMR invariant —
    a non-voter cell never reads a net from a different non-negative
    domain. *)

val run_exn : Netlist.t -> unit

val lut_is_maj3 : int -> bool
(** The 3-input truth table computes majority. *)
