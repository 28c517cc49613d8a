(** Software reference model of the FIR filter — the "Golden device" of the
    paper's fault-injection system, §4 (a copy of the DUT without TMR).

    Semantics match the netlist exactly: the output sample for an input is
    the combinational response before the clock edge, after which the
    delay line shifts.  All arithmetic wraps at [acc_width] bits. *)

val run : Fir.params -> int array -> int array
(** The filter's output for each input sample, from a zeroed delay
    line. *)
