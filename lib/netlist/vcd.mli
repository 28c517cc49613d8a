(** Value-change-dump (VCD) trace writer.

    One timescale unit per clock cycle; X values are emitted as VCD [x].
    Two layers: a generic {!writer} fed arbitrary {!Tmr_logic.Logic}
    values (used by [tmrtool explain] to dump fabric-level faulty-run
    waveforms), and a {!Netsim}-backed tracer on top that records the
    port values of a netlist simulation for GTKWave & co. *)

(** {1 Generic writer} *)

type writer
type sig_id

val writer : unit -> writer

val add_signal : writer -> label:string -> width:int -> sig_id
(** Declare one signal (bit order LSB first).  Must precede the first
    {!tick}. *)

val set : writer -> sig_id -> Tmr_logic.Logic.t array -> unit
(** Set the signal's current value (length must match the width). *)

val tick : writer -> unit
(** Close the current cycle: emit the change block of every signal whose
    value differs from the previously emitted one. *)

val writer_save : writer -> string -> unit

(** {1 Netlist-simulation tracer} *)

type t

val create : Netsim.t -> Netlist.t -> t
(** Traces every input and output port of the netlist. *)

val watch_cell : t -> label:string -> Netlist.id -> unit
(** Additionally trace one internal net (e.g. a flip-flop under SEU
    attack).  Must be called before the first {!sample}. *)

val sample : t -> unit
(** Record the current simulator values as the next cycle. *)

val to_string : t -> string
(** Render the full VCD document (header + value changes). *)
