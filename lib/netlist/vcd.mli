(** Value-change-dump (VCD) trace writer.

    One timescale unit per clock cycle; X values are emitted as VCD [x].
    A {!writer} is fed arbitrary {!Tmr_logic.Logic} values; [tmrtool
    explain] uses it to dump fabric-level faulty-run waveforms for
    GTKWave & co. *)

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
