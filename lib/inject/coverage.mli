(** Injection-coverage accounting: which part of the configuration memory
    a campaign actually exercised.

    A campaign samples its faults from the essential bits (the fault
    list), which are themselves a sliver of the device's configuration
    memory.  Rate estimates only generalize to the class mix the sample
    respected — the paper's §2 split (82.9 % routing / 7.4 % LUT /
    6.36 % customization / 0.46 % flip-flop) is the reference frame — so
    this module reports, per resource class: device bits, essential
    bits, and distinct injected bits; plus a frame × offset device grid
    of essential vs. injected bit counts ([tmrtool tables --json]). *)

type class_cov = {
  cc_class : Tmr_arch.Bitdb.bit_class;
  cc_device : int;  (** configuration bits of this class on the device *)
  cc_essential : int;  (** of those, in the DUT's fault list *)
  cc_injected : int;  (** of those, hit by the campaign (distinct bits) *)
}

type t = {
  total_bits : int;
  frames : int;
  frame_bits : int;
  essential : int;  (** fault-list size *)
  injected : int;  (** faults injected (with multiplicity) *)
  injected_distinct : int;
  classes : class_cov list;  (** routing, LUT, customization, FF order *)
  rows : int;  (** grid rows (frame-offset buckets) *)
  cols : int;  (** grid columns (frame buckets) *)
  grid_essential : int array array;  (** [rows][cols] essential-bit counts *)
  grid_injected : int array array;  (** [rows][cols] distinct injected bits *)
}

val of_faults : db:Tmr_arch.Bitdb.t -> faultlist:Faultlist.t -> faults:int array -> t
(** [faults] is the campaign's injected sample; duplicates count once
    toward the distinct totals and the grids. *)

val to_json : t -> Tmr_obs.Json.t
(** Full coverage record: totals, per-class table, both grids. *)
