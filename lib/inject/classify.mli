(** Structural classification of an upset's effect, after [9] (Bellato et
    al., DATE 2004) as used in the paper's Table 4.

    Routing upsets are classified from the golden configuration:
    - [Open_effect]: a programmed PIP is switched off (open connection);
    - [Bridge_effect]: a new PIP shorts two routed nets on a channel wire;
    - [Conflict_effect]: a new PIP drives a used input node (bel pin or
      output pad) from a second used source — a logic conflict propagating
      an unknown value;
    - [Antenna_effect]: a new PIP connects a floating (unused) node onto a
      used net, driving it to an unknown value;
    - CLB upsets map to [Lut_effect] (truth-table bits), [Mux_effect]
      (customization muxes: output select, clock enable, pin inversion,
      pad buffers) and [Init_effect] (flip-flop initialisation);
    - anything that cannot influence the DUT cone is [Other_effect].

    One deviation from the paper is inherent: our bit database is complete
    by construction, so the large "Others" share the paper attributes to
    undecoded bits cannot arise here. *)

type effect =
  | Lut_effect
  | Mux_effect
  | Init_effect
  | Open_effect
  | Bridge_effect
  | Antenna_effect
  | Conflict_effect
  | Other_effect

val classify : Tmr_pnr.Impl.t -> int -> effect
(** Classify a bit address against the implementation's golden state. *)

val name : effect -> string

val all : effect list
(** Table 4 row order: LUT, MUX, Initialization, Open, Bridge,
    Input-Antenna, Conflict, Others. *)

