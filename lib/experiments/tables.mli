(** Reproductions of the paper's tables, rendered as plain text.

    Each function returns the rendered table; the paper's own numbers are
    shown alongside where they exist, so a run is directly comparable with
    the publication (EXPERIMENTS.md records one such run). *)

val table1 : Context.t -> Runs.design_run -> string
(** Upset analysis in the TMR approach: one row per upset location (LUT,
    routing, customization, flip-flop), with the consequence measured by
    actually injecting examples of that class into the given TMR design
    (and, for the flip-flop row, flipping user state in simulation). *)

val table2 : Runs.design_run list -> string
(** Area (slices), DUT configuration bits by class, estimated
    performance. *)

val table3 : Runs.design_run list -> string
(** Fault-injection campaign results: injected faults, wrong answers. *)

val table4 : Runs.design_run list -> string
(** Classification of the effects of the upsets that caused a wrong
    answer. *)

val table_voters : unit -> string
(** The voter library's per-voted-bit cost model (vote/detect cells,
    combinational depth, post-map delay) with one row per
    {!Tmr_core.Voter.variant}. *)

val table_detection : Runs.design_run list -> string
(** Detection coverage across design x voter: wrong-answer, SDC
    (silent-wrong) and detected shares, one column triple per voter
    variant present in [runs] — the partition optimum re-read under each
    voter choice.  Runs without campaigns render as "-". *)

val table_forensics : Runs.design_run list -> string
(** Aggregate fault forensics per design: cross-domain fault share (the
    upsets no vote can fix, tracking each partitioning's inter-domain
    wiring), multi-partition faults, and the voter-masking rate among
    silent-but-internally-divergent faults.  Designs whose campaigns ran
    without forensics are omitted. *)

val tables_json : Context.t -> Runs.design_run list -> string
(** One-line JSON of the campaign results ([tmrtool tables --json]):
    per design, the [tmrtool inject --json] engine-summary object
    extended with slices, estimated MHz, DUT bits by class, the paper's
    Table 3 row and the injection-coverage record. *)

val paper_table3 : (string * (int * int * float)) list
(** The paper's Table 3 rows: design -> (injected, wrong, percent). *)
