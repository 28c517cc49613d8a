(** Fault forensics: attribute every injected fault to the TMR structure
    it corrupts.

    The paper's explanation of Table 2 — more voters mean more
    inter-domain wiring, and routing upsets bridging two redundancy
    domains defeat the vote — is invisible in a Silent/Wrong_answer
    verdict.  This module maps each fault's structural footprint
    ({!Tmr_fabric.Footprint}) onto the TMR domains and voter partitions
    of the implemented design, and folds in the batch engine's
    divergence observations, producing one explainable record per fault.

    Collection is read-only with respect to the simulation: campaign
    results are bit-identical with forensics on or off (like tracing). *)

(** {1 Structural attribution} *)

type attrib = {
  dev : Tmr_arch.Device.t;
  db : Tmr_arch.Bitdb.t;
  wire_domain : int array;  (** device wire -> TMR domain, -1 unrouted/shared *)
  wire_part : int array;  (** device wire -> partition id, -1 none *)
  wire_voter : bool array;  (** wire carries a voter's output net *)
  wire_used : bool array;
      (** wire is routed in some net or is a used pad's wire (the
          implementation's own {!Tmr_pnr.Bitgen.t} array) *)
  bel_domain : int array;
      (** device bel -> TMR domain of the cells its site packs (LUT, FF,
          output cell); -1 when they disagree *)
  bel_part : int array;
  bel_voter : bool array;  (** bel realises a majority-voter cell *)
  bel_used : bool array;
      (** a packed site is placed on the bel ({!Tmr_pnr.Bitgen.t}'s) *)
  part_names : string array;  (** partition id -> component label *)
  vote_masking : bool;
      (** the design qualifies for {!masked_domain}, read from the mapped
          netlist: it has at least one voter, every voter cell is one LUT
          computing 3-input majority over cells of three distinct
          domains, it has no detection ports, and a non-voter cell reads,
          besides voters, only cells of its own domain or of none.
          Output cells have no domain, so every output is voted.
          Majority TMR designs qualify; improved and detecting voters and
          unprotected designs do not. *)
}
(** Domain/partition tags of every device resource the implementation
    uses, derived once per campaign from the netlist attributes
    ([Netlist.domain]/[comp]/[is_voter]) through the pack/place/route
    artefacts.  Unused resources stay [-1]. *)

val attrib_of_impl : Tmr_pnr.Impl.t -> attrib

val part_name : attrib -> int -> string
(** Label of a partition id ("?" when out of range). *)

(** {1 Per-fault record} *)

type t = {
  domain_mask : int;  (** bit [d] set when the fault touches domain [d] *)
  cross_domain : bool;  (** touches two or more redundancy domains *)
  partitions : int array;  (** sorted distinct partition ids touched *)
  voter_touch : bool;  (** footprint includes voter logic or a voter net *)
  masked_at_voter : bool;
      (** the fault visibly corrupted cone state, stayed silent, and at
          least one voter in its fanout cone held its baseline value —
          the divergence was stopped at (or before) a vote *)
  diverged : int;  (** cone nodes that left the baseline; -1 not diffed *)
  first_diverged_node : int;
      (** the divergence nearest the fault site: among the nodes diverged
          at [diverge_cycle], the smallest (BFS depth, node id); -1 none *)
  diverge_cycle : int;
  depth : int;  (** max BFS propagation depth of the divergence, -1 *)
  cone_nodes : int;  (** fanout-cone size; -1 when not diffed *)
}

val structural : attrib -> int -> t
(** Attribution of one configuration bit from its footprint alone: the
    divergence fields are unknown ([-1]/[false]) until a differential
    run fills them in.  An unrouted input pin of a used bel counts as
    that bel.  Valid on every plan path. *)

val masked_domain : attrib -> int -> int
(** The vote-masking proof for one configuration bit: the TMR domain [d]
    when the design qualifies ([vote_masking]) and the bit's footprint
    holds a resource of domain [d], none of another domain, no voter bel
    or voter net, no pad and no used resource without a domain (an
    unrouted input pin of a used bel counts as that bel).  Such a flip
    can corrupt only domain [d]'s logic, which every voter out-votes, so
    the fault is silent with no detection.  [-1] otherwise. *)

(** {1 JSONL sink}

    [Tmr_obs]-style process-global sink: when registered, campaigns
    stream one JSON object per fault (written post-hoc in fault-index
    order, so the file is deterministic for a fixed fault list). *)

val to_file : string -> unit
val close : unit -> unit
val enabled : unit -> bool

val emit :
  design:string ->
  bit:int ->
  effect:string ->
  wrong:bool ->
  first_error_cycle:int ->
  attrib ->
  t ->
  unit
(** Emit one record.  No-op when no sink is registered. *)
