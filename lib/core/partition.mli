(** Voter-partition strategies — the four TMR organisations the paper
    compares (fig. 4), expressed over the component labels the circuit
    builder attached to its cells.

    Components are named hierarchically with ["/"] (e.g. ["tap03/mult"],
    ["tap03/add"], ["tap03/reg"]).  A {e barrier} is placed on the boundary
    cells of a logic group: cells read by a cell of a different group (or
    by an output).  The strategy decides what a "group" is:

    - {!Max_partition} (TMR_p1): every component is a group — voters after
      every multiplier and every adder, plus voted registers;
    - {!Medium_partition} (TMR_p2): the first path segment is the group —
      voters after each tap block, plus voted registers;
    - {!Min_partition} (TMR_p3): no combinational barriers — voted
      registers and the final output voters only;
    - {!Min_partition_nv} (TMR_p3_nv): triplication with final output
      voters only; registers unvoted. *)

type strategy =
  | Unprotected
  | Max_partition
  | Medium_partition
  | Min_partition
  | Min_partition_nv
  | Custom of string * Tmr.spec  (** name, spec *)

val name : strategy -> string
(** Short label used in reports: ["standard"], ["tmr_p1"], ... *)

val paper_name : strategy -> string
(** The paper's label: ["Standard Filter"], ["TMR_p1"], ... *)

val all_paper_designs : strategy list
(** The five versions of Table 2/3/4, in paper order. *)

val boundary_cells :
  group_of:(string -> string) ->
  Tmr_netlist.Netlist.t ->
  bool array
(** [boundary_cells ~group_of nl].(c) is true when combinational cell [c]
    is read by logic of a different group.  [group_of] maps a component
    label to its group. *)

val component_group : string -> string
(** Identity on the component label (maximum partition granularity). *)

val block_group : string -> string
(** First ["/"]-separated segment (tap-block granularity). *)

val protect :
  ?voter:Voter.variant ->
  Tmr_netlist.Netlist.t ->
  strategy ->
  Tmr_netlist.Netlist.t
(** Apply the strategy ({!Unprotected} returns the input unchanged). *)
