(** Flat gate-level netlist IR.

    Every cell drives exactly one net, identified with the cell's id, so a
    netlist is a directed graph over cell ids.  Cells carry the attributes
    the TMR flow needs: a hierarchical [name], a [comp]onent label (the
    granularity at which voter partitions are chosen), a redundancy [domain]
    (-1 before triplication, 0..2 after), and a [voter] flag. *)

type id = int

type lut = {
  arity : int;  (** number of inputs, 1..4 *)
  table : int;  (** truth table, bit [i] = output for input valuation [i] *)
}

type kind =
  | Input  (** primary input bit; no fanins *)
  | Output  (** primary output bit; fanins = [|src|] *)
  | Const of Tmr_logic.Logic.t
  | Not
  | And2
  | Or2
  | Xor2
  | Mux2  (** fanins = [|sel; a; b|]; output is [a] when [sel]=0 *)
  | Maj3
  | Lut of lut
  | Ff of Tmr_logic.Logic.t  (** D flip-flop with configuration-load init *)

type t

val create : unit -> t

val add_cell :
  t ->
  ?name:string ->
  ?domain:int ->
  ?voter:bool ->
  kind ->
  fanins:id array ->
  id
(** Appends a cell and returns its id.  The component label is taken from
    the ambient label set with {!set_comp} / {!with_comp}.  Fanins must be
    ids of already-added cells and match the kind's arity. *)

val num_cells : t -> int
val kind : t -> id -> kind
val fanins : t -> id -> id array
(** The returned array is the live one; use {!set_fanin} to mutate. *)

val set_fanin : t -> id -> int -> id -> unit
(** [set_fanin t c i src] rewires fanin slot [i] of cell [c] to [src]. *)

val name : t -> id -> string
val comp : t -> id -> string
val domain : t -> id -> int
val is_voter : t -> id -> bool

val set_comp : t -> string -> unit
(** Sets the ambient component label applied to subsequently added cells. *)

val with_comp : t -> string -> (unit -> 'a) -> 'a
(** Runs the function with the ambient component label temporarily set. *)

(** {1 Ports}

    Word-level ports group bit cells (LSB first) under a name. *)

val add_input_port : t -> string -> id array -> unit
val add_output_port : t -> string -> id array -> unit
val input_ports : t -> (string * id array) list
val output_ports : t -> (string * id array) list
val find_input_port : t -> string -> id array
val find_output_port : t -> string -> id array

val iter_cells : t -> (id -> unit) -> unit
val fold_cells : t -> init:'a -> f:('a -> id -> 'a) -> 'a

val compute_fanouts : t -> id list array
(** [compute_fanouts t].(c) lists the cells reading net [c] (with
    multiplicity for repeated fanins). *)

val eval_kind : kind -> Tmr_logic.Logic.t array -> Tmr_logic.Logic.t
(** Combinational evaluation of a cell kind on fanin values.  For {!Ff},
    {!Input} and {!Output} this is the identity on the relevant operand
    ([Ff]/[Output] pass through fanin 0; [Input] is invalid). *)

val lut_of_fun : arity:int -> (bool array -> bool) -> lut
(** Build a truth table by enumerating the [2^arity] input valuations. *)

val pp_kind : Format.formatter -> kind -> unit
