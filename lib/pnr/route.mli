(** Negotiated-congestion (PathFinder) routing over the device graph.

    Each net is routed as a tree from its driver wire (bel output pin or
    input pad) to every sink (bel input pins, output pads) with A*-guided
    maze expansion.  Wires have capacity one; congestion is resolved by
    iterating with growing present-sharing and history penalties. *)

type result = {
  net_pips : int array array;  (** net index -> pips of its routing tree *)
  net_wires : int array array;  (** net index -> wires (driver wire first) *)
  sink_stats : (int * int * int) array array;
      (** net index -> per sink (sink wire, pips on path, wire span sum) *)
  iterations : int;
}

(** The router's priority queue: a binary min-heap of wires keyed by float
    search cost.  Internal to {!run}, and exposed only so that tests can
    check it.  Ties between equal keys are broken by the heap layout, so
    routes depend on the exact pop order: [pop] must return the same
    sequence as the swap-based textbook heap (sift up while the parent is
    strictly greater; sift down to the smaller child while it is strictly
    smaller, the left child on a tie). *)
module Heap : sig
  type t

  val create : unit -> t
  val clear : t -> unit
  val size : t -> int
  val push : t -> float -> int -> unit

  val pop : t -> int
  (** Removes a minimum entry and returns its wire.  Requires
      [size h > 0]. *)
end

val driver_wire : Tmr_arch.Device.t -> Pack.t -> Place.t -> int -> int
(** Physical wire driving a net (by net index). *)

val sink_wire : Tmr_arch.Device.t -> Pack.t -> Place.t -> Pack.sink -> int

val run :
  Tmr_arch.Device.t ->
  Pack.t ->
  Place.t ->
  (result, string) Stdlib.result
