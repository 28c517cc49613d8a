(** Deterministic pseudo-random numbers (splitmix64).

    Fault-injection campaigns, placement annealing and stimulus generation
    must be exactly reproducible from a seed, independent of the OCaml
    stdlib's generator version, so the whole project draws randomness from
    this module. *)

type t

val create : int -> t
(** [create seed] builds an independent stream. *)

val split : t -> t
(** A statistically independent child stream; the parent advances. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  [bound] must be positive. *)

val bool : t -> bool

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample : t -> int -> int -> int array
(** [sample t n m] draws [min n m] distinct values from [0, m), in random
    order.  Uses a partial shuffle for dense draws and rejection for sparse
    ones. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
