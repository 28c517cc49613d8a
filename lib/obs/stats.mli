(** Campaign statistics: binomial confidence intervals.

    A fault-injection campaign estimates a wrong-answer {e rate} from [k]
    wrong answers in [n] injected faults — a binomial proportion.  The
    paper's Table 3 rates (97.10 / 4.03 / 0.98 / 1.56 / 12.60 %) are
    point estimates of exactly this kind; everything here exists to say
    how much a sampled one can be trusted.

    All functions are pure, allocation-light and domain-safe. *)

type interval = {
  lo : float;
  hi : float;
}
(** A two-sided confidence interval on a proportion, both ends in
    [0, 1]. *)

val normal_cdf : float -> float
(** Standard normal cumulative distribution function. *)

val normal_quantile : float -> float
(** Inverse of {!normal_cdf} on (0, 1) (Acklam's approximation plus one
    Halley refinement; absolute error well under 1e-9).  Raises
    [Invalid_argument] outside (0, 1). *)

val z_of : float -> float
(** [z_of confidence] is the two-sided critical value: [z_of 0.95] ≈
    1.95996.  [confidence] must be in (0, 1). *)

val wilson : ?confidence:float -> n:int -> k:int -> unit -> interval
(** Wilson score interval for [k] successes in [n] trials (default 95 %).
    Never degenerate at [k = 0] or [k = n], which is what a campaign
    needs: a TMR design with zero observed wrong answers still gets a
    finite upper bound.  [n <= 0] yields the vacuous [0, 1]. *)
