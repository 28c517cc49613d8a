(** Order statistics, the results file and the compare rule of the
    end-to-end benchmark. *)

type dist = {
  median : float;
  q1 : float;
  q3 : float;
  min : float;
  max : float;
  n : int;
}
(** One metric over the repeated runs of a workload. *)

val median : float list -> float
(** Raises [Invalid_argument] on the empty list. *)

val dist : float list -> dist
(** Quartiles by the "exclusive" method of Python's
    [statistics.quantiles(values, n=4)]; one value gives [q1 = q3 = it].
    Raises [Invalid_argument] on the empty list. *)

val spread : dist -> float
(** [(q3 - q1) / |median|], the run-to-run noise as a share of the
    median; 0 when all runs agree, infinity for a zero median with a
    non-zero spread. *)

(** {1 Bounds} *)

type direction =
  | Lower  (** lower is better *)
  | Higher

type bound = {
  metric : string;
  unit : string;
  better : direction;
  bound : float;  (** allowed worsening of the median, as a share of it *)
}

val bounds_of_benchmark : Tmr_obs.Json.t -> (bound list, string) result
(** The [end_to_end] entries of a parsed [BENCHMARK.json]. *)

(** {1 Results file} *)

type workload_result = {
  metrics : (string * (string * dist)) list;  (** name -> unit, distribution *)
  per_layer : (string * (string * float)) list;  (** name -> unit, traced value *)
}

type results = {
  version : string;  (** tool version and git commit *)
  nproc : int;
  ocaml : string;
  seed : int;
  repeats : int;
  workloads : (string * workload_result) list;
}

val results_to_json : results -> Tmr_obs.Json.t
(** Schema ["tmr-e2ebench-results/1"]. *)

val results_of_json : Tmr_obs.Json.t -> (results, string) result
(** Fails closed: a missing field, a wrong schema or a non-numeric
    statistic is an [Error]. *)

(** {1 Compare} *)

type verdict =
  | Better
  | Worse
  | Unchanged
  | Unresolved

val verdict_name : verdict -> string

val judge : bound -> old:dist -> cur:dist -> verdict
(** When either side's {!spread} exceeds the bound, the metric is
    [Better] only if every new run beats every old run, and [Unresolved]
    otherwise.  Else the median's relative change decides: worse by more
    than the bound is [Worse], better by more than it is [Better],
    anything between is [Unchanged]. *)

type row = {
  workload : string;
  row_metric : string;
  old_median : float;
  new_median : float;
  change : float;  (** relative change of the median, signed as measured *)
  verdict : verdict;
}

val compare : bound list -> old:results -> cur:results -> row list
(** One row per workload of [old] and bounded metric; a metric or
    workload missing from either side is [Unresolved] with [nan]
    medians. *)
