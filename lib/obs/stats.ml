type interval = {
  lo : float;
  hi : float;
}

(* ---- normal distribution ------------------------------------------- *)

let normal_cdf x = 0.5 *. Float.erfc (-.x /. Float.sqrt 2.0)

(* Acklam's rational approximation to the inverse normal CDF, refined by
   one Halley step against [normal_cdf].  Good to ~1e-12 everywhere we
   care (confidence levels between 0.5 and 0.9999). *)
let normal_quantile p =
  if not (p > 0. && p < 1.) then
    invalid_arg "Stats.normal_quantile: p outside (0, 1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  in
  let b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  in
  let c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  in
  let d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let poly coeffs x =
    Array.fold_left (fun acc c -> (acc *. x) +. c) 0. coeffs
  in
  let p_low = 0.02425 in
  let x =
    if p < p_low then
      let q = sqrt (-2. *. log p) in
      poly c q /. ((poly d q *. q) +. 1.)
    else if p <= 1. -. p_low then
      let q = p -. 0.5 in
      let r = q *. q in
      poly a r *. q /. ((poly b r *. r) +. 1.)
    else
      let q = sqrt (-2. *. log (1. -. p)) in
      -.(poly c q) /. ((poly d q *. q) +. 1.)
  in
  (* Halley refinement: e = F(x) - p, u = e / phi(x). *)
  let e = normal_cdf x -. p in
  let u = e *. Float.sqrt (2. *. Float.pi) *. exp (x *. x /. 2.) in
  x -. (u /. (1. +. (x *. u /. 2.)))

let z_of confidence =
  if not (confidence > 0. && confidence < 1.) then
    invalid_arg "Stats.z_of: confidence outside (0, 1)";
  normal_quantile (0.5 +. (confidence /. 2.))

let clamp01 x = Float.min 1. (Float.max 0. x)

(* ---- Wilson score interval ----------------------------------------- *)

let wilson ?(confidence = 0.95) ~n ~k () =
  if n <= 0 then { lo = 0.; hi = 1. }
  else begin
    let z = z_of confidence in
    let nf = float_of_int n and kf = float_of_int k in
    let p = kf /. nf in
    let z2 = z *. z in
    let denom = 1. +. (z2 /. nf) in
    let centre = p +. (z2 /. (2. *. nf)) in
    let spread =
      z *. sqrt ((p *. (1. -. p) /. nf) +. (z2 /. (4. *. nf *. nf)))
    in
    {
      lo = clamp01 ((centre -. spread) /. denom);
      hi = clamp01 ((centre +. spread) /. denom);
    }
  end
