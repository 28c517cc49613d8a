type t = {
  params : Fir.params;
  delay : int array;  (* delay.(i) = x[n-i-1] *)
}

let create params =
  { params; delay = Array.make (Array.length params.Fir.coeffs - 1) 0 }

let wrap width v =
  let m = 1 lsl width in
  let r = v land (m - 1) in
  if r land (1 lsl (width - 1)) <> 0 then r - m else r

let step t x =
  let p = t.params in
  let acc = ref 0 in
  Array.iteri
    (fun i c ->
      let sample = if i = 0 then x else t.delay.(i - 1) in
      acc := wrap p.Fir.acc_width (!acc + wrap p.Fir.acc_width (c * sample)))
    p.Fir.coeffs;
  (* shift the delay line *)
  for i = Array.length t.delay - 1 downto 1 do
    t.delay.(i) <- t.delay.(i - 1)
  done;
  if Array.length t.delay > 0 then t.delay.(0) <- x;
  !acc

let run params inputs =
  let t = create params in
  Array.map (step t) inputs
