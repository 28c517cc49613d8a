type t = {
  label : string;
  total : int;
  out : out_channel;
  tty : bool;
  start_ns : int;
  mutable base_done : int;
      (* count already done when the bar appeared; -1 until the first
         update.  Rate is computed over the work actually witnessed, so a
         bar attached mid-run does not report an absurd first rate. *)
  mutable last_render_ns : int;  (* 0 = never rendered *)
  mutable last_decile : int;  (* non-tty: last 10%-step printed *)
  mutable last_width : int;  (* tty: printed width to blank out *)
  mutable finished : bool;
  mutable note : string;  (* free-form suffix, e.g. running rate ± CI *)
  mutable last_done : int;  (* latest count seen, for early-stop finish *)
}

let create ?(out = stderr) ~label ~total () =
  let tty = try Unix.isatty (Unix.descr_of_out_channel out) with _ -> false in
  {
    label;
    total;
    out;
    tty;
    start_ns = Clock.now_ns ();
    base_done = -1;
    last_render_ns = 0;
    last_decile = -1;
    last_width = 0;
    finished = false;
    note = "";
    last_done = 0;
  }

let set_note t note = t.note <- note

let eta_string seconds =
  if Float.is_nan seconds || seconds < 0.0 then "?"
  else if seconds < 90.0 then Printf.sprintf "%.0fs" seconds
  else if seconds < 5400.0 then
    let s = int_of_float seconds in
    Printf.sprintf "%dm%02ds" (s / 60) (s mod 60)
  else Printf.sprintf "%.1fh" (seconds /. 3600.0)

let line t done_ =
  if t.base_done < 0 then t.base_done <- done_;
  let elapsed = float_of_int (Clock.now_ns () - t.start_ns) /. 1e9 in
  let witnessed = done_ - t.base_done in
  let rate =
    if elapsed > 0.0 && witnessed > 0 then float_of_int witnessed /. elapsed
    else 0.0
  in
  let pct =
    if t.total <= 0 then 100.0
    else 100.0 *. float_of_int done_ /. float_of_int t.total
  in
  let eta =
    if done_ >= t.total then "0s"
    else if rate <= 0.0 then "?"
    else eta_string (float_of_int (t.total - done_) /. rate)
  in
  Printf.sprintf "%s: %d/%d (%.0f%%) %.1f/s eta %s%s" t.label done_ t.total pct
    rate eta
    (if t.note = "" then "" else "  " ^ t.note)

let render t done_ =
  if t.tty then begin
    let s = line t done_ in
    let padding = max 0 (t.last_width - String.length s) in
    Printf.fprintf t.out "\r%s%s%!" s (String.make padding ' ');
    t.last_width <- String.length s
  end
  else begin
    (* one line per 10% step keeps CI logs readable *)
    let decile =
      if t.total <= 0 then 10 else done_ * 10 / max 1 t.total
    in
    if decile > t.last_decile then begin
      t.last_decile <- decile;
      Printf.fprintf t.out "%s\n%!" (line t done_)
    end
  end

let update t done_ =
  if not t.finished then begin
    t.last_done <- done_;
    let now = Clock.now_ns () in
    if (not t.tty) || now - t.last_render_ns > 100_000_000 then begin
      t.last_render_ns <- now;
      render t done_
    end
  end

let finish ?at t =
  if not t.finished then begin
    t.finished <- true;
    let final = Option.value at ~default:t.total in
    if t.tty then begin
      render t final;
      Printf.fprintf t.out "\n%!"
    end
    else if t.last_decile < 10 then begin
      t.last_decile <- 10;
      Printf.fprintf t.out "%s\n%!" (line t final)
    end
  end

(* one bar per label, finished when the label changes *)
let bars ?out () =
  let current = ref None in
  let cb label note done_ total =
    let bar =
      match !current with
      | Some bar when bar.label = label && not bar.finished -> bar
      | Some bar ->
          if not bar.finished then finish ~at:bar.last_done bar;
          let bar = create ?out ~label ~total () in
          current := Some bar;
          bar
      | None ->
          let bar = create ?out ~label ~total () in
          current := Some bar;
          bar
    in
    set_note bar note;
    if done_ >= total then finish bar else update bar done_
  in
  let flush () =
    match !current with
    | Some bar when not bar.finished -> finish ~at:bar.last_done bar
    | _ -> ()
  in
  (cb, flush)

let callback_note () = bars ()

let callback ?out () =
  let cb, _flush = bars ?out () in
  fun label done_ total -> cb label "" done_ total
