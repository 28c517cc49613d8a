(* Experiment harness: regenerates every table and figure of the paper.

   Usage:
     dune exec bench/main.exe                    # everything, paper scale
     dune exec bench/main.exe -- table3 fig1     # selected experiments
     dune exec bench/main.exe -- quick           # everything, reduced scale

   TMR_FAULTS=<n> overrides the faults-per-design sample size.
   TMR_JOBS=<n> overrides the campaign worker-domain count.  Both must be
   positive integers.  Performance numbers come from e2ebench
   (BENCH_e2e.json), not from this harness. *)

module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs
module Tables = Tmr_experiments.Tables
module Figures = Tmr_experiments.Figures
module Reports = Tmr_experiments.Reports
module Partition = Tmr_core.Partition
module Campaign = Tmr_inject.Campaign

let say fmt = Printf.printf (fmt ^^ "\n%!")

let int_env name =
  match Sys.getenv_opt name with
  | None -> None
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> Some n
      | Some _ | None ->
          Printf.eprintf "bench: %s must be a positive integer, got %S\n" name v;
          exit 2)

let time name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  say "[%s: %.1fs]" name (Unix.gettimeofday () -. t0);
  r

(* ------------------------------------------------------------------ *)
(* Experiment registry *)

type wants = {
  mutable device : bool;
  mutable memory : bool;
  mutable t1 : bool;
  mutable t2 : bool;
  mutable t3 : bool;
  mutable t4 : bool;
  mutable f1 : bool;
  mutable f2 : bool;
  mutable f3 : bool;
  mutable f4 : bool;
  mutable ablation : bool;
  mutable scrub : bool;
  mutable scale : Context.scale;
}

let needs_runs w = w.t3 || w.t4
let needs_impls w = needs_runs w || w.t1 || w.t2 || w.f1 || w.f3 || w.f4

let run_experiments w ?workers ~faults ~seed () =
  let ctx = Context.create ~scale:w.scale ~seed ~faults_per_design:faults () in
  say "device: %s"
    (Format.asprintf "%a" Tmr_arch.Arch.pp ctx.Context.dev.Tmr_arch.Device.params);
  if w.device then begin
    print_string (Reports.device_report ctx);
    print_newline ()
  end;
  if w.memory then begin
    print_string (Reports.memory_report ctx);
    print_newline ()
  end;
  if w.f2 then begin
    print_string (time "fig2" (fun () -> Figures.fig2 ctx));
    print_newline ()
  end;
  if needs_impls w then begin
    let impls =
      time "implement 5 designs" (fun () ->
          List.map (Runs.implement_design ctx) Partition.all_paper_designs)
    in
    let find strategy = List.find (fun r -> r.Runs.strategy = strategy) impls in
    if w.t1 then begin
      print_string
        (time "table1" (fun () ->
             Tables.table1 ctx (find Partition.Medium_partition)));
      print_newline ()
    end;
    if w.f1 then begin
      print_string
        (time "fig1" (fun () ->
             Figures.fig1 ctx (find Partition.Min_partition_nv)));
      print_newline ()
    end;
    if w.f3 then begin
      print_string
        (time "fig3" (fun () ->
             Figures.fig3 ctx
               (find Partition.Min_partition_nv)
               (find Partition.Medium_partition)));
      print_newline ()
    end;
    if w.f4 then begin
      print_string (Figures.fig4 impls);
      print_newline ()
    end;
    if w.t2 then begin
      print_string (Tables.table2 impls);
      print_newline ()
    end;
    if needs_runs w then begin
      let last_design = ref "" in
      (* the pool already rate-limits the callback; print every tick *)
      let progress name (p : Campaign.progress) =
        if name <> !last_design then begin
          say "campaign %s: %d faults..." name p.Campaign.p_total;
          last_design := name
        end;
        say "  %s: %d/%d (%d wrong)" name p.Campaign.p_completed
          p.Campaign.p_total p.Campaign.p_wrong
      in
      let runs =
        time "fault-injection campaigns" (fun () ->
            List.map (Runs.campaign_design ~progress ?workers ctx) impls)
      in
      if w.t3 then begin
        print_string (Tables.table3 runs);
        print_newline ()
      end;
      if w.t4 then begin
        print_string (Tables.table4 runs);
        print_newline ()
      end
    end
  end

(* ------------------------------------------------------------------ *)

let () =
  let w =
    {
      device = false; memory = false; t1 = false; t2 = false; t3 = false;
      t4 = false; f1 = false; f2 = false; f3 = false; f4 = false;
      ablation = false; scrub = false; scale = Context.Paper;
    }
  in
  let all () =
    w.device <- true; w.memory <- true; w.t1 <- true; w.t2 <- true;
    w.t3 <- true; w.t4 <- true; w.f1 <- true; w.f2 <- true; w.f3 <- true;
    w.f4 <- true; w.ablation <- true; w.scrub <- true
  in
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [] then all ()
  else
    List.iter
      (function
        | "all" -> all ()
        | "quick" ->
            all ();
            w.scale <- Context.Reduced
        | "device" -> w.device <- true
        | "memory" -> w.memory <- true
        | "table1" -> w.t1 <- true
        | "table2" -> w.t2 <- true
        | "table3" -> w.t3 <- true
        | "table4" -> w.t4 <- true
        | "fig1" -> w.f1 <- true
        | "fig2" -> w.f2 <- true
        | "fig3" -> w.f3 <- true
        | "fig4" -> w.f4 <- true
        | "ablation" -> w.ablation <- true
        | "scrub" -> w.scrub <- true
        | "reduced" -> w.scale <- Context.Reduced
        | other ->
            Printf.eprintf
              "unknown experiment %S (device memory table1-4 fig1-4 \
               ablation scrub quick all reduced)\n"
              other;
            exit 2)
      args;
  let workers = int_env "TMR_JOBS" in
  let faults =
    match int_env "TMR_FAULTS" with
    | Some n -> n
    | None -> if w.scale = Context.Paper then 1500 else 400
  in
  if w.device || w.memory || needs_impls w || w.f2 then
    run_experiments w ?workers ~faults ~seed:1 ();
  if w.ablation || w.scrub then begin
    let ctx = Context.create ~scale:w.scale ~seed:1 ~faults_per_design:faults () in
    if w.ablation then begin
      print_string
        (time "ablation" (fun () ->
             Tmr_experiments.Ablation.floorplan ctx Partition.Medium_partition));
      print_newline ()
    end;
    if w.scrub then begin
      print_string (time "scrub" (fun () -> Tmr_experiments.Ablation.scrub ctx));
      print_newline ()
    end
  end
