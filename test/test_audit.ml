(* Every registered metric and every [Events] variant has a consumer:
   its name appears in a test, a CI step or a report (the tmrtool
   engine summary, the watch dashboard, the bench harness).  A metric
   or event that nothing reads is cost without a purpose, so adding one
   without a consumer fails here. *)

module Metrics = Tmr_obs.Metrics

let read path = In_channel.with_open_bin path In_channel.input_all

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* the build copy of the source tree, where this executable lives in
   test/ *)
let here = Filename.dirname Sys.executable_name
let src path = Filename.concat here path

(* the tests (this file excepted), CI and the reports, as text *)
let consumers =
  lazy
    (let tests =
       Sys.readdir here |> Array.to_list |> List.sort compare
       |> List.filter (fun f ->
              Filename.check_suffix f ".ml" && f <> "test_audit.ml")
     in
     List.map
       (fun f -> read (src f))
       (tests
       @ [
           "../.github/workflows/ci.yml";
           "../bin/tmrtool.ml";
           "../bench/main.ml";
           "../lib/obs/watch.ml";
         ]))

let consumed needles =
  List.exists
    (fun text -> List.exists (fun needle -> contains ~needle text) needles)
    (Lazy.force consumers)

(* the instruments register at module initialisation: link the modules
   that own them *)
let _linked =
  [ Obj.repr Tmr_inject.Campaign.run; Obj.repr Tmr_experiments.Runs.implement_design ]

let registered_metrics () =
  let s = Metrics.snapshot () in
  List.map fst s.Metrics.counters
  @ List.map fst s.Metrics.gauges
  @ List.map fst s.Metrics.histograms

(* ["a.b.c"] is read by name, or through a quoted dotted prefix such as
   ["a.b."] that a report completes at run time *)
let metric_needles name =
  let q s = "\"" ^ s ^ "\"" in
  let rec prefixes i acc =
    match String.index_from_opt name i '.' with
    | Some j -> prefixes (j + 1) (q (String.sub name 0 (j + 1)) :: acc)
    | None -> acc
  in
  q name :: prefixes 0 []

let test_metrics () =
  let names = registered_metrics () in
  List.iter
    (fun owner ->
      Alcotest.(check bool)
        (owner ^ " instruments are registered")
        true
        (List.exists (fun n -> String.starts_with ~prefix:owner n) names))
    [ "campaign."; "pool."; "fsim." ];
  let orphans = List.filter (fun n -> not (consumed (metric_needles n))) names in
  Alcotest.(check (list string)) "metrics without a consumer" [] orphans

(* the constructors of [Events.event], read from its interface *)
let event_variants () =
  let src = read (src "../lib/obs/events.mli") in
  let lines = String.split_on_char '\n' src in
  let rec skip = function
    | l :: rest when String.starts_with ~prefix:"type event =" l -> rest
    | _ :: rest -> skip rest
    | [] -> []
  in
  let rec take acc = function
    | l :: _ when String.starts_with ~prefix:"val " l -> List.rev acc
    | l :: rest ->
        let l = String.trim l in
        if String.starts_with ~prefix:"| " l then
          let name = String.sub l 2 (String.length l - 2) in
          let name =
            match String.index_opt name ' ' with
            | Some i -> String.sub name 0 i
            | None -> name
          in
          take (name :: acc) rest
        else take acc rest
    | [] -> List.rev acc
  in
  take [] (skip lines)

let test_events () =
  let variants = event_variants () in
  Alcotest.(check bool) "variants found" true (List.length variants >= 5);
  let orphans =
    List.filter
      (fun v ->
        not
          (consumed [ v; "\"" ^ String.lowercase_ascii v ^ "\"" ]))
      variants
  in
  Alcotest.(check (list string)) "events without a consumer" [] orphans

let () =
  Alcotest.run "audit"
    [
      ( "consumers",
        [
          Alcotest.test_case "every metric is read" `Quick test_metrics;
          Alcotest.test_case "every event is read" `Quick test_events;
        ] );
    ]
