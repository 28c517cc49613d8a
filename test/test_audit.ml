(* Every registered metric and every [Events] variant has a consumer:
   its name appears in a test, a CI step or a report (the tmrtool
   engine summary, the watch dashboard).  A metric
   or event that nothing reads is cost without a purpose, so adding one
   without a consumer fails here.  Likewise every [val] of a library
   interface has a reader outside its own implementation, every
   optional argument of one has a caller that passes it, and only the
   campaign replays a configuration. *)

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

(* ------------------------------------------------------------------ *)
(* Exports: every [val] in [lib/*/*.mli] is read outside its own [.ml]
   — by another library module, the CLI, the e2e benchmark, an example or
   a test — as [Module.name], through a [module X = ...Module] alias, or
   by name under [open Module] / [Module.( )].  A val only its own
   module reads belongs in the [.ml] alone; one nothing reads is dead.
   Comments do not count as readers. *)

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* the text with (nested) comments blanked; string and character
   literals are skipped whole, so a quote or paren inside one does not
   open or close anything *)
let strip_comments s =
  let n = String.length s in
  let b = Buffer.create n in
  let keep depth i j =
    if depth = 0 then Buffer.add_string b (String.sub s i (j - i))
  in
  let rec go i depth =
    if i >= n then ()
    else if s.[i] = '"' then begin
      let j = ref (i + 1) in
      while !j < n && s.[!j] <> '"' do
        j := !j + if s.[!j] = '\\' then 2 else 1
      done;
      let j = min n (!j + 1) in
      keep depth i j;
      go j depth
    end
    else if s.[i] = '\'' && i + 2 < n && s.[i + 2] = '\'' then (
      keep depth i (i + 3);
      go (i + 3) depth)
    else if s.[i] = '\'' && i + 3 < n && s.[i + 1] = '\\' && s.[i + 3] = '\''
    then (
      keep depth i (i + 4);
      go (i + 4) depth)
    else if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then
      go (i + 2) (depth + 1)
    else if depth > 0 && i + 1 < n && s.[i] = '*' && s.[i + 1] = ')' then
      go (i + 2) (depth - 1)
    else begin
      if depth = 0 || s.[i] = '\n' then Buffer.add_char b s.[i];
      go (i + 1) depth
    end
  in
  go 0 0;
  Buffer.contents b

(* Tokens: dotted identifier paths as component lists, and every other
   non-blank character as a one-character symbol. *)
type token = Path of string list | Sym of char

let tokens s =
  let s = strip_comments s in
  let n = String.length s in
  let ident i =
    let j = ref i in
    while !j < n && is_ident_char s.[!j] do incr j done;
    !j
  in
  let starts_ident i =
    i < n && match s.[i] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false
  in
  let rec path i comps =
    let j = ident i in
    let comps = String.sub s i (j - i) :: comps in
    if j < n && s.[j] = '.' && starts_ident (j + 1) then path (j + 1) comps
    else (j, List.rev comps)
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else if starts_ident i then
      let j, comps = path i [] in
      go j (Path comps :: acc)
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | '0' .. '9' -> go (ident i) acc
      | c -> go (i + 1) (Sym c :: acc)
  in
  go 0 []

let is_module_name s =
  s <> "" && Char.uppercase_ascii s.[0] = s.[0] && s.[0] <> '_'

let last l = List.nth l (List.length l - 1)

(* What one reader file names: qualified [Q.name] pairs, local aliases
   [X -> Q], opened modules, every bare identifier and every label it
   writes as [~label] or [?label]. *)
type reads = {
  qualified : (string * string, unit) Hashtbl.t;
  aliases : (string * string) list;
  opened : string list;
  idents : (string, unit) Hashtbl.t;
  labels : (string, unit) Hashtbl.t;
}

let reads_of text =
  let qualified = Hashtbl.create 1024 and idents = Hashtbl.create 1024 in
  let labels = Hashtbl.create 256 in
  let aliases = ref [] and opened = ref [] in
  let rec scan = function
    | [] -> ()
    | Path [ "module" ] :: Path [ x ] :: Sym '=' :: Path p :: rest ->
        aliases := (x, last p) :: !aliases;
        scan (Path p :: rest)
    | Path [ "open" ] :: Sym '!' :: Path p :: rest
    | Path [ "open" ] :: Path p :: rest ->
        opened := last p :: !opened;
        scan rest
    | Path p :: Sym '.' :: Sym '(' :: rest ->
        opened := last p :: !opened;
        scan (Sym '(' :: rest)
    | Path p :: rest ->
        List.iter (fun c -> Hashtbl.replace idents c ()) p;
        let rec pairs = function
          | q :: (name :: _ as tl) ->
              if is_module_name q then Hashtbl.replace qualified (q, name) ();
              pairs tl
          | _ -> ()
        in
        pairs p;
        scan rest
    | Sym ('~' | '?') :: Path (l :: _) :: rest ->
        Hashtbl.replace labels l ();
        scan rest
    | Sym _ :: rest -> scan rest
  in
  scan (tokens text);
  { qualified; aliases = !aliases; opened = !opened; idents; labels }

(* The vals of one interface as [((qualifier, name), optional labels)]:
   the qualifier is the module itself, or the innermost [module N : sig
   ... end]; members of a [module type] are a signature, not values, and
   are skipped.  A val's labels are the [?label:] of its type, up to the
   next item. *)
let vals_of ~modname text =
  let item = [ "val"; "type"; "exception"; "external"; "module"; "include"; "end" ] in
  let rec scan stack acc in_val = function
    | [] -> List.rev acc
    | Path [ "module" ] :: Path [ "type" ] :: Path [ _ ] :: Sym '='
      :: Path [ "sig" ] :: rest ->
        scan ("" :: stack) acc false rest
    | Path [ "module" ] :: Path [ n ] :: Sym ':' :: Path [ "sig" ] :: rest ->
        scan (n :: stack) acc false rest
    | Path [ "end" ] :: rest when List.length stack > 1 ->
        scan (List.tl stack) acc false rest
    | Path [ "val" ] :: Path [ name ] :: rest when List.hd stack <> "" ->
        scan stack (((List.hd stack, name), []) :: acc) true rest
    | Sym '?' :: Path [ l ] :: Sym ':' :: rest when in_val -> (
        match acc with
        | (v, ls) :: tl -> scan stack ((v, l :: ls) :: tl) true rest
        | [] -> scan stack acc true rest)
    | Path [ k ] :: rest when List.mem k item -> scan stack acc false rest
    | _ :: rest -> scan stack acc in_val rest
  in
  scan [ modname ] [] false (tokens text)

let read_by r (q, name) =
  Hashtbl.mem r.qualified (q, name)
  || List.exists
       (fun (x, target) -> target = q && Hashtbl.mem r.qualified (x, name))
       r.aliases
  || (List.mem q r.opened && Hashtbl.mem r.idents name)

let source_files dir suffixes =
  let dir = src dir in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f ->
         List.exists (fun s -> Filename.check_suffix f s) suffixes)
  |> List.map (Filename.concat dir)

let lib_dirs () =
  Sys.readdir (src "../lib") |> Array.to_list |> List.sort compare
  |> List.filter (fun d ->
         d.[0] <> '.' && Sys.is_directory (src (Filename.concat "../lib" d)))
  |> List.map (Filename.concat "../lib")

(* [f mli own vals readers]'s findings over every library interface,
   with [own] its implementation and [readers] the [.ml] files of
   [dirs] *)
let over_interfaces dirs f =
  let lib_dirs = lib_dirs () in
  let interfaces =
    List.concat_map (fun d -> source_files d [ ".mli" ]) lib_dirs
  in
  let readers =
    List.concat_map (fun d -> source_files d [ ".ml" ]) (lib_dirs @ dirs)
    |> List.map (fun f -> (f, reads_of (read f)))
  in
  Alcotest.(check bool) "interfaces found" true (List.length interfaces > 30);
  List.concat_map
    (fun mli ->
      let modname =
        String.capitalize_ascii
          (Filename.remove_extension (Filename.basename mli))
      in
      f mli
        (Filename.remove_extension mli ^ ".ml")
        (vals_of ~modname (read mli))
        readers)
    interfaces

let test_exports () =
  let unread =
    over_interfaces [ "../bin"; "../e2ebench"; "../examples"; "." ]
      (fun mli own vals readers ->
        List.filter_map
          (fun ((q, name) as v, _) ->
            if List.exists (fun (f, r) -> f <> own && read_by r v) readers
            then None
            else Some (Printf.sprintf "%s: %s.%s" (Filename.basename mli) q name))
          vals)
  in
  Alcotest.(check (list string)) "vals no other module reads" [] unread

(* ------------------------------------------------------------------ *)
(* Optional arguments: every [?label:] of a [val] in [lib/*/*.mli] is
   passed, as [~label] or [?label], by a file outside the val's own
   module that reads the val — in the library, the CLI, the e2e
   benchmark or a test.  An optional argument no caller sets is a knob
   nothing turns: its default is the only behaviour, and the argument
   belongs deleted. *)

let test_optionals () =
  let unpassed =
    over_interfaces [ "../bin"; "../e2ebench"; "." ]
      (fun mli own vals readers ->
        List.concat_map
          (fun (((q, name) as v), labels) ->
            List.filter_map
              (fun l ->
                if
                  List.exists
                    (fun (f, r) ->
                      f <> own && read_by r v && Hashtbl.mem r.labels l)
                    readers
                then None
                else
                  Some
                    (Printf.sprintf "%s: %s.%s ?%s" (Filename.basename mli) q
                       name l))
              (List.rev labels))
          vals)
  in
  Alcotest.(check (list string)) "optional arguments no caller passes" []
    unpassed

(* ------------------------------------------------------------------ *)
(* One replay loop: driving a simulator's pads, recording its baseline
   tape and deriving fault overlays belong to the fabric simulator and
   to the campaign (the paper's Fault Injection Manager).  Library, CLI
   and example code elsewhere replays a configuration through
   [Campaign.replay] or a campaign run, so the oracle exists once. *)

let replay_calls =
  [ "set_pad"; "set_node"; "tape_record"; "patch_delta"; "fault_delta" ]

let test_one_replay () =
  let owner = Filename.concat (src "../lib/inject") "campaign.ml" in
  let files =
    List.concat_map
      (fun d -> source_files d [ ".ml" ])
      (List.filter (fun d -> d <> "../lib/fabric") (lib_dirs ())
      @ [ "../bin"; "../examples" ])
    |> List.filter (fun f -> f <> owner)
  in
  Alcotest.(check bool) "sources found" true (List.length files > 30);
  let calls =
    List.concat_map
      (fun f ->
        let r = reads_of (read f) in
        List.filter_map
          (fun name ->
            if read_by r ("Fsim", name) then
              Some (Printf.sprintf "%s: Fsim.%s" (Filename.basename f) name)
            else None)
          replay_calls)
      files
  in
  Alcotest.(check (list string)) "replay primitives called outside Campaign"
    [] calls

let () =
  Alcotest.run "audit"
    [
      ( "consumers",
        [
          Alcotest.test_case "every metric is read" `Quick test_metrics;
          Alcotest.test_case "every event is read" `Quick test_events;
        ] );
      ( "exports",
        [
          Alcotest.test_case "every val is read outside its module" `Quick
            test_exports;
          Alcotest.test_case "every optional argument is passed" `Quick
            test_optionals;
        ] );
      ( "replay",
        [
          Alcotest.test_case "Campaign holds the only replay loop" `Quick
            test_one_replay;
        ] );
    ]
