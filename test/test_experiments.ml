(* End-to-end smoke tests of the experiment layer at reduced scale. *)

module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs
module Tables = Tmr_experiments.Tables
module Figures = Tmr_experiments.Figures
module Reports = Tmr_experiments.Reports
module Ablation = Tmr_experiments.Ablation
module Partition = Tmr_core.Partition
module Campaign = Tmr_inject.Campaign

let ctx =
  lazy (Context.create ~scale:Context.Reduced ~seed:2 ~faults_per_design:120 ())

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_reports () =
  let c = Lazy.force ctx in
  let dr = Reports.device_report c in
  Alcotest.(check bool) "device report mentions frames" true
    (contains dr "frames");
  Alcotest.(check bool) "device report cites the paper value" true
    (contains dr "1,442,016");
  let mr = Reports.memory_report c in
  Alcotest.(check bool) "memory report has routing row" true
    (contains mr "routing");
  Alcotest.(check bool) "memory report cites 82.9" true (contains mr "82.9")

(* Golden assertions against the paper's XC2S200E constants: the report
   must quote them verbatim, and at paper scale the model's own geometry
   must land on (or near) them. *)
let test_paper_constants () =
  let c = Context.create ~scale:Context.Paper ~seed:1 () in
  let dr = Reports.device_report c in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "device report cites %S" s)
        true (contains dr s))
    [ "28 x 42"; "1,442,016"; "2,501"; "576"; "4,704 (2,352 slices x 2)" ];
  let p = c.Context.dev.Tmr_arch.Device.params in
  Alcotest.(check int) "CLB rows" 28 p.Tmr_arch.Arch.rows;
  Alcotest.(check int) "CLB cols" 42 p.Tmr_arch.Arch.cols;
  Alcotest.(check int) "frame bits exactly the paper's" 576
    (Tmr_arch.Bitdb.frame_bits c.Context.db);
  let mr = Reports.memory_report c in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "memory report cites %S" s)
        true (contains mr s))
    [ "routing"; "LUT"; "customization"; "flip-flop";
      "82.9"; "7.4"; "6.36"; "0.46" ];
  (* the model's composition tracks the paper's split *)
  let counts = Tmr_arch.Bitdb.class_counts c.Context.db in
  let total = float_of_int (Tmr_arch.Bitdb.num_bits c.Context.db) in
  let pct cls = 100.0 *. float_of_int (List.assoc cls counts) /. total in
  let near what paper tol actual =
    if Float.abs (actual -. paper) > tol then
      Alcotest.failf "%s: %.2f%% not within %.1f of the paper's %.2f%%" what
        actual tol paper
  in
  near "routing share" 82.9 5.0 (pct Tmr_arch.Bitdb.Class_routing);
  near "LUT share" 7.4 2.0 (pct Tmr_arch.Bitdb.Class_lut);
  near "customization share" 6.36 3.0 (pct Tmr_arch.Bitdb.Class_custom);
  near "flip-flop share" 0.46 0.5 (pct Tmr_arch.Bitdb.Class_ff)

let runs =
  lazy
    (let c = Lazy.force ctx in
     List.map
       (fun s -> Runs.campaign_design c (Runs.implement_design c s))
       [ Partition.Unprotected; Partition.Medium_partition ])

let test_table2_table3 () =
  let rs = Lazy.force runs in
  let t2 = Tables.table2 rs in
  Alcotest.(check bool) "table2 lists standard" true
    (contains t2 "Standard Filter");
  Alcotest.(check bool) "table2 lists p2" true (contains t2 "TMR_p2");
  let t3 = Tables.table3 rs in
  Alcotest.(check bool) "table3 cites the paper's 0.98" true
    (contains t3 "0.98");
  (* standard must be far more sensitive than TMR in the campaign *)
  let pct name =
    let run =
      List.find (fun r -> Partition.name r.Runs.strategy = name) rs
    in
    match run.Runs.campaign with
    | Some c -> Campaign.wrong_percent c
    | None -> Alcotest.fail "campaign missing"
  in
  Alcotest.(check bool) "standard >> tmr_p2" true
    (pct "standard" > 4.0 *. pct "tmr_p2")

let test_table4 () =
  let rs = Lazy.force runs in
  let t4 = Tables.table4 rs in
  Alcotest.(check bool) "table4 has bridge row" true (contains t4 "Bridge");
  Alcotest.(check bool) "table4 has totals" true (contains t4 "Total")

let test_fig2 () =
  let c = Lazy.force ctx in
  let s = Figures.fig2 c in
  (* the voted variant must report zero output errors after both upsets *)
  Alcotest.(check bool) "fig2 voted row present" true (contains s "voted (fig 2)");
  Alcotest.(check bool) "fig2 explains recovery" true
    (contains s "re-converge")

let test_fig4_and_wire_domains () =
  let rs = Lazy.force runs in
  let f4 = Figures.fig4 rs in
  Alcotest.(check bool) "fig4 lists voter stages" true
    (contains f4 "voter stages");
  (* wire_domains: every routed wire of the TMR design belongs to a domain
     or -1; unused wires are -2 *)
  let tmr = List.nth rs 1 in
  let domains = Figures.wire_domains tmr in
  let used = ref 0 in
  Array.iter
    (fun d ->
      Alcotest.(check bool) "domain in range" true (d >= -2 && d <= 2);
      if d >= -1 then incr used)
    domains;
  Alcotest.(check bool) "some wires used" true (!used > 0)

let test_short_experiment_direction () =
  let c = Lazy.force ctx in
  let nv = Runs.implement_design c Partition.Min_partition_nv in
  let i_same, w_same = Figures.short_experiment c nv ~same_domain:true ~n:60 in
  let i_diff, w_diff = Figures.short_experiment c nv ~same_domain:false ~n:60 in
  Alcotest.(check bool) "candidates exist" true (i_same > 0 && i_diff > 0);
  let pct w i = float_of_int w /. float_of_int (max i 1) in
  Alcotest.(check bool)
    (Printf.sprintf "inter-domain shorts (%d/%d) worse than intra (%d/%d)"
       w_diff i_diff w_same i_same)
    true
    (pct w_diff i_diff > pct w_same i_same)

let test_ablation_renders () =
  let c =
    Context.create ~scale:Context.Reduced ~seed:2 ~faults_per_design:60 ()
  in
  let fp = Ablation.floorplan c Partition.Medium_partition in
  Alcotest.(check bool) "floorplan table" true (contains fp "per-domain");
  let sc = Ablation.scrub c in
  Alcotest.(check bool) "scrub table" true (contains sc "upsets")

(* Out-of-range numbers on the command line are usage errors: the
   built [tmrtool] rejects them while parsing (Cmdliner's exit 124, a
   one-line message naming the option), before any work starts.  A
   non-positive [TMR_JOBS] exits 2 with a line naming the variable, and
   so does an unknown [report] name, naming the report. *)

let tmrtool =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/tmrtool.exe"

let test_cli_rejects_out_of_range () =
  let inject args =
    "inject" :: "--scale" :: "reduced" :: "--design" :: "standard" :: args
  in
  let run ~env ~code ~names args =
    let argv = Array.of_list (tmrtool :: args) in
    let out, inp, err =
      Unix.open_process_args_full tmrtool argv (Array.of_list env)
    in
    close_out inp;
    let stdout = In_channel.input_all out in
    let stderr = In_channel.input_all err in
    let status = Unix.close_process_full (out, inp, err) in
    let cmd =
      String.concat " " (env @ [ Filename.basename tmrtool ] @ args)
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s: exit %d" cmd code)
      true
      (status = Unix.WEXITED code);
    Alcotest.(check bool)
      (cmd ^ ": no internal error")
      false
      (contains (stdout ^ stderr) "internal error");
    Alcotest.(check bool)
      (cmd ^ ": the message names " ^ names)
      true (contains stderr names)
  in
  List.iter
    (fun (option, args) ->
      run ~env:[] ~code:124
        ~names:("option '" ^ option ^ "'")
        args)
    [
      ("--confidence", inject [ "--faults"; "50"; "--confidence"; "1.5" ]);
      ("--confidence", inject [ "--faults"; "50"; "--confidence"; "0" ]);
      ( "--confidence",
        [ "report"; "campaign"; "--scale"; "reduced"; "--confidence"; "1" ] );
      ("--confidence", [ "watch"; "--confidence=-0.5"; "/dev/null" ]);
      ("--shards", inject [ "--exhaustive"; "--shards"; "0" ]);
      ("--shards", inject [ "--exhaustive"; "--shards=-3" ]);
      ("--procs", inject [ "--exhaustive"; "--procs=-2" ]);
      ("--shard-limit", inject [ "--exhaustive"; "--shard-limit"; "0" ]);
      ("--faults", inject [ "--faults=-5" ]);
      ("--faults", inject [ "--faults"; "0" ]);
    ];
  List.iter
    (fun value ->
      run ~env:[ "TMR_JOBS=" ^ value ] ~code:2 ~names:"TMR_JOBS"
        (inject [ "--faults"; "20" ]))
    [ "0"; "-3" ];
  run ~env:[] ~code:2 ~names:"\"nosuch\""
    [ "report"; "--scale"; "reduced"; "device"; "nosuch" ]

let () =
  Alcotest.run "tmr_experiments"
    [
      ( "experiments",
        [
          Alcotest.test_case "SS2/SS4 reports" `Quick test_reports;
          Alcotest.test_case "paper XC2S200E constants" `Quick
            test_paper_constants;
          Alcotest.test_case "tables 2 and 3" `Quick test_table2_table3;
          Alcotest.test_case "table 4" `Quick test_table4;
          Alcotest.test_case "fig 2" `Quick test_fig2;
          Alcotest.test_case "fig 4 + wire domains" `Quick
            test_fig4_and_wire_domains;
          Alcotest.test_case "fig 1/3 short experiments" `Quick
            test_short_experiment_direction;
          Alcotest.test_case "ablations render" `Quick test_ablation_renders;
        ] );
      ( "cli",
        [
          Alcotest.test_case "out-of-range numbers are usage errors" `Quick
            test_cli_rejects_out_of_range;
        ] );
    ]
