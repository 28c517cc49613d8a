(* Fault forensics: footprint decoding, domain/partition attribution,
   bit-identical campaign results with collection on or off, voter-masking
   verdicts and the JSONL sink. *)

module Arch = Tmr_arch.Arch
module Device = Tmr_arch.Device
module Bitdb = Tmr_arch.Bitdb
module Footprint = Tmr_fabric.Footprint
module Partition = Tmr_core.Partition
module Impl = Tmr_pnr.Impl
module Campaign = Tmr_inject.Campaign
module Faultlist = Tmr_inject.Faultlist
module Forensics = Tmr_inject.Forensics
module Metrics = Tmr_obs.Metrics
module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs
module Fir = Tmr_filter.Fir

let dev = lazy (Device.build Arch.small)
let db = lazy (Bitdb.build (Lazy.force dev))

let impl_of strategy =
  let nl = Tmr_filter.Designs.build ~params:Fir.tiny_params strategy in
  Impl.implement_exn ~seed:3 (Lazy.force dev) (Lazy.force db) nl

let standard_impl = lazy (impl_of Partition.Unprotected)
let tmr_impl = lazy (impl_of Partition.Medium_partition)

let stimulus cycles =
  { Campaign.cycles;
    inputs = [ ("x", Fir.stimulus ~cycles ~seed:7 Fir.tiny_params) ] }

let golden_nl = lazy (Fir.build Fir.tiny_params)

(* --- structural footprint: every configuration bit decodes into
   in-range device resources of the right shape --- *)

let test_footprint_decodes_every_bit () =
  let d = Lazy.force dev and database = Lazy.force db in
  for bit = 0 to Bitdb.num_bits database - 1 do
    let fp = Footprint.of_bit d database bit in
    Array.iter
      (fun w ->
        if w < 0 || w >= d.Device.nwires then
          Alcotest.failf "bit %d: wire %d out of range" bit w)
      fp.Footprint.fp_wires;
    Array.iter
      (fun b ->
        if b < 0 || b >= d.Device.nbels then
          Alcotest.failf "bit %d: bel %d out of range" bit b)
      fp.Footprint.fp_bels;
    Array.iter
      (fun p ->
        if p < 0 || p >= d.Device.npads then
          Alcotest.failf "bit %d: pad %d out of range" bit p)
      fp.Footprint.fp_pads;
    let shape =
      ( Array.length fp.Footprint.fp_wires,
        Array.length fp.Footprint.fp_bels,
        Array.length fp.Footprint.fp_pads )
    in
    let expect =
      match Bitdb.resource database bit with
      | Bitdb.Pip _ -> (2, 0, 0)
      | Bitdb.Lut_bit _ | Bitdb.Ff_init _ | Bitdb.Out_sel _ | Bitdb.Ce_inv _
      | Bitdb.Sr_inv _ | Bitdb.In_inv _ ->
          (0, 1, 0)
      | Bitdb.Pad_enable _ -> (1, 0, 1)
      | Bitdb.Pad_cfg _ -> (0, 0, 1)
    in
    if shape <> expect then
      Alcotest.failf "bit %d: footprint shape mismatch" bit
  done

(* --- domain / partition attribution --- *)

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go mask 0

let test_attrib_invariants () =
  let a_std = Forensics.attrib_of_impl (Lazy.force standard_impl) in
  let a_tmr = Forensics.attrib_of_impl (Lazy.force tmr_impl) in
  Alcotest.(check bool) "TMR design has voter bels" true
    (Array.exists Fun.id a_tmr.Forensics.bel_voter);
  Alcotest.(check bool) "unprotected design has no voter bels" false
    (Array.exists Fun.id a_std.Forensics.bel_voter);
  Alcotest.(check bool) "TMR design has voter nets" true
    (Array.exists Fun.id a_tmr.Forensics.wire_voter);
  (* the TMR implementation places cells of all three redundancy domains *)
  List.iter
    (fun dom ->
      Alcotest.(check bool)
        (Printf.sprintf "TMR domain %d placed" dom)
        true
        (Array.exists (Int.equal dom) a_tmr.Forensics.bel_domain))
    [ 0; 1; 2 ];
  (* tags stay within range *)
  Array.iter
    (fun p ->
      Alcotest.(check bool) "wire partition id in range" true
        (p >= -1 && p < Array.length a_tmr.Forensics.part_names))
    a_tmr.Forensics.wire_part;
  Array.iter
    (fun d ->
      Alcotest.(check bool) "bel domain in range" true (d >= -1 && d <= 2))
    a_tmr.Forensics.bel_domain

let check_structural a bit =
  let st = Forensics.structural a bit in
  Alcotest.(check bool) "mask uses only domains 0-2" true
    (st.Forensics.domain_mask land lnot 7 = 0);
  Alcotest.(check bool) "cross-domain iff >= 2 domains"
    st.Forensics.cross_domain
    (popcount st.Forensics.domain_mask >= 2);
  let parts = st.Forensics.partitions in
  Array.iteri
    (fun i p ->
      Alcotest.(check bool) "partition ids sorted distinct" true
        (i = 0 || parts.(i - 1) < p);
      Alcotest.(check bool) "partition id names resolve" true
        (Forensics.part_name a p <> "?"))
    parts;
  (* structural-only record: divergence fields are unknown *)
  Alcotest.(check int) "no divergence count yet" (-1) st.Forensics.diverged;
  Alcotest.(check bool) "not voter-masked yet" false
    st.Forensics.masked_at_voter;
  st

let test_structural_attribution () =
  let a_std = Forensics.attrib_of_impl (Lazy.force standard_impl) in
  let a_tmr = Forensics.attrib_of_impl (Lazy.force tmr_impl) in
  let fl_std = Faultlist.of_impl (Lazy.force standard_impl) in
  Array.iter
    (fun bit ->
      let st = check_structural a_std bit in
      Alcotest.(check bool) "unprotected design: never cross-domain" false
        st.Forensics.cross_domain)
    fl_std.Faultlist.bits;
  let fl_tmr = Faultlist.of_impl (Lazy.force tmr_impl) in
  let cross = ref 0 and attributed = ref 0 in
  Array.iter
    (fun bit ->
      let st = check_structural a_tmr bit in
      if st.Forensics.cross_domain then incr cross;
      if st.Forensics.domain_mask <> 0 then incr attributed)
    fl_tmr.Faultlist.bits;
  Alcotest.(check bool) "TMR DUT bits mostly attributed to a domain" true
    (!attributed > 0);
  Alcotest.(check bool) "TMR routing exposes cross-domain bits" true
    (!cross > 0)

(* --- campaigns: results are bit-identical with forensics on or off --- *)

let strip (r : Campaign.fault_result) = { r with Campaign.forensics = None }

let result_testable =
  Alcotest.testable
    (fun ppf (r : Campaign.fault_result) ->
      Format.fprintf ppf "{bit=%d; wrong=%b; effect=%s; cycle=%d}"
        r.Campaign.bit
        (r.Campaign.outcome = Campaign.Wrong_answer)
        (Tmr_inject.Classify.name r.Campaign.effect)
        r.Campaign.first_error_cycle)
    ( = )

let test_forensics_bit_identical_campaigns () =
  let ctx =
    Context.create ~scale:Context.Reduced ~seed:4 ~faults_per_design:100 ()
  in
  List.iter
    (fun strategy ->
      let name = Partition.name strategy in
      let run = Runs.implement_design ctx strategy in
      let f =
        Option.get
          (Runs.campaign_design ~workers:2 ~forensics:true ctx run)
            .Runs.campaign
      in
      let o =
        Option.get
          (Runs.campaign_design ~workers:2 ~forensics:false ctx run)
            .Runs.campaign
      in
      Alcotest.(check int) (name ^ ": same injected") f.Campaign.injected
        o.Campaign.injected;
      Alcotest.(check (array result_testable))
        (name ^ ": identical results modulo the forensic record")
        (Array.map strip f.Campaign.results)
        (Array.map strip o.Campaign.results);
      Array.iter
        (fun r ->
          Alcotest.(check bool) (name ^ ": record present when on") true
            (r.Campaign.forensics <> None))
        f.Campaign.results;
      Array.iter
        (fun r ->
          Alcotest.(check bool) (name ^ ": no record when off") true
            (r.Campaign.forensics = None))
        o.Campaign.results;
      Alcotest.(check bool) (name ^ ": summary present when on") true
        (Campaign.forensic_summary f <> None);
      Alcotest.(check bool) (name ^ ": no summary when off") true
        (Campaign.forensic_summary o = None))
    Partition.all_paper_designs

(* --- forensic content on a TMR campaign --- *)

let test_forensic_records_tmr () =
  let ctx =
    Context.create ~scale:Context.Reduced ~seed:1 ~faults_per_design:150 ()
  in
  let before =
    match List.assoc_opt "campaign.first_error_cycle"
            (Metrics.snapshot ()).Metrics.histograms with
    | Some h -> h.Metrics.count
    | None -> 0
  in
  let run ?(forensics = true) strategy =
    Option.get
      (Runs.campaign_design ~workers:2 ~forensics ctx
         (Runs.implement_design ctx strategy))
        .Runs.campaign
  in
  let tmr = run Partition.Max_partition in
  (* per-record invariants *)
  Array.iter
    (fun (r : Campaign.fault_result) ->
      match r.Campaign.forensics with
      | None -> Alcotest.fail "missing forensic record"
      | Some f ->
          if f.Forensics.masked_at_voter then begin
            Alcotest.(check bool) "voter-masked implies silent" true
              (r.Campaign.outcome = Campaign.Silent);
            Alcotest.(check bool) "voter-masked implies divergence" true
              (f.Forensics.diverged > 0)
          end;
          if r.Campaign.outcome = Campaign.Silent then
            Alcotest.(check int) "silent has no error cycle" (-1)
              r.Campaign.first_error_cycle)
    tmr.Campaign.results;
  let s = Option.get (Campaign.forensic_summary tmr) in
  Alcotest.(check int) "every fault carries a record" tmr.Campaign.injected
    s.Campaign.fs_faults;
  Alcotest.(check bool) "TMR_p1 exposes cross-domain faults" true
    (s.Campaign.fs_cross > 0);
  Alcotest.(check bool) "voter masking observed" true
    (s.Campaign.fs_voter_masked > 0);
  Alcotest.(check bool) "voter-masked is a subset of silent-diverged" true
    (s.Campaign.fs_voter_masked <= s.Campaign.fs_silent_diverged);
  Alcotest.(check bool) "silent-diverged is a subset of diverged" true
    (s.Campaign.fs_silent_diverged <= s.Campaign.fs_diverged);
  (* the unprotected design has no redundancy to cross and no voters *)
  let std = run Partition.Unprotected in
  let s_std = Option.get (Campaign.forensic_summary std) in
  Alcotest.(check int) "unprotected: no cross-domain faults" 0
    s_std.Campaign.fs_cross;
  Alcotest.(check int) "unprotected: no voter masking" 0
    s_std.Campaign.fs_voter_masked;
  (* the first_error_cycle histogram collected every wrong answer *)
  let after =
    match List.assoc_opt "campaign.first_error_cycle"
            (Metrics.snapshot ()).Metrics.histograms with
    | Some h -> h.Metrics.count
    | None -> 0
  in
  Alcotest.(check int) "first_error_cycle histogram observes wrong answers"
    (tmr.Campaign.wrong + std.Campaign.wrong)
    (after - before)

(* --- provenance coverage: every fault the plan sends to the batch
   engine carries its divergence cone, bridges onto an unused constant
   bel included; only plan-level rebuilds (pad enables) lack
   provenance. --- *)

let test_fast_path_faults_have_provenance () =
  let ctx =
    Context.create ~scale:Context.Reduced ~seed:1 ~faults_per_design:1000 ()
  in
  let run = Runs.implement_design ctx Partition.Medium_partition in
  let impl = run.Runs.impl in
  let c =
    Option.get
      (Runs.campaign_design ~workers:2 ~forensics:true ctx run).Runs.campaign
  in
  let watch_outputs =
    Array.concat
      (List.map
         (fun (port, _) -> Campaign.dut_output_wires impl port)
         (Tmr_netlist.Netlist.output_ports impl.Impl.mapped))
  in
  let ex =
    Tmr_fabric.Extract.create impl.Impl.dev impl.Impl.db
      (Tmr_arch.Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream)
  in
  let ws = Tmr_fabric.Fsim.make_workspace impl.Impl.dev in
  ignore (Tmr_fabric.Fsim.build ~ws ex ~watch_outputs);
  let cone = Tmr_fabric.Fsim.snapshot_cone ws in
  let fast = ref 0 in
  Array.iter
    (fun (r : Campaign.fault_result) ->
      match Tmr_fabric.Fsim.plan_fault cone ex r.Campaign.bit with
      | Tmr_fabric.Fsim.Path_patch | Tmr_fabric.Fsim.Path_reroute ->
          incr fast;
          let f = Option.get r.Campaign.forensics in
          let label = Printf.sprintf "bit %d" r.Campaign.bit in
          (* a rebuild leaves the divergence fields at -1; a reroute that
             re-resolves to the very same graph seeds nothing and has an
             empty (0) cone, so it cannot diverge *)
          Alcotest.(check bool) (label ^ ": provenance recorded") true
            (f.Forensics.cone_nodes >= 0);
          if f.Forensics.cone_nodes = 0 then
            Alcotest.(check int) (label ^ ": empty cone, no divergence") 0
              f.Forensics.diverged
      | _ -> ())
    c.Campaign.results;
  Alcotest.(check bool) "fast-path faults sampled" true (!fast > 0)

(* --- JSONL sink --- *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let contains line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  go 0

let run_tiny_campaign () =
  let impl = Lazy.force tmr_impl in
  let fl = Faultlist.of_impl impl in
  let faults = Faultlist.sample fl ~seed:11 ~count:60 in
  Campaign.run ~name:"tmr_p2" ~impl ~golden:(Lazy.force golden_nl)
    ~stimulus:(stimulus 20) ~faults ()

let test_jsonl_emission () =
  let path = Filename.temp_file "forensics" ".jsonl" in
  Forensics.to_file path;
  let c =
    Fun.protect ~finally:Forensics.close (fun () -> run_tiny_campaign ())
  in
  let lines = read_lines path in
  Alcotest.(check int) "one record per injected fault" c.Campaign.injected
    (List.length lines);
  List.iter
    (fun line ->
      Alcotest.(check bool) "record is a JSON object" true
        (String.length line > 1 && line.[0] = '{'
        && line.[String.length line - 1] = '}');
      List.iter
        (fun field ->
          Alcotest.(check bool) (Printf.sprintf "record has %s" field) true
            (contains line (Printf.sprintf "\"%s\":" field)))
        [ "design"; "bit"; "effect"; "outcome"; "first_error_cycle";
          "domain_mask"; "cross_domain"; "masked_at_voter" ])
    lines;
  (* emission order is the fault-index order of the campaign *)
  List.iteri
    (fun i line ->
      let bit = c.Campaign.results.(i).Campaign.bit in
      Alcotest.(check bool)
        (Printf.sprintf "record %d is fault %d" i bit)
        true
        (contains line (Printf.sprintf "\"bit\":%d," bit)))
    lines;
  (* a second identical run streams identical bytes *)
  let path2 = Filename.temp_file "forensics" ".jsonl" in
  Forensics.to_file path2;
  ignore
    (Fun.protect ~finally:Forensics.close (fun () -> run_tiny_campaign ()));
  Alcotest.(check (list string)) "deterministic stream" lines
    (read_lines path2);
  Sys.remove path;
  Sys.remove path2

(* --- batched provenance: a lane's forensic record does not depend on
   its batch.  The same faults packed by cone key (the default), packed
   in reversed order (so lanes pair differently), or alone as one-lane
   batches record the same provenance, fault by fault and byte for byte
   in the JSONL stream — on a fault sample, and on every fault
   whose overlay puts a seed on a combinational loop (those lanes are
   Kleene-iterated inside the batch).  The rebuild oracle agrees on
   every verdict and structural field and records no divergence. --- *)

let pp_forensic ppf (r : Campaign.fault_result) =
  match r.Campaign.forensics with
  | None -> Format.fprintf ppf "{bit=%d; no record}" r.Campaign.bit
  | Some f ->
      Format.fprintf ppf
        "{bit=%d; wrong=%b; detect=%d; diverged=%d; first=%d@%d; depth=%d; \
         cone=%d; masked=%b}"
        r.Campaign.bit
        (r.Campaign.outcome = Campaign.Wrong_answer)
        r.Campaign.detect_cycle f.Forensics.diverged
        f.Forensics.first_diverged_node f.Forensics.diverge_cycle
        f.Forensics.depth f.Forensics.cone_nodes f.Forensics.masked_at_voter

let forensic_result = Alcotest.testable pp_forensic ( = )

(* the record without its divergence fields: what the oracle records *)
let structural_only (r : Campaign.fault_result) =
  {
    r with
    Campaign.forensics =
      Option.map
        (fun f ->
          {
            f with
            Forensics.masked_at_voter = false;
            diverged = -1;
            first_diverged_node = -1;
            diverge_cycle = -1;
            depth = -1;
            cone_nodes = -1;
          })
        r.Campaign.forensics;
  }

let test_batched_provenance_packing () =
  let ctx =
    Context.create ~scale:Context.Reduced ~seed:2 ~faults_per_design:120 ()
  in
  let configs =
    List.map (fun s -> (s, Tmr_core.Voter.Majority)) Partition.all_paper_designs
    @ [ (Partition.Medium_partition, Tmr_core.Voter.Detecting) ]
  in
  let batched_total = ref 0 in
  List.iter
    (fun (strategy, voter) ->
      let run = Runs.implement_design ~voter ctx strategy in
      let name =
        Partition.name strategy
        ^ if voter = Tmr_core.Voter.Detecting then "/detecting" else ""
      in
      let with_jsonl jsonl f =
        Option.iter Forensics.to_file jsonl;
        Fun.protect
          ~finally:(fun () -> if jsonl <> None then Forensics.close ())
          f
      in
      let campaign ?cone_skip ~workers jsonl =
        with_jsonl jsonl (fun () ->
            Option.get
              (Runs.campaign_design ~workers ~forensics:true ?cone_skip ctx
                 run)
                .Runs.campaign)
      in
      (* the faults in reversed order, results mapped back to the
         original fault indices; named as [Runs] names the packed run,
         since the design name is part of every JSONL record *)
      let reversed faults jsonl =
        let n = Array.length faults in
        let c =
          with_jsonl (Some jsonl) (fun () ->
              Campaign.run ~workers:1 ~forensics:true
                ~name:(Partition.name strategy) ~impl:run.Runs.impl
                ~golden:ctx.Context.golden_nl ~stimulus:ctx.Context.stimulus
                ~faults:(Array.init n (fun i -> faults.(n - 1 - i)))
                ())
        in
        Array.init n (fun i -> c.Campaign.results.(n - 1 - i))
      in
      let bits (c : Campaign.t) =
        Array.map (fun r -> r.Campaign.bit) c.Campaign.results
      in
      let alone faults =
        Array.map
          (fun bit ->
            (Campaign.run ~workers:1 ~forensics:true ~name ~impl:run.Runs.impl
               ~golden:ctx.Context.golden_nl ~stimulus:ctx.Context.stimulus
               ~faults:[| bit |] ())
              .Campaign.results.(0))
          faults
      in
      let packed_jsonl = Filename.temp_file "forensics-packed" ".jsonl" in
      let reversed_jsonl = Filename.temp_file "forensics-reversed" ".jsonl" in
      let packed = campaign ~workers:2 (Some packed_jsonl) in
      let rev_results = reversed (bits packed) reversed_jsonl in
      Alcotest.(check bool) (name ^ ": lanes ran batched") true
        (packed.Campaign.stats.Campaign.batched > 0);
      batched_total := !batched_total + packed.Campaign.stats.Campaign.batched;
      Alcotest.(check (array forensic_result))
        (name ^ ": reversed packing records equal")
        packed.Campaign.results rev_results;
      Alcotest.(check (list string))
        (name ^ ": JSONL records byte-identical")
        (read_lines packed_jsonl)
        (List.rev (read_lines reversed_jsonl));
      let first = Array.sub packed.Campaign.results 0 24 in
      Alcotest.(check (array forensic_result))
        (name ^ ": one-lane batches record equal")
        first
        (alone (Array.map (fun r -> r.Campaign.bit) first));
      let oracle = campaign ~cone_skip:false ~workers:2 None in
      Alcotest.(check (array forensic_result))
        (name ^ ": the oracle agrees on verdicts and structure")
        (Array.map structural_only packed.Campaign.results)
        oracle.Campaign.results;
      let loop = (Loop_faults.find run).Loop_faults.loop in
      let loop_campaign jsonl =
        with_jsonl (Some jsonl) (fun () ->
            Campaign.run ~workers:1 ~forensics:true
              ~name:(Partition.name strategy) ~impl:run.Runs.impl
              ~golden:ctx.Context.golden_nl ~stimulus:ctx.Context.stimulus
              ~faults:loop ())
      in
      let b = loop_campaign packed_jsonl in
      Alcotest.(check int)
        (name ^ ": every loop-closing fault ran batched")
        (Array.length loop) b.Campaign.stats.Campaign.batched;
      let w = reversed loop reversed_jsonl in
      Alcotest.(check (array forensic_result))
        (name ^ ": loop-closing faults: reversed packing records equal")
        b.Campaign.results w;
      Alcotest.(check (list string))
        (name ^ ": loop-closing faults: JSONL records byte-identical")
        (read_lines packed_jsonl)
        (List.rev (read_lines reversed_jsonl));
      let k = min 12 (Array.length loop) in
      Alcotest.(check (array forensic_result))
        (name ^ ": loop-closing faults: one-lane batches record equal")
        (Array.sub b.Campaign.results 0 k)
        (alone (Array.sub loop 0 k));
      Sys.remove packed_jsonl;
      Sys.remove reversed_jsonl)
    configs;
  Alcotest.(check bool) "batch engine exercised" true (!batched_total > 0)

let () =
  Alcotest.run "tmr_forensics"
    [
      ( "footprint",
        [
          Alcotest.test_case "every bit decodes in range" `Quick
            test_footprint_decodes_every_bit;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "attrib invariants" `Quick test_attrib_invariants;
          Alcotest.test_case "structural attribution" `Quick
            test_structural_attribution;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "bit-identical with forensics on/off (5 designs)"
            `Slow test_forensics_bit_identical_campaigns;
          Alcotest.test_case "TMR forensic records and summary" `Slow
            test_forensic_records_tmr;
          Alcotest.test_case "fast-path faults carry provenance (TMR_p2)"
            `Slow test_fast_path_faults_have_provenance;
        ] );
      ( "jsonl",
        [ Alcotest.test_case "stream per fault" `Quick test_jsonl_emission ] );
      ( "batched",
        [
          Alcotest.test_case "provenance independent of packing"
            `Slow test_batched_provenance_packing;
        ] );
    ]
