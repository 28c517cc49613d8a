module Logic = Tmr_logic.Logic
module Netlist = Tmr_netlist.Netlist
module Netsim = Tmr_netlist.Netsim
module Bitstream = Tmr_arch.Bitstream
module Impl = Tmr_pnr.Impl
module Extract = Tmr_fabric.Extract
module Fsim = Tmr_fabric.Fsim
module Fsim_batch = Tmr_fabric.Fsim_batch
module Bitdb = Tmr_arch.Bitdb
module Device = Tmr_arch.Device

type stimulus = {
  cycles : int;
  inputs : (string * int array) list;
}

type outcome =
  | Silent
  | Wrong_answer

type fault_result = {
  bit : int;
  outcome : outcome;
  effect : Classify.effect;
  first_error_cycle : int;
  detect_cycle : int;
      (** first cycle an in-circuit disagreement flag fired, [-1] = never
          (always [-1] on designs without detection voters) *)
  forensics : Forensics.t option;  (** None when collection was off *)
}

(* Four-way detected-vs-silent verdict taxonomy: the functional outcome
   crossed with whether the design's own detection logic flagged the
   upset.  [Silent_wrong] is the silent-data-corruption (SDC) class —
   the design answered wrongly and its voters never noticed. *)
type verdict =
  | Silent_correct
  | Detected_corrected
  | Detected_wrong
  | Silent_wrong

let verdict_of r =
  match (r.outcome, r.detect_cycle >= 0) with
  | Silent, false -> Silent_correct
  | Silent, true -> Detected_corrected
  | Wrong_answer, true -> Detected_wrong
  | Wrong_answer, false -> Silent_wrong

type engine_stats = {
  skipped : int;
  patched : int;
  rerouted : int;
  rebuilt : int;
  diffed : int;
  converged : int;
  batched : int;
}

type t = {
  design : string;
  requested : int;
  injected : int;
  wrong : int;
  results : fault_result array;
  workers : int;
  stats : engine_stats;
  wall_ns : int;
  busy_ns : int array;
  setup_ns : int array;
}

type progress = {
  p_completed : int;
  p_total : int;
  p_wrong : int;
}

let no_stats =
  {
    skipped = 0;
    patched = 0;
    rerouted = 0;
    rebuilt = 0;
    diffed = 0;
    converged = 0;
    batched = 0;
  }

(* [sum busy_ns / (workers * wall_ns)]: injection work only, setup
   excluded ([summary_json]'s [inject_utilization]).  On the batched
   engine it tracks how small the per-fault work got next to the fixed
   per-worker setup, so read it as an engine speed signal, not as idle
   workers. *)
let inject_utilization t =
  if t.wall_ns <= 0 || t.workers <= 0 then 0.0
  else
    float_of_int (Array.fold_left ( + ) 0 t.busy_ns)
    /. (float_of_int t.workers *. float_of_int t.wall_ns)

let utilization t =
  if t.wall_ns <= 0 || t.workers <= 0 then 0.0
  else
    float_of_int
      (Array.fold_left ( + ) 0 t.busy_ns + Array.fold_left ( + ) 0 t.setup_ns)
    /. (float_of_int t.workers *. float_of_int t.wall_ns)

(* Per-path fault latency: the three distributions are the engine's
   cost model (silent ≈ ns, batch ≈ µs per lane, rebuild ≈ ms) and drift
   in any of them is a perf regression even when the mean hides it.
   The batch figure is amortised: batch wall time / lanes executed. *)
let m_fault_silent = Tmr_obs.Metrics.histogram "campaign.fault_ns.silent"
let m_fault_rebuild = Tmr_obs.Metrics.histogram "campaign.fault_ns.rebuild"
let m_fault_batch = Tmr_obs.Metrics.histogram "campaign.fault_ns.batch"

(* Batch-engine accounting: lanes executed word-parallel and the lane
   count of each executed batch (occupancy — near the width when cone
   grouping packs well). *)
let m_batch_lanes = Tmr_obs.Metrics.counter "campaign.batch_lanes"
let m_batch_occupancy = Tmr_obs.Metrics.histogram "campaign.batch_occupancy"

(* Batch-kernel work ({!Fsim_batch.work}), added once per batch: plane
   words (one node, every lane) computed by the LUT/resolve kernel and
   the single-lane masked resolves (rewired resolve rows, appended
   resolve nodes). *)
let m_batch_evals = Tmr_obs.Metrics.counter "campaign.batch_evals"
let m_batch_splices = Tmr_obs.Metrics.counter "campaign.batch_splices"

(* Latency-to-error distribution: at which stimulus cycle wrong-answer
   faults first disagree with the golden reference. *)
let m_first_error = Tmr_obs.Metrics.histogram "campaign.first_error_cycle"

(* In-circuit detection observability (campaigns whose design carries a
   detecting voter): the four-way verdict split and the detection
   latency distribution (cycles from first internal divergence — when
   forensics recorded one — to the first disagreement flag). *)
let m_det_silent_correct =
  Tmr_obs.Metrics.counter "campaign.detection.silent_correct"
let m_det_corrected =
  Tmr_obs.Metrics.counter "campaign.detection.detected_corrected"
let m_det_wrong = Tmr_obs.Metrics.counter "campaign.detection.detected_wrong"
let m_det_silent_wrong =
  Tmr_obs.Metrics.counter "campaign.detection.silent_wrong"
let m_det_latency =
  Tmr_obs.Metrics.histogram "campaign.detection.latency_cycles"
let m_busy = Tmr_obs.Metrics.counter "campaign.worker_busy_ns"
let m_util = Tmr_obs.Metrics.gauge "campaign.worker_utilization"

let add_stats a b =
  {
    skipped = a.skipped + b.skipped;
    patched = a.patched + b.patched;
    rerouted = a.rerouted + b.rerouted;
    rebuilt = a.rebuilt + b.rebuilt;
    diffed = a.diffed + b.diffed;
    converged = 0;
    batched = a.batched + b.batched;
  }

let default_workers () = max 1 (Domain.recommended_domain_count () - 1)

let golden_outputs nl stimulus =
  List.iter
    (fun (port, samples) ->
      if Array.length samples < stimulus.cycles then
        invalid_arg (Printf.sprintf "Campaign: port %S has too few samples" port))
    stimulus.inputs;
  let sim = Netsim.create nl in
  Netsim.reset sim;
  let ports = Netlist.output_ports nl in
  let record =
    List.map
      (fun (port, bits) ->
        (port, Array.make_matrix stimulus.cycles (Array.length bits) Logic.X))
      ports
  in
  for cycle = 0 to stimulus.cycles - 1 do
    List.iter
      (fun (port, samples) -> Netsim.set_input sim port samples.(cycle))
      stimulus.inputs;
    Netsim.eval sim;
    List.iter
      (fun (port, matrix) ->
        let bits = Netsim.output_bits sim port in
        Array.blit bits 0 matrix.(cycle) 0 (Array.length bits))
      record;
    Netsim.clock sim
  done;
  record

(* The DUT's physical pads for a base input port: the port itself on an
   unprotected design, or its three domain copies on a TMR design. *)
let dut_input_wires impl port =
  let mapped = impl.Impl.mapped in
  let has name = List.mem_assoc name (Netlist.input_ports mapped) in
  let port_wires name =
    let bits = Netlist.find_input_port mapped name in
    Array.init (Array.length bits) (Impl.input_pad_wire impl name)
  in
  if has port then [ port_wires port ]
  else begin
    let copies =
      List.init Tmr_core.Tmr.domains (Tmr_core.Tmr.redundant_port port)
    in
    List.iter
      (fun c ->
        if not (has c) then
          invalid_arg (Printf.sprintf "Campaign: DUT has no input port %S" c))
      copies;
    List.map port_wires copies
  end

let dut_output_wires impl port =
  let bits = Netlist.find_output_port impl.Impl.mapped port in
  Array.init (Array.length bits) (Impl.output_pad_wire impl port)

(* Resolved physical IO of one simulator: pad-node sets per input port,
   (watch nodes, golden matrix) per output port.  Resolving once per
   simulator — instead of once per fault, as [run_dut] used to — keeps
   hash lookups out of the steady-state fault loop entirely. *)
type io = {
  io_ins : (int array list * int array) list;
  io_outs : (int array * Logic.t array array) list;
  io_dets : int array list;
      (* in-circuit detection flag nodes, one array per detect port;
         expected all-zero on the fault-free device *)
}

(* A worker's simulator state, built on its first use in a session and
   kept for every later run: its own extract (flipped fault by fault and
   restored), workspace, the golden simulator built from them with its
   cone snapshot, the base watch nodes, the voter nodes
   of the masked-at-voter verdict, the batch context with the fault-free
   baseline tape (none on the oracle), and the overlay scratch. *)
type wstate = {
  w_ex : Extract.t;
  w_ws : Fsim.workspace;
  w_base : Fsim.t;
  w_cone : Fsim.cone;
  w_watch : int array;
  w_voters : Bytes.t;
  w_batch : (Fsim_batch.t * Fsim.tape) option;
  w_scratch : Fsim.scratch;
}

type session = {
  s_name : string;
  s_impl : Impl.t;
  s_workers : int;
  s_cone_skip : bool;
  s_fattr : Forensics.attrib option;  (* forensic records collected *)
  s_masking : Forensics.attrib option;  (* vote-masking proof applies *)
  s_cycles : int;
  s_input_map : (int array list * int array) list;
  s_output_map : (string * int array * Logic.t array array) list;
  s_detect_map : (string * int array) list;
  s_ndetect : int;
  s_watch_outputs : int array;
  s_expected : Logic.t array array;
  s_golden_ex : Extract.t;
  s_states : wstate option array;  (* per worker id, built lazily *)
  mutable s_build_ns : int;  (* session build not yet counted by a run *)
}

let session ?workers ?(cone_skip = true) ?(forensics = false) ~name ~impl
    ~golden ~stimulus () =
  let t0 = Tmr_obs.Clock.now_ns () in
  let workers =
    match workers with Some w -> max 1 w | None -> default_workers ()
  in
  (* a registered forensics sink implies collection, like tracing *)
  let forensics = forensics || Forensics.enabled () in
  (* Structural attribution feeds the forensic records and the
     vote-masking proof ({!Forensics.masked_domain}): on a qualifying
     design the planning pass classifies a fault confined to one domain,
     touching no voter, as silent without simulating it.  The proof is
     off on the oracle, which stays independent of it, and under
     forensics, whose records need the simulated divergence. *)
  let attrib =
    if forensics || cone_skip then
      Some
        (Tmr_obs.Trace.with_span "forensics_attrib" (fun () ->
             Forensics.attrib_of_impl impl))
    else None
  in
  let golden_ref =
    Tmr_obs.Trace.with_span "golden" (fun () -> golden_outputs golden stimulus)
  in
  (* physical IO map — shared read-only across workers *)
  let input_map =
    List.map
      (fun (port, samples) -> (dut_input_wires impl port, samples))
      stimulus.inputs
  in
  let output_map =
    List.map
      (fun (port, matrix) -> (port, dut_output_wires impl port, matrix))
      golden_ref
  in
  (* In-circuit detection flags: the detecting voter's pairwise
     disagreement ports, when the implemented design carries them.
     Their pad wires ride at the END of [watch_outputs] with an
     all-zero expectation; the engines treat the trailing [ndetect]
     watch entries as detection observables and keep simulating past a
     functional error until the flag verdict resolves (and vice
     versa).  Designs without detection ports get [ndetect = 0] and
     the historical behaviour, bit for bit. *)
  let detect_map =
    List.filter_map
      (fun port ->
        if List.mem_assoc port (Netlist.output_ports impl.Impl.mapped) then
          Some (port, dut_output_wires impl port)
        else None)
      Tmr_core.Voter.detect_ports
  in
  let ndetect =
    List.fold_left (fun n (_, w) -> n + Array.length w) 0 detect_map
  in
  (* Golden output matrix flattened per cycle, in [watch_outputs] order:
     the batch engine's cone-aware output check indexes it by flat watch
     position. *)
  let expected =
    let det_zeros = Array.make ndetect Logic.Zero in
    Array.init stimulus.cycles (fun c ->
        Array.concat
          (List.map (fun (_, _, m) -> m.(c)) output_map @ [ det_zeros ]))
  in
  (* Scan the image once; workers clone the derived state ({!Extract.copy})
     instead of re-extracting 1.4M bits each. *)
  let golden_ex =
    Tmr_obs.Trace.with_span "extract" (fun () ->
        Extract.create impl.Impl.dev impl.Impl.db
          (Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream))
  in
  {
    s_name = name;
    s_impl = impl;
    s_workers = workers;
    s_cone_skip = cone_skip;
    s_fattr = (if forensics then attrib else None);
    s_masking =
      (match attrib with
      | Some a when a.Forensics.vote_masking && not forensics -> Some a
      | _ -> None);
    s_cycles = stimulus.cycles;
    s_input_map = input_map;
    s_output_map = output_map;
    s_detect_map = detect_map;
    s_ndetect = ndetect;
    s_watch_outputs =
      Array.concat
        (List.map (fun (_, wires, _) -> wires) output_map
        @ List.map snd detect_map);
    s_expected = expected;
    s_golden_ex = golden_ex;
    s_states = Array.make workers None;
    s_build_ns = Tmr_obs.Clock.now_ns () - t0;
  }

let resolve_io s sim =
  {
    io_ins =
      List.map
        (fun (wire_sets, samples) ->
          (List.map (Fsim.pad_nodes sim) wire_sets, samples))
        s.s_input_map;
    io_outs =
      List.map
        (fun (_, wires, matrix) -> (Fsim.watch_nodes sim wires, matrix))
        s.s_output_map;
    io_dets =
      List.map (fun (_, wires) -> Fsim.watch_nodes sim wires) s.s_detect_map;
  }

let drive sim io c =
  List.iter
    (fun (node_sets, samples) ->
      let v = samples.(c) in
      List.iter
        (fun nodes ->
          Array.iteri
            (fun i n -> Fsim.set_node sim n (Logic.of_bool ((v asr i) land 1 = 1)))
            nodes)
        node_sets)
    io.io_ins

type port_sample = {
  ps_port : string;
  ps_flag : bool;
  ps_got : Logic.t array;
  ps_golden : Logic.t array;
}

(* Every watched port's values at cycle [c], in watch order: the
   functional outputs, then the detection flags (golden all zero). *)
let samples s sim io c =
  let got nodes = Array.map (Fsim.node_value sim) nodes in
  List.map2
    (fun (port, _, matrix) (nodes, _) ->
      { ps_port = port; ps_flag = false; ps_got = got nodes;
        ps_golden = matrix.(c) })
    s.s_output_map io.io_outs
  @ List.map2
      (fun (port, _) nodes ->
        { ps_port = port; ps_flag = true; ps_got = got nodes;
          ps_golden = Array.make (Array.length nodes) Logic.Zero })
      s.s_detect_map io.io_dets

let first_mismatch ports =
  List.find_map
    (fun p ->
      let n = Array.length p.ps_got in
      let rec scan i =
        if i >= n then None
        else if Logic.equal p.ps_got.(i) p.ps_golden.(i) then scan (i + 1)
        else Some (p, i)
      in
      if p.ps_flag then None else scan 0)
    ports

(* Run the DUT through the stimulus; return the first cycle where any
   functional output bit disagrees with the golden reference (or -1)
   paired with the first cycle an in-circuit detection flag left zero
   (or -1).  With detection flags present the run continues past a
   functional error until the flag verdict also resolves — detection
   latency is an observable, not a side effect of when we stopped.
   With [tape], every node's settled value of every cycle is recorded
   on the way: a fault-free DUT runs every cycle, so its tape is
   complete.  With [observe], every cycle runs and hands it its
   {!samples}. *)
let run_dut s ?tape ?observe sim io =
  Fsim.reset sim;
  let error_cycle = ref (-1) in
  let detect_cycle = ref (-1) in
  let det_pending () = io.io_dets <> [] && !detect_cycle < 0 in
  let every_cycle = Option.is_some observe in
  let cycle = ref 0 in
  while
    (!error_cycle < 0 || det_pending () || every_cycle) && !cycle < s.s_cycles
  do
    let c = !cycle in
    drive sim io c;
    Fsim.eval sim;
    (match tape with
    | Some tp -> Fsim.tape_record tp sim ~cycle:c
    | None -> ());
    if !error_cycle < 0 then begin
      let ok =
        List.for_all
          (fun (nodes, matrix) ->
            let expected = matrix.(c) in
            let n = Array.length nodes in
            let rec check i =
              i >= n
              || (Logic.equal (Fsim.node_value sim nodes.(i)) expected.(i)
                  && check (i + 1))
            in
            check 0)
          io.io_outs
      in
      if not ok then error_cycle := c
    end;
    if det_pending () then begin
      let fired =
        List.exists
          (Array.exists (fun n1 ->
               not (Logic.equal (Fsim.node_value sim n1) Logic.Zero)))
          io.io_dets
      in
      if fired then detect_cycle := c
    end;
    Option.iter (fun f -> f c (samples s sim io c)) observe;
    Fsim.clock sim;
    incr cycle
  done;
  (!error_cycle, !detect_cycle)

(* baseline: the un-faulted DUT must match the golden device *)
let check_baseline s ?tape sim io =
  match run_dut s ?tape sim io with
  | -1, -1 -> ()
  | -1, d ->
      failwith
        (Printf.sprintf
           "Campaign %s: fault-free DUT raises an in-circuit detection flag \
            at cycle %d"
           s.s_name d)
  | c, _ ->
      (* replay to pinpoint the first disagreeing output bit *)
      let detail = ref None in
      ignore
        (run_dut s sim io ~observe:(fun c' ports ->
             if c' = c then
               detail :=
                 Option.map
                   (fun (p, i) ->
                     Printf.sprintf "port %S bit %d: expected %c, got %c"
                       p.ps_port i
                       (Logic.to_char p.ps_golden.(i))
                       (Logic.to_char p.ps_got.(i)))
                   (first_mismatch ports)));
      failwith
        (Printf.sprintf
           "Campaign %s: fault-free DUT disagrees with golden device at cycle \
            %d (%s)"
           s.s_name c
           (Option.value !detail ~default:"no differing bit re-found"))

(* Worker-local simulator state: own extract, own workspace, plus the
   golden cone snapshot for the fast paths.  One fault-free pass records
   the baseline tape (amortised over every fault the worker runs in the
   session); worker 0's pass also checks the DUT against the golden
   device. *)
let build_state s wid =
  let ex = Extract.copy s.s_golden_ex in
  let ws = Fsim.make_workspace s.s_impl.Impl.dev in
  let base = Fsim.build ~ws ex ~watch_outputs:s.s_watch_outputs in
  let cone = Fsim.snapshot_cone ws in
  let io = resolve_io s base in
  let tape =
    if s.s_cone_skip then
      Some (Fsim.tape_create ~nnodes:(Fsim.num_nodes base) ~cycles:s.s_cycles)
    else None
  in
  if wid = 0 then check_baseline s ?tape base io
  else if tape <> None then ignore (run_dut s ?tape base io);
  (* voter bels of the golden cone as simulation nodes, for the
     masked-at-voter verdict *)
  let voters =
    match s.s_fattr with
    | None -> Bytes.empty
    | Some a ->
        let nb = Bytes.make (Fsim.num_nodes base) '\000' in
        Array.iteri
          (fun bel isv ->
            if isv then begin
              let n = Fsim.cone_node_of_bel cone bel in
              if n >= 0 && n < Bytes.length nb then Bytes.set nb n '\001'
            end)
          a.Forensics.bel_voter;
        nb
  in
  {
    w_ex = ex;
    w_ws = ws;
    w_base = base;
    w_cone = cone;
    w_watch = Array.concat (List.map fst io.io_outs @ io.io_dets);
    w_voters = voters;
    w_batch = Option.map (fun tape -> (Fsim_batch.create base cone, tape)) tape;
    w_scratch = Fsim.make_scratch ();
  }

(* Worker [wid]'s state, built on first use; the build counts as that
   run's setup time.  Each slot is written by the worker that owns it,
   and [Pool.run] joins its domains before returning. *)
let state s ~setup_ns wid =
  match s.s_states.(wid) with
  | Some st -> st
  | None ->
      let t0 = Tmr_obs.Clock.now_ns () in
      let st = build_state s wid in
      s.s_states.(wid) <- Some st;
      setup_ns.(wid) <- setup_ns.(wid) + (Tmr_obs.Clock.now_ns () - t0);
      st

(* Worker 0's state outside a run; its build counts as session build,
   which the next run charges as setup. *)
let state0 s =
  let setup_ns = [| 0 |] in
  let st = state s ~setup_ns 0 in
  s.s_build_ns <- s.s_build_ns + setup_ns.(0);
  st

let golden_cone s = (state0 s).w_cone

let replay ?observe s ex =
  let sim =
    Fsim.build ~ws:(state0 s).w_ws ex ~watch_outputs:s.s_watch_outputs
  in
  run_dut s ?observe sim (resolve_io s sim)

(* Pool work units: one fault that needs no simulation or a rebuild, or
   a batch for the bit-parallel engine: at most {!Fsim_batch.width}
   lanes, each an overlay derived by the planning pass ({!pack_lane})
   together with the fault indices it stands for — the first fault with
   that overlay, then the faults collapsed onto it. *)
type unit_work =
  | Single of int
  | Batch of {
      lanes : string array;
      lane_faults : int array array;
    }

(* Structural grouping key for batch packing: faults whose fanout cones
   are likely to coincide share a key, so their union cone (what the
   batch engine actually walks) stays close to each individual cone.
   Config bits of one LUT/FF bel share that bel; routing bits share the
   destination wire of the pip they control.  Grouping is an efficiency
   heuristic only — correctness never depends on it, since the batch
   engine evaluates the union cone exactly. *)
let group_key dev db bit =
  match Bitdb.resource db bit with
  | Bitdb.Lut_bit (b, _)
  | Bitdb.Ff_init b
  | Bitdb.Out_sel b
  | Bitdb.Ce_inv b
  | Bitdb.Sr_inv b
  | Bitdb.In_inv (b, _) -> (4 * b) + 0
  | Bitdb.Pip p -> (4 * dev.Device.pip_dst.(p)) + 1
  | Bitdb.Pad_enable p | Bitdb.Pad_cfg (p, _) -> (4 * p) + 2

(* A planned overlay in canonical form — rows in node order, appended
   nodes without their resolution wires (which {!Fsim_batch.run} never
   reads) — marshalled.  Marshalling plain data without sharing is
   injective, so the string is the collapsing key: two lanes with one
   packing describe the same effective circuit, on which the batch
   engine computes one verdict, one set of cycles and one provenance.
   It is also what a batch unit holds until it runs, in well under half
   the memory of the structured overlay. *)
let pack_lane (d : Fsim.delta) =
  let rows = Array.copy d.Fsim.dl_rows in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) rows;
  let extras = Array.map (fun (ins, _) -> (ins, [||])) d.Fsim.dl_extras in
  Marshal.to_string
    { d with Fsim.dl_rows = rows; dl_extras = extras }
    [ Marshal.No_sharing ]

let unpack_lane s : Fsim.delta = Marshal.from_string s 0

(* Batch schedule: one planning pass over worker 0's (un-flipped)
   extract classifies every fault — a fault the vote-masking proof
   covers is silent before it is planned — and derives the overlay of
   each patch- and reroute-planned fault, once.  A fault whose overlay
   equals an earlier fault's collapses onto it (it rides in that lane
   and copies its verdict); the first fault of each overlay groups by
   {!group_key} and packs, in first-index order, into batches of at most
   {!Fsim_batch.width} lanes.  Silent faults, plan-level rebuilds and
   reroutes with no overlay stay singles.  [paths] records each fault's
   plan path ([Path_silent] for a proved one too), which decides how a
   single runs and which stat a batched fault counts under.  The
   schedule decides how faults are grouped, never a verdict, so results
   are independent of it. *)
let plan s st faults paths =
  let total = Array.length faults in
  let dev = s.s_impl.Impl.dev and db = s.s_impl.Impl.db in
  let ex = st.w_ex and cone = st.w_cone in
  let bt, _ = Option.get st.w_batch in
  let succ_off, succ = Fsim_batch.csr bt in
  let bel_of = Fsim_batch.bel_of bt in
  (* the extract is flipped only while the overlay is taken *)
  let derive bit path =
    Extract.apply_bit_flip ex bit;
    Fun.protect
      ~finally:(fun () -> Extract.apply_bit_flip ex bit)
      (fun () ->
        Fsim.delta_of_plan ~scratch:st.w_scratch cone st.w_base ex bit path
          ~watch:s.s_watch_outputs ~succ_off ~succ ~bel_of)
  in
  let first_of_key : (string, int) Hashtbl.t = Hashtbl.create 1024 in
  let overlay = Array.make total "" in
  let members = Array.make total [] in
  let groups : (int, int list ref) Hashtbl.t = Hashtbl.create 1024 in
  let order = ref [] in
  let singles = ref [] in
  for i = 0 to total - 1 do
    let bit = faults.(i) in
    let proved =
      match s.s_masking with
      | Some a -> Forensics.masked_domain a bit >= 0
      | None -> false
    in
    let path = if proved then Fsim.Path_silent else Fsim.plan_fault cone ex bit in
    paths.(i) <- path;
    match path with
    | Fsim.Path_patch | Fsim.Path_reroute -> (
        match derive bit path with
        | None -> singles := i :: !singles
        | Some lane -> (
            let key = pack_lane lane in
            match Hashtbl.find_opt first_of_key key with
            | Some f -> members.(f) <- i :: members.(f)
            | None -> (
                Hashtbl.add first_of_key key i;
                overlay.(i) <- key;
                let k = group_key dev db bit in
                match Hashtbl.find_opt groups k with
                | Some g -> g := i :: !g
                | None ->
                    Hashtbl.add groups k (ref [ i ]);
                    order := k :: !order)))
    | Fsim.Path_silent | Fsim.Path_rebuild -> singles := i :: !singles
  done;
  (* pack neighbouring keys together: bel and wire indices are spatially
     local, so adjacent keys drive overlapping fanout cones and the batch
     engine walks a tighter union cone *)
  let firsts =
    Array.of_list
      (List.concat_map
         (fun k -> List.rev !(Hashtbl.find groups k))
         (List.sort compare !order))
  in
  let w = Fsim_batch.width and n = Array.length firsts in
  let batches =
    Array.init ((n + w - 1) / w) (fun b ->
        let idxs = Array.sub firsts (b * w) (min w (n - (b * w))) in
        Batch
          {
            lanes = Array.map (fun i -> overlay.(i)) idxs;
            lane_faults =
              Array.map (fun i -> Array.of_list (i :: List.rev members.(i))) idxs;
          })
  in
  Array.append batches
    (Array.of_list (List.rev_map (fun i -> Single i) !singles))

let run_with ?progress s ~faults =
  let name = s.s_name and impl = s.s_impl and workers = s.s_workers in
  let cone_skip = s.s_cone_skip and fattr = s.s_fattr in
  let ndetect = s.s_ndetect in
  let total = Array.length faults in
  (* each fault's plan path; a fault the planning pass never sees (every
     fault on the oracle) rebuilds *)
  let paths = Array.make total Fsim.Path_rebuild in
  let dummy =
    { bit = -1; outcome = Silent; effect = Classify.Other_effect;
      first_error_cycle = -1; detect_cycle = -1; forensics = None }
  in
  let results = Array.make total dummy in
  let stats_per_worker = Array.make workers no_stats in
  (* per-worker injection and setup time; each cell is written by its
     owner only, and Domain.join publishes it to the caller *)
  let busy_ns = Array.make workers 0 in
  let setup_ns = Array.make workers 0 in
  (* The session's own build counts as worker 0's setup of the run that
     first uses it, and the wall clock starts where that build did, so
     utilization stays within 1. *)
  setup_ns.(0) <- s.s_build_ns;
  s.s_build_ns <- 0;
  (* The planning pass runs on worker 0's state: it needs the golden
     extract and cone, exactly what worker 0 uses next.  The campaign's
     wall clock covers that state's build too, when this run builds it,
     like every other worker's.  Planning derives the overlays the
     batches run, so it counts as worker 0's injection time. *)
  let t_start = Tmr_obs.Clock.now_ns () - setup_ns.(0) in
  let units =
    if not cone_skip then Array.init total (fun i -> Single i)
    else
      Tmr_obs.Trace.with_span "batch_plan" (fun () ->
          let st = state s ~setup_ns 0 in
          let t0 = Tmr_obs.Clock.now_ns () in
          let units = plan s st faults paths in
          busy_ns.(0) <- busy_ns.(0) + (Tmr_obs.Clock.now_ns () - t0);
          units)
  in
  (* fault-level completion count for the progress line — the pool only
     counts units, whose sizes vary from 1 to {!Fsim_batch.width}
     faults *)
  let faults_done = Atomic.make 0 in
  (* running wrong-answer count for the live progress line; display-only,
     so a moment of slack against [completed] is fine *)
  let wrong_live = Atomic.make 0 in
  let record i r =
    results.(i) <- r;
    if r.outcome = Wrong_answer then ignore (Atomic.fetch_and_add wrong_live 1);
    ignore (Atomic.fetch_and_add faults_done 1)
  in
  let worker wid =
    let st = state s ~setup_ns wid in
    let t_setup = Tmr_obs.Clock.now_ns () in
    let ex = st.w_ex and ws = st.w_ws in
    let bump f = stats_per_worker.(wid) <- f stats_per_worker.(wid) in
    (* The forensic record: structural attribution on every plan path;
       divergence fields from the batch engine's provenance when the
       fault ran batched.  [masked_at_voter]: the fault corrupted cone
       state yet stayed silent, and some voter in its fanout cone never
       left the baseline — the corruption was out-voted (as opposed to
       logically masked before reaching any voter). *)
    let forensic_of bit error_cycle prov =
      match fattr with
      | None -> None
      | Some a ->
          let f = Forensics.structural a bit in
          Some
            (match prov with
            | None -> f
            | Some p ->
                {
                  f with
                  Forensics.masked_at_voter =
                    error_cycle < 0 && p.Fsim.pv_diverged > 0
                    && p.Fsim.pv_voter_held;
                  diverged = p.Fsim.pv_diverged;
                  first_diverged_node = p.Fsim.pv_first_node;
                  diverge_cycle = p.Fsim.pv_first_cycle;
                  depth = p.Fsim.pv_depth;
                  cone_nodes = p.Fsim.pv_cone;
                })
    in
    let finish ?prov ?(detect = -1) bit error_cycle =
      if error_cycle >= 0 then Tmr_obs.Metrics.observe m_first_error error_cycle;
      {
        bit;
        outcome = (if error_cycle >= 0 then Wrong_answer else Silent);
        effect = Classify.classify impl bit;
        first_error_cycle = error_cycle;
        detect_cycle = detect;
        forensics = forensic_of bit error_cycle prov;
      }
    in
    (* A single: a cone-silent or vote-masked fault classifies without
       simulating; anything else — a plan-level rebuild, a reroute with no
       overlay, every fault on the oracle — rebuilds the simulator from
       the flipped extract and replays the whole stimulus. *)
    let do_fault i =
      let bit = faults.(i) in
      let t0 = Tmr_obs.Clock.now_ns () in
      let silent = paths.(i) = Fsim.Path_silent in
      let r =
        if silent then begin
          bump (fun s -> { s with skipped = s.skipped + 1 });
          finish bit (-1)
        end
        else begin
          bump (fun s -> { s with rebuilt = s.rebuilt + 1 });
          Extract.apply_bit_flip ex bit;
          Fun.protect
            ~finally:(fun () -> Extract.apply_bit_flip ex bit)
            (fun () ->
              let sim = Fsim.build ~ws ex ~watch_outputs:s.s_watch_outputs in
              let err, det = run_dut s sim (resolve_io s sim) in
              finish ~detect:det bit err)
        end
      in
      let dt = Tmr_obs.Clock.now_ns () - t0 in
      busy_ns.(wid) <- busy_ns.(wid) + dt;
      Tmr_obs.Metrics.observe
        (if silent then m_fault_silent else m_fault_rebuild)
        dt;
      if Tmr_obs.Trace.enabled () then
        Tmr_obs.Trace.emit_complete
          ~args:
            [
              ("bit", string_of_int bit);
              ("path", if silent then "silent" else "rebuild");
            ]
          ~name:"fault" ~start_ns:t0 ~dur_ns:dt ();
      record i r
    in
    (* One batch: run every lane word-parallel and fan each lane's
       verdict out to the faults it stands for.  The kernel counters
       count executed lanes; plan-path stats and the per-fault trace
       spans count every fault, so they read as if each
       had run alone. *)
    let do_batch packed lane_faults =
      let bt, tape = Option.get st.w_batch in
      let t0 = Tmr_obs.Clock.now_ns () in
      let lanes = Array.map unpack_lane packed in
      let vs =
        Fsim_batch.run bt ~ndetect
          ?voters:(Option.map (fun _ -> st.w_voters) fattr)
          ~tape ~expected:s.s_expected ~watch:st.w_watch ~lanes ()
      in
      let dt = Tmr_obs.Clock.now_ns () - t0 in
      busy_ns.(wid) <- busy_ns.(wid) + dt;
      let nl = Array.length lanes in
      let w = Fsim_batch.work bt in
      Tmr_obs.Metrics.incr ~by:w.Fsim_batch.evals m_batch_evals;
      Tmr_obs.Metrics.incr ~by:w.Fsim_batch.splices m_batch_splices;
      Tmr_obs.Metrics.incr ~by:nl m_batch_lanes;
      Tmr_obs.Metrics.observe m_batch_occupancy nl;
      if Tmr_obs.Events.enabled () then
        Tmr_obs.Events.publish
          (Tmr_obs.Events.Batch_dispatched { design = name; lanes = nl });
      if Tmr_obs.Trace.enabled () then
        Tmr_obs.Trace.emit_complete
          ~args:[ ("lanes", string_of_int nl) ]
          ~name:"batch" ~start_ns:t0 ~dur_ns:dt ();
      let per_lane = dt / nl in
      let per_fault =
        dt / Array.fold_left (fun n f -> n + Array.length f) 0 lane_faults
      in
      (* each fault still gets its own trace span: the batch interval
         is sliced into adjacent child spans, one per fault, so
         per-fault spans nest inside "batch" and tooling that counts
         faults keeps working *)
      let k = ref 0 in
      Array.iteri
        (fun li idxs ->
          let v = vs.(li) in
          Tmr_obs.Metrics.observe m_fault_batch per_lane;
          Array.iter
            (fun i ->
              let path = paths.(i) in
              bump (fun s ->
                  let s =
                    match path with
                    | Fsim.Path_patch -> { s with patched = s.patched + 1 }
                    | _ -> { s with rerouted = s.rerouted + 1 }
                  in
                  { s with diffed = s.diffed + 1; batched = s.batched + 1 });
              if Tmr_obs.Trace.enabled () then
                Tmr_obs.Trace.emit_complete
                  ~args:
                    [
                      ("bit", string_of_int faults.(i));
                      ("path", Fsim.path_name path);
                    ]
                  ~name:"fault"
                  ~start_ns:(t0 + (!k * per_fault))
                  ~dur_ns:per_fault ();
              incr k;
              record i
                (finish ?prov:v.Fsim_batch.bv_provenance
                   ~detect:v.Fsim_batch.bv_detect_cycle faults.(i)
                   v.Fsim_batch.bv_error_cycle))
            idxs)
        lane_faults
    in
    setup_ns.(wid) <- setup_ns.(wid) + (Tmr_obs.Clock.now_ns () - t_setup);
    fun u ->
      match units.(u) with
      | Single i -> do_fault i
      | Batch { lanes; lane_faults } -> do_batch lanes lane_faults
  in
  (* Snapshot the event-bus state once: a sink installed mid-run would
     otherwise see a campaign with no start event. *)
  let emit_events = Tmr_obs.Events.enabled () in
  let pool_progress =
    if Option.is_none progress && not emit_events then None
    else
      Some
        (fun _completed _total ->
          let completed = Atomic.get faults_done in
          let wrong = Atomic.get wrong_live in
          if emit_events then
            Tmr_obs.Events.publish
              (Tmr_obs.Events.Campaign_progress
                 { design = name; completed; total; wrong });
          match progress with
          | Some f ->
              f { p_completed = completed; p_total = total; p_wrong = wrong }
          | None -> ())
  in
  if emit_events then
    Tmr_obs.Events.publish
      (Tmr_obs.Events.Campaign_started
         { design = name; faults = total; workers });
  Tmr_obs.Trace.with_span
    ~args:
      [
        ("design", name);
        ("workers", string_of_int workers);
        ("faults", string_of_int total);
      ]
    "campaign"
    (fun () ->
      Pool.run ?progress:pool_progress ~workers ~total:(Array.length units)
        worker);
  let wall_ns = Tmr_obs.Clock.now_ns () - t_start in
  let busy_total = Array.fold_left ( + ) 0 busy_ns in
  let setup_total = Array.fold_left ( + ) 0 setup_ns in
  Tmr_obs.Metrics.incr ~by:busy_total m_busy;
  Tmr_obs.Metrics.set m_util
    (if wall_ns > 0 then
       float_of_int (busy_total + setup_total)
       /. (float_of_int workers *. float_of_int wall_ns)
     else 0.0);
  let stats = Array.fold_left add_stats no_stats stats_per_worker in
  let wrong =
    Array.fold_left
      (fun acc r -> if r.outcome = Wrong_answer then acc + 1 else acc)
      0 results
  in
  (* Verdict accounting, aggregated post-hoc in the main thread from the
     results array, and only on designs that actually carry detection
     logic.  Detection latency is
     measured from the fault's first recorded internal divergence (the
     forensic provenance) when available, else from injection. *)
  if ndetect > 0 then begin
    let n_sc = ref 0 and n_dc = ref 0 and n_dw = ref 0 and n_sw = ref 0 in
    Array.iter
      (fun r ->
        (match verdict_of r with
        | Silent_correct -> incr n_sc
        | Detected_corrected -> incr n_dc
        | Detected_wrong -> incr n_dw
        | Silent_wrong -> incr n_sw);
        if r.detect_cycle >= 0 then begin
          let from =
            match r.forensics with
            | Some f when f.Forensics.diverge_cycle >= 0 ->
                f.Forensics.diverge_cycle
            | _ -> 0
          in
          Tmr_obs.Metrics.observe m_det_latency (r.detect_cycle - from)
        end)
      results;
    Tmr_obs.Metrics.incr ~by:!n_sc m_det_silent_correct;
    Tmr_obs.Metrics.incr ~by:!n_dc m_det_corrected;
    Tmr_obs.Metrics.incr ~by:!n_dw m_det_wrong;
    Tmr_obs.Metrics.incr ~by:!n_sw m_det_silent_wrong;
    if emit_events then
      Tmr_obs.Events.publish
        (Tmr_obs.Events.Campaign_detection
           {
             design = name;
             silent_correct = !n_sc;
             detected_corrected = !n_dc;
             detected_wrong = !n_dw;
             silent_wrong = !n_sw;
           })
  end;
  if emit_events then begin
    Tmr_obs.Events.publish
      (Tmr_obs.Events.Plan_paths
         {
           design = name;
           silent = stats.skipped;
           patched = stats.patched;
           rerouted = stats.rerouted;
           rebuilt = stats.rebuilt;
           diffed = stats.diffed;
           batched = stats.batched;
         });
    Tmr_obs.Events.publish
      (Tmr_obs.Events.Campaign_stopped
         { design = name; requested = total; injected = total; wrong; wall_ns })
  end;
  (* stream the forensic records post-hoc in fault-index order: workers
     never write the sink, so the file is deterministic for a fixed
     fault list regardless of worker count or scheduling *)
  (match fattr with
  | Some a when Forensics.enabled () ->
      Array.iter
        (fun r ->
          match r.forensics with
          | Some f ->
              Forensics.emit ~design:name ~bit:r.bit
                ~effect:(Classify.name r.effect)
                ~wrong:(r.outcome = Wrong_answer)
                ~first_error_cycle:r.first_error_cycle a f
          | None -> ())
        results
  | _ -> ());
  { design = name; requested = total; injected = total; wrong; results;
    workers; stats; wall_ns; busy_ns; setup_ns }


let run_session s ~faults = run_with s ~faults

let run ?progress ?workers ?cone_skip ?forensics ~name ~impl ~golden ~stimulus
    ~faults () =
  run_with ?progress
    (session ?workers ?cone_skip ?forensics ~name ~impl ~golden ~stimulus ())
    ~faults

(* [n] faults as a share of the injected ones, in percent *)
let percent t n =
  if t.injected = 0 then 0.0
  else 100.0 *. float_of_int n /. float_of_int t.injected

let wrong_percent t = percent t t.wrong

let ci ?confidence t =
  Tmr_obs.Stats.wilson ?confidence ~n:t.injected ~k:t.wrong ()

(* ------------------------------------------------------------------ *)
(* Detection taxonomy aggregation. *)

type detection_counts = {
  dc_silent_correct : int;
  dc_detected_corrected : int;
  dc_detected_wrong : int;
  dc_silent_wrong : int;
}

let effects = Array.of_list Classify.all

(* One pass over the results: the four verdict class sizes, and the
   wrong answers per effect class in {!Classify.all} order. *)
let tally t =
  let sc = ref 0 and dc = ref 0 and dw = ref 0 and sw = ref 0 in
  let wrong_by = Array.make (Array.length effects) 0 in
  Array.iter
    (fun r ->
      (match verdict_of r with
      | Silent_correct -> incr sc
      | Detected_corrected -> incr dc
      | Detected_wrong -> incr dw
      | Silent_wrong -> incr sw);
      if r.outcome = Wrong_answer then begin
        let rec find i = if effects.(i) = r.effect then i else find (i + 1) in
        let i = find 0 in
        wrong_by.(i) <- wrong_by.(i) + 1
      end)
    t.results;
  ( {
      dc_silent_correct = !sc;
      dc_detected_corrected = !dc;
      dc_detected_wrong = !dw;
      dc_silent_wrong = !sw;
    },
    wrong_by )

let detection_counts t = fst (tally t)
let sdc_percent t = percent t (detection_counts t).dc_silent_wrong

let detected_percent t =
  let d = detection_counts t in
  percent t (d.dc_detected_corrected + d.dc_detected_wrong)

(* ------------------------------------------------------------------ *)
(* Forensic aggregation: the per-design numbers that explain Table 2's
   ordering — how many faults straddle redundancy domains, and how often
   the vote (rather than plain logic masking) absorbed a real upset. *)

type forensic_summary = {
  fs_faults : int;  (* faults carrying a forensic record *)
  fs_cross : int;  (* cross-domain faults *)
  fs_cross_wrong : int;  (* cross-domain among wrong answers *)
  fs_multi_part : int;  (* faults touching >= 2 voter partitions *)
  fs_voter_touch : int;  (* faults touching voter logic or voter nets *)
  fs_diverged : int;  (* faults with observed internal divergence *)
  fs_silent_diverged : int;  (* diverged yet silent *)
  fs_voter_masked : int;  (* silent-diverged absorbed at a voter *)
}

let forensic_summary t =
  let s =
    Array.fold_left
      (fun acc r ->
        match r.forensics with
        | None -> acc
        | Some f ->
            let wrong = r.outcome = Wrong_answer in
            {
              fs_faults = acc.fs_faults + 1;
              fs_cross = (acc.fs_cross + if f.Forensics.cross_domain then 1 else 0);
              fs_cross_wrong =
                (acc.fs_cross_wrong
                + if wrong && f.Forensics.cross_domain then 1 else 0);
              fs_multi_part =
                (acc.fs_multi_part
                + if Array.length f.Forensics.partitions >= 2 then 1 else 0);
              fs_voter_touch =
                (acc.fs_voter_touch + if f.Forensics.voter_touch then 1 else 0);
              fs_diverged =
                (acc.fs_diverged + if f.Forensics.diverged > 0 then 1 else 0);
              fs_silent_diverged =
                (acc.fs_silent_diverged
                + if (not wrong) && f.Forensics.diverged > 0 then 1 else 0);
              fs_voter_masked =
                (acc.fs_voter_masked
                + if f.Forensics.masked_at_voter then 1 else 0);
            })
      {
        fs_faults = 0;
        fs_cross = 0;
        fs_cross_wrong = 0;
        fs_multi_part = 0;
        fs_voter_touch = 0;
        fs_diverged = 0;
        fs_silent_diverged = 0;
        fs_voter_masked = 0;
      }
      t.results
  in
  if s.fs_faults = 0 then None else Some s

(* ------------------------------------------------------------------ *)
(* Machine-readable engine summary (tmrtool inject --json). *)

let summary_json t =
  let b = Buffer.create 512 in
  let i = ci t in
  Buffer.add_string b
    (Printf.sprintf
       "{\"design\":\"%s\",\"requested\":%d,\"injected\":%d,\"wrong\":%d,\"wrong_percent\":%.4f,\"ci\":{\"confidence\":0.95,\"lo\":%.6f,\"hi\":%.6f},\"workers\":%d,\"wall_ns\":%d,\"utilization\":%.4f,\"inject_utilization\":%.4f"
       (Tmr_obs.Jsonl.escape t.design)
       t.requested t.injected t.wrong (wrong_percent t) i.Tmr_obs.Stats.lo
       i.Tmr_obs.Stats.hi t.workers t.wall_ns (utilization t)
       (inject_utilization t));
  Buffer.add_string b
    (Printf.sprintf
       ",\"plan_paths\":{\"silent\":%d,\"patched\":%d,\"rerouted\":%d,\"rebuilt\":%d,\"diffed\":%d,\"batched\":%d}"
       t.stats.skipped t.stats.patched t.stats.rerouted t.stats.rebuilt
       t.stats.diffed t.stats.batched);
  let d, wrong_by = tally t in
  (* wrong answers per structural effect class, Table 4 row order *)
  Buffer.add_string b ",\"wrong_by_effect\":{";
  Array.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\"%s\":%d"
           (Tmr_obs.Jsonl.escape (Classify.name e))
           wrong_by.(i)))
    effects;
  Buffer.add_char b '}';
  (* the four-way detected-vs-silent verdict split; the four counts
     always sum to [injected] *)
  Buffer.add_string b
    (Printf.sprintf
       ",\"detection\":{\"silent_correct\":%d,\"detected_corrected\":%d,\"detected_wrong\":%d,\"silent_wrong\":%d,\"sdc_percent\":%.4f,\"detected_percent\":%.4f}"
       d.dc_silent_correct d.dc_detected_corrected d.dc_detected_wrong
       d.dc_silent_wrong
       (percent t d.dc_silent_wrong)
       (percent t (d.dc_detected_corrected + d.dc_detected_wrong)));
  (match forensic_summary t with
  | None -> Buffer.add_string b ",\"forensics\":null"
  | Some s ->
      Buffer.add_string b
        (Printf.sprintf
           ",\"forensics\":{\"faults\":%d,\"cross_domain\":%d,\"cross_domain_wrong\":%d,\"multi_partition\":%d,\"voter_touch\":%d,\"diverged\":%d,\"silent_diverged\":%d,\"voter_masked\":%d}"
           s.fs_faults s.fs_cross s.fs_cross_wrong s.fs_multi_part
           s.fs_voter_touch s.fs_diverged s.fs_silent_diverged
           s.fs_voter_masked));
  Buffer.add_char b '}';
  Buffer.contents b
