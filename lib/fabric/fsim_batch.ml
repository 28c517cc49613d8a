(* Bit-parallel batched differential fault simulation.

   Packs up to [width] faults into the lanes of 32-bit "possibility
   plane" words ({!Fsim_backend.Lanes}) and runs ONE dense evaluation of
   the union of the lanes' fanout cones against the shared baseline
   tape.  Once per batch the union cone is compiled into a program over
   local indices (members in evaluation order, then the frontier of
   non-members they read): flat pin, kind, table and resolve-row
   arrays.  Every cycle loads the frontier's tape values, sweeps the
   acyclic members once in order and settles each union SCC to its
   fixpoint; every member holds its full value in every lane, and a
   lane's divergence is its planes against the tape.  Each lane's
   effective circuit is the base
   graph plus its fault overlay ({!Fsim.delta}), held in per-node slots
   of [t] for the run: truth-table / inversion / init / clock-enable
   cell patches apply word-parallel through per-lane masks, and a LUT
   row rewired by a lane is gathered into the pin words (that lane's
   pin bits read its own inputs) before the one word-parallel LUT
   evaluation.  Rewired resolve rows and appended resolve nodes are
   spliced per lane (scalar evaluation of just that lane's bit).  A
   kind override (out_sel) makes a node registered in some lanes and
   combinational in others: it is evaluated both ways and blended by
   lane, and clocked in its register lanes.  A remapped watch position
   is read from the lane's own node.

   Verdicts are exact fault by fault: the per-cycle plane values of a
   lane equal the values a simulator of that fault's circuit computes
   (the union cone is a closed superset of each lane's own cone, and
   nodes a fault does not reach reproduce the tape exactly), the
   watched-output check runs at the same point of the cycle as a full
   replay, and a lane leaves early only when it provably converged back
   to the baseline (its cone equals the tape at a boundary and a replay
   of its seeds reproduces the tape for every remaining cycle).

   The union graph may be cyclic: lane A's rewired row can read a node
   downstream of lane B's cone, a bridge can close a combinational loop
   in its own lane's circuit, and the base graph itself may hold cyclic
   SCCs.  The cyclic part is grouped into the SCCs of the union graph
   and each group settles by local sweeps.  A lane whose circuit is
   acyclic inside a group reaches its unique fixpoint from any start.
   A lane's own cycles are Kleene-iterated, as [Fsim.eval] iterates a
   cyclic SCC: a set of cut nodes meets every such cycle; every cycle
   its cut lanes restart from X at the cuts, the sweeps settle the rest
   with the cut bits held, and re-evaluating the cuts and repeating
   until they stop moving is Kleene iteration on the cut values.  Node
   evaluation is monotone in the information order (X below Zero and
   One): Kleene LUT completion, [Logic.resolve], and the glitch rule,
   whose [last] values stay fixed within a cycle.  So
   iteration from X reaches, in any order, the least fixpoint — the
   value [Fsim.eval] on a rebuilt simulator computes.  A lane with a
   seed on a cycle never replay-converges.

   With forensics requested, each lane also gets its divergence
   provenance ({!F.provenance}): a per-cycle word-parallel fold of the
   divergence words into [ever], and once per lane after the run a BFS
   over that lane's own effective graph for the cone, the depths and
   the voter check.  Exact for the same reason the verdicts are: a
   lane's divergence bits are the nodes where its circuit left the
   baseline, cycle by cycle. *)

module Logic = Tmr_logic.Logic
module Lanes = Fsim_backend.Lanes
module Scalar = Fsim_backend.Scalar
module F = Fsim

type verdict = {
  bv_error_cycle : int;
  bv_converge_cycle : int;
  bv_detect_cycle : int;
  bv_provenance : F.provenance option;
}

type t = {
  base : F.t;
  view : F.view;
  stride : int;  (* plane words per node, width / 32 *)
  csr_off : int array;
  csr_succ : int array;
  bel_of : int array;
  cyc_node : Bytes.t;  (* per base node: in a cyclic SCC *)
  base_pos : int array;  (* per base node: base evaluation-order index *)
  (* capacity-managed per-node state (base nodes + appended extras) *)
  mutable cap : int;
  mutable mark : Bytes.t;  (* '\001' = union-cone member *)
  mutable fmark : Bytes.t;  (* '\001' = frontier *)
  mutable rstamp : int array;  (* per node: replay epoch stamp *)
  mutable order : int array;  (* members in evaluation order *)
  mutable pos : int array;  (* member or frontier node -> local index *)
  mutable indeg : int array;
  mutable queue : int array;
  mutable members : int array;
  mutable frontier : int array;
  mutable regs : int array;  (* clocked members, local indices *)
  mutable repoch : int;  (* monotone across replays *)
  mutable rv : Logic.t array;  (* replay overlay: value *)
  mutable rvl : Logic.t array;  (* replay overlay: last *)
  mutable rq : Logic.t array;  (* replay overlay: register state *)
  (* per-node overlay slots (base nodes + appended extras), empty
     between runs: each run clears the slots of the nodes it touched on
     the way out *)
  mutable ov_t1 : int array array;
      (* per-lane truth tables: leaf words, sub * 16 + minterm; [||] =
         the base table in every lane *)
  mutable ov_im : int array array;  (* inversion masks, sub * 4 + pin *)
  mutable ov_ce : int array array;  (* clock-enable-frozen lanes, per sub *)
  mutable ov_qh : int array array;  (* flip-flop init planes, per sub *)
  mutable ov_ql : int array array;
  mutable ov_reg : int array array;
      (* registered lanes, per sub; [||] = the base kind in every lane *)
  mutable ov_rows : (int * int array) list array;  (* (lane, rewired row) *)
  mutable radj : int list array;  (* overlay readers *)
  (* the compiled program of one run, over local indices: member [i] of
     the evaluation order is local [i], the frontier follows, and the
     last local is a constant Zero that unused LUT pins read.  Plane
     arrays hold [ns] words per local, full-valued on every lane. *)
  mutable gid : int array;  (* local -> node *)
  mutable kd : int array;  (* per member: evaluation kind, [k_*] *)
  mutable pin : int array;
      (* per member: its 4 pins' plane offsets, local index * ns *)
  mutable tbl : int array;
      (* per member: the base truth table with the base pin inversion
         folded in *)
  mutable lov : Bytes.t;  (* per member: '\001' = LUT overlay lanes *)
  mutable lrows : (int * int array) list array;
      (* per resolve member: (lane, rewired row over local indices) *)
  mutable gof : int array;  (* per LUT member: rewired-pin offsets *)
  mutable gat : int array;
      (* rewired LUT pins, four words each: sub, pin, the local node the
         lanes read there ([-1] = unused), the lanes *)
  mutable roff : int array;  (* per member: resolve row offsets *)
  mutable rins : int array;  (* resolve rows over local indices *)
  mutable bk : int array;
      (* per member of a union SCC: the lowest reader at or before it
         in its group (a back edge), [max_int] = none *)
  mutable bkm : int array;
      (* per member and sub: the lanes of its back edges (a rewired row
         or an appended node reads it in one lane, a base row in all) *)
  mutable fw : int array;
      (* per member of a union SCC: the highest reader after it in its
         group, [-1] = none *)
  mutable vh : int array;  (* value planes, local * ns + sub *)
  mutable vl : int array;
  mutable uh : int array;  (* previous-cycle planes (glitch rule) *)
  mutable ul : int array;
  mutable qh : int array;  (* register state planes, per member *)
  mutable ql : int array;
  mutable fz : int array;
      (* per member and sub: lanes for which it is a Kleene cut *)
  (* kernel work of the last run *)
  mutable n_evals : int;
  mutable n_splices : int;
  (* evaluation scratch *)
  sc : int array;  (* 16: LUT scratch *)
  phs : int array;  (* 4: per-pin H planes, inversion applied *)
  pls : int array;
  ims : int array;  (* 4: per-pin inversion masks *)
  newh : int array;  (* stride: the value being built *)
  newl : int array;
  mutable resh : int array;  (* growable resolve-driver scratch *)
  mutable resl : int array;
  mutable reslh : int array;
  mutable resll : int array;
  (* forensic provenance, sized by the first forensic run after a
     capacity change: [ever] (all-zero between runs: each run clears
     its members' entries on the way out) is the OR of every cycle's
     divergence words; the per-lane BFS stamps [pv_seen] with a
     monotone epoch *)
  mutable ever : int array;
  mutable pv_seen : int array;
  mutable pv_depth : int array;
  mutable pv_epoch : int;
  (* the tape as plane words, one per node and cycle ([tw_code]),
     decoded once per worker tape *)
  mutable tw : int array;
  mutable tw_tape : F.tape option;
  mutable last_cone : int array;  (* test hook *)
  mutable last_nm : int;
}

(* evaluation kinds of a member *)
let k_lut = 0 (* LUT, base table and pins in every lane *)
let k_lut_ov = 1 (* LUT with overlay lanes: tables, inversions, rows *)
let k_reg = 2 (* register in every lane: the state planes *)
let k_mixed = 3 (* kind overridden in some lanes: LUT and state blended *)
let k_res = 4 (* resolve node *)
let k_extra = 5 (* appended resolve node of one lane *)
let k_tape = 6 (* no function of its inputs: reads the tape *)

let ensure t n =
  if t.cap < n then begin
    let cap = max n (max 1024 (2 * t.cap)) in
    t.cap <- cap;
    let ps = (cap + 1) * t.stride in
    t.mark <- Bytes.make cap '\000';
    t.fmark <- Bytes.make cap '\000';
    (* fresh stamps start at 0 < any live epoch: never stale *)
    t.rstamp <- Array.make cap 0;
    t.order <- Array.make cap 0;
    t.pos <- Array.make cap 0;
    t.indeg <- Array.make cap 0;
    t.queue <- Array.make cap 0;
    t.members <- Array.make cap 0;
    t.frontier <- Array.make cap 0;
    t.regs <- Array.make cap 0;
    t.rv <- Array.make cap Logic.X;
    t.rvl <- Array.make cap Logic.X;
    t.rq <- Array.make cap Logic.X;
    t.ov_t1 <- Array.make cap [||];
    t.ov_im <- Array.make cap [||];
    t.ov_ce <- Array.make cap [||];
    t.ov_qh <- Array.make cap [||];
    t.ov_ql <- Array.make cap [||];
    t.ov_reg <- Array.make cap [||];
    t.ov_rows <- Array.make cap [];
    t.radj <- Array.make cap [];
    t.gid <- Array.make (cap + 1) 0;
    t.kd <- Array.make cap 0;
    t.pin <- Array.make (4 * cap) 0;
    t.tbl <- Array.make cap 0;
    t.lov <- Bytes.make cap '\000';
    t.lrows <- Array.make cap [];
    t.gof <- Array.make (cap + 1) 0;
    t.roff <- Array.make (cap + 1) 0;
    t.bk <- Array.make cap max_int;
    t.fw <- Array.make cap (-1);
    t.bkm <- Array.make ps 0;
    t.vh <- Array.make ps 0;
    t.vl <- Array.make ps 0;
    t.uh <- Array.make ps 0;
    t.ul <- Array.make ps 0;
    t.qh <- Array.make ps 0;
    t.ql <- Array.make ps 0;
    t.fz <- Array.make ps 0
  end

let res_ensure t n =
  if Array.length t.resh < n then begin
    let c = max n ((2 * Array.length t.resh) + 8) in
    t.resh <- Array.make c 0;
    t.resl <- Array.make c 0;
    t.reslh <- Array.make c 0;
    t.resll <- Array.make c 0
  end

let width = 64

let create base cone =
  let v = F.view base in
  let csr_off, csr_succ = F.reader_csr base in
  let bel_of = F.bel_map cone base in
  let bn = v.F.v_nnodes in
  let cyc_node = Bytes.make (max 1 bn) '\000' in
  for si = 0 to v.F.v_nsccs - 1 do
    if Bytes.get v.F.v_scc_cyclic si <> '\000' then
      for i = v.F.v_scc_off.(si) to v.F.v_scc_off.(si + 1) - 1 do
        Bytes.set cyc_node v.F.v_scc_nodes.(i) '\001'
      done
  done;
  let base_pos = Array.make (max 1 bn) 0 in
  Array.iteri (fun i u -> base_pos.(u) <- i) v.F.v_scc_nodes;
  let stride = width / 32 in
  let t =
    {
      base;
      view = v;
      stride;
      csr_off;
      csr_succ;
      bel_of;
      cyc_node;
      base_pos;
      cap = 0;
      mark = Bytes.empty;
      fmark = Bytes.empty;
      rstamp = [||];
      order = [||];
      pos = [||];
      indeg = [||];
      queue = [||];
      members = [||];
      frontier = [||];
      regs = [||];
      repoch = 0;
      rv = [||];
      rvl = [||];
      rq = [||];
      ov_t1 = [||];
      ov_im = [||];
      ov_ce = [||];
      ov_qh = [||];
      ov_ql = [||];
      ov_reg = [||];
      ov_rows = [||];
      radj = [||];
      gid = [||];
      kd = [||];
      pin = [||];
      tbl = [||];
      lov = Bytes.empty;
      lrows = [||];
      gof = [||];
      gat = [||];
      roff = [||];
      rins = [||];
      bk = [||];
      fw = [||];
      bkm = [||];
      vh = [||];
      vl = [||];
      uh = [||];
      ul = [||];
      qh = [||];
      ql = [||];
      fz = [||];
      n_evals = 0;
      n_splices = 0;
      sc = Array.make 16 0;
      phs = Array.make 4 0;
      pls = Array.make 4 0;
      ims = Array.make 4 0;
      newh = Array.make stride 0;
      newl = Array.make stride 0;
      resh = [||];
      resl = [||];
      reslh = [||];
      resll = [||];
      ever = [||];
      pv_seen = [||];
      pv_depth = [||];
      pv_epoch = 0;
      tw = [||];
      tw_tape = None;
      last_cone = [||];
      last_nm = 0;
    }
  in
  ensure t (bn + 64);
  t

let csr t = (t.csr_off, t.csr_succ)
let bel_of t = t.bel_of
let last_cone t = Array.sub t.last_cone 0 t.last_nm

type work = { evals : int; splices : int }

let work t = { evals = t.n_evals; splices = t.n_splices }

(* Whether node [u] replaces the current first-divergence pick [f]
   ([-1] = none yet): smaller BFS depth from the seed set, then smaller
   node id. *)
let nearer_first depth u f =
  f < 0 || depth.(u) < depth.(f) || (depth.(u) = depth.(f) && u < f)

(* The row [rows] rewire node [u] to, else [base]. *)
let rec row_or (u : int) base = function
  | [] -> base
  | (n, r) :: tl -> if n = u then r else row_or u base tl

(* Index of the single set bit of [m] (an isolated power of two below
   2^32). *)
let bit_index m =
  let i = if m land 0xffff = 0 then 16 else 0 in
  let i = if (m lsr i) land 0xff = 0 then i + 8 else i in
  let i = if (m lsr i) land 0xf = 0 then i + 4 else i in
  let i = if (m lsr i) land 0x3 = 0 then i + 2 else i in
  if (m lsr i) land 1 = 0 then i + 1 else i

(* A tape value as a plane-word code: bit 0 = may be One (the H
   plane), bit 1 = may be Zero (the L plane). *)
let tw_code = function Logic.One -> 1 | Logic.Zero -> 2 | Logic.X -> 3

let[@inline] code_h c = -(c land 1) land Lanes.full
let[@inline] code_l c = -((c lsr 1) land 1) land Lanes.full

let run t ?(ndetect = 0) ?voters ~tape ~expected ~watch ~lanes () =
  let v = t.view in
  let bn = v.F.v_nnodes in
  let nlanes = Array.length lanes in
  if nlanes = 0 || nlanes > width then
    invalid_arg "Fsim_batch.run: lane count out of range";
  if ndetect < 0 || ndetect > Array.length watch then
    invalid_arg "Fsim_batch.run: ndetect out of range";
  let nfunc = Array.length watch - ndetect in
  if F.tape_nnodes tape <> bn then
    invalid_arg "Fsim_batch.run: tape recorded for another simulator";
  let cycles = F.tape_cycles tape in
  if Array.length expected <> cycles then
    invalid_arg "Fsim_batch.run: expected matrix / tape cycle mismatch";
  let ns = (nlanes + 31) / 32 in
  let stride = t.stride in
  let fullw = Lanes.full in
  let seed_rules = Array.map fst lanes and lanes = Array.map snd lanes in
  (* ---- lane address space: extras of lane i live at
     [lane_extbase.(i) ..], after every base node ---- *)
  let lane_extbase = Array.make nlanes 0 in
  let tot = ref 0 in
  Array.iteri
    (fun li d ->
      lane_extbase.(li) <- bn + !tot;
      tot := !tot + Array.length d.F.dl_extras)
    lanes;
  let tot_extras = !tot in
  let nn = bn + tot_extras in
  ensure t nn;
  t.n_evals <- 0;
  t.n_splices <- 0;
  if voters <> None && Array.length t.pv_seen < t.cap then begin
    t.ever <- Array.make (t.cap * stride) 0;
    t.pv_seen <- Array.make t.cap 0;
    t.pv_depth <- Array.make t.cap 0
  end;
  (* every check before any slot is written, so a rejected run leaves
     the slots empty *)
  Array.iteri
    (fun li d ->
      (match d.F.dl_cell with
      | Some (node, _) when node < 0 || node >= bn ->
          invalid_arg "Fsim_batch.run: cell patch outside the base graph"
      | Some (node, F.Cp_reg _)
        when v.F.v_kind.(node) <> F.kind_bel_comb
             && v.F.v_kind.(node) <> F.kind_bel_reg ->
          invalid_arg "Fsim_batch.run: kind override on a non-bel node"
      | _ -> ());
      Array.iter
        (fun (wi, node) ->
          if
            wi < 0
            || wi >= Array.length watch
            || node < 0
            || node >= bn + Array.length d.F.dl_extras
          then invalid_arg "Fsim_batch.run: watch remap out of range")
        d.F.dl_watch;
      Array.iter
        (fun (node, _) ->
          if node < 0 || node >= bn then
            invalid_arg "Fsim_batch.run: rewired row outside the base graph")
        d.F.dl_rows;
      match seed_rules.(li) with
      | F.Seed_node s ->
          if s < 0 || s >= bn then
            invalid_arg "Fsim_batch.run: seed node outside the base graph";
          if d.F.dl_rows <> [||] || d.F.dl_extras <> [||] then
            invalid_arg "Fsim_batch.run: Seed_node lane with rewiring"
      | F.Seed_derived -> ())
    lanes;
  (match t.tw_tape with
  | Some tp when tp == tape -> ()
  | _ ->
      t.tw <- Array.make (max 1 (bn * cycles)) 0;
      for c = 0 to cycles - 1 do
        for u = 0 to bn - 1 do
          t.tw.((c * bn) + u) <- tw_code (F.tape_get_u tape c u)
        done
      done;
      t.tw_tape <- Some tape);
  let tw = t.tw in
  let ext_row = Array.make (max 1 tot_extras) [||] in
  let ext_lane = Array.make (max 1 tot_extras) 0 in
  (* ---- per-lane overlays, into the per-node slots ---- *)
  let touched = ref [] in
  let touch u = touched := u :: !touched in
  let radj_add p r =
    t.radj.(p) <- r :: t.radj.(p);
    touch p
  in
  let lane_cell = Array.make nlanes None in
  let lane_rows : (int * int array) list array = Array.make nlanes [] in
  (* per lane: (watch position, node) the lane reads there instead of
     the base watch node; per position and sub: the lanes that do *)
  let lane_watch : (int * int) list array = Array.make nlanes [] in
  let wmask = Array.make (max 1 (Array.length watch * ns)) 0 in
  let slot_of slots node init =
    if Array.length slots.(node) = 0 then begin
      slots.(node) <- init ();
      touch node
    end;
    slots.(node)
  in
  let bcast_bit x k = if (x lsr k) land 1 = 1 then fullw else 0 in
  let t1_of node =
    let table = v.F.v_table.(node) in
    slot_of t.ov_t1 node (fun () ->
        Array.init (16 * ns) (fun i -> bcast_bit table (i land 15)))
  in
  let im_of node =
    let inv = v.F.v_inv.(node) in
    slot_of t.ov_im node (fun () ->
        Array.init (4 * ns) (fun i -> bcast_bit inv (i land 3)))
  in
  let ce_of node =
    slot_of t.ov_ce node (fun () ->
        Array.make ns (if v.F.v_ce_frozen.(node) then fullw else 0))
  in
  let reg_of node =
    slot_of t.ov_reg node (fun () ->
        Array.make ns (if v.F.v_kind.(node) = F.kind_bel_reg then fullw else 0))
  in
  let qi_of node =
    let q = v.F.v_q_init.(node) in
    ( slot_of t.ov_qh node (fun () -> Array.make ns (Lanes.broadcast_h q)),
      slot_of t.ov_ql node (fun () -> Array.make ns (Lanes.broadcast_l q)) )
  in
  let set_lane a i m on =
    a.(i) <- (if on then a.(i) lor m else a.(i) land lnot m)
  in
  Array.iteri
    (fun li d ->
      let sub = li lsr 5 and bit = li land 31 in
      let m = 1 lsl bit in
      (match d.F.dl_cell with
      | None -> ()
      | Some (node, p) -> (
          lane_cell.(li) <- Some (node, p);
          match p with
          | F.Cp_table tbl ->
              let a = t1_of node in
              for mt = 0 to 15 do
                set_lane a ((sub * 16) + mt) m ((tbl lsr mt) land 1 = 1)
              done
          | F.Cp_inv iv ->
              let a = im_of node in
              for j = 0 to 3 do
                set_lane a ((sub * 4) + j) m ((iv lsr j) land 1 = 1)
              done
          | F.Cp_qinit q ->
              let ah, al = qi_of node in
              set_lane ah sub m (Lanes.broadcast_h q <> 0);
              set_lane al sub m (Lanes.broadcast_l q <> 0)
          | F.Cp_ce b -> set_lane (ce_of node) sub m b
          | F.Cp_reg r -> set_lane (reg_of node) sub m r));
      let remap p =
        if p < 0 then -1
        else if p < bn then p
        else lane_extbase.(li) + (p - bn)
      in
      Array.iter
        (fun (node, row) ->
          let rrow = Array.map remap row in
          t.ov_rows.(node) <- (li, rrow) :: t.ov_rows.(node);
          touch node;
          lane_rows.(li) <- (node, rrow) :: lane_rows.(li);
          Array.iter (fun p -> if p >= 0 then radj_add p node) rrow)
        d.F.dl_rows;
      Array.iteri
        (fun i (ins, _res_wires) ->
          let uid = lane_extbase.(li) + i in
          let rins = Array.map remap ins in
          ext_row.(uid - bn) <- rins;
          ext_lane.(uid - bn) <- li;
          Array.iter (fun p -> if p >= 0 then radj_add p uid) rins)
        d.F.dl_extras;
      Array.iter
        (fun (wi, node) ->
          lane_watch.(li) <- (wi, remap node) :: lane_watch.(li);
          wmask.((wi * ns) + sub) <- wmask.((wi * ns) + sub) lor m)
        d.F.dl_watch)
    lanes;
  (* each lane's seed set: the node itself for [Seed_node]; for
     [Seed_derived], what really differs from the base — the cell or
     kind, rows that changed (a re-resolved row can equal the base one)
     and every appended node — exactly the nodes whose function differs
     from the base.  They root the union cone and drive the convergence
     replay, the replay veto and the provenance BFS. *)
  let lane_sseeds =
    Array.mapi
      (fun li rule ->
        match rule with
        | F.Seed_node s -> [ s ]
        | F.Seed_derived ->
            let d = lanes.(li) in
            let acc = ref [] in
            (match d.F.dl_cell with
            | Some (u, p) ->
                let differs =
                  match p with
                  | F.Cp_table tb -> tb <> v.F.v_table.(u)
                  | F.Cp_inv iv -> iv <> v.F.v_inv.(u)
                  | F.Cp_qinit qi -> not (Logic.equal qi v.F.v_q_init.(u))
                  | F.Cp_ce b -> b <> v.F.v_ce_frozen.(u)
                  | F.Cp_reg r -> r <> (v.F.v_kind.(u) = F.kind_bel_reg)
                in
                if differs then acc := [ u ]
            | None -> ());
            Array.iter
              (fun (u, row) -> if row <> v.F.v_inputs.(u) then acc := u :: !acc)
              d.F.dl_rows;
            for i = 0 to Array.length d.F.dl_extras - 1 do
              acc := (lane_extbase.(li) + i) :: !acc
            done;
            List.sort_uniq compare !acc)
      seed_rules
  in
  (* ---- union cone: BFS closure of every lane's seeds over the base
     reader CSR plus the overlay reader edges ---- *)
  Bytes.fill t.mark 0 nn '\000';
  Bytes.fill t.fmark 0 nn '\000';
  let qhd = ref 0 and qtl = ref 0 in
  let push u =
    if Bytes.get t.mark u = '\000' then begin
      Bytes.set t.mark u '\001';
      t.queue.(!qtl) <- u;
      incr qtl
    end
  in
  Array.iter (fun sl -> List.iter push sl) lane_sseeds;
  while !qhd < !qtl do
    let u = t.queue.(!qhd) in
    incr qhd;
    if u < bn then
      for e = t.csr_off.(u) to t.csr_off.(u + 1) - 1 do
        push t.csr_succ.(e)
      done;
    List.iter push t.radj.(u)
  done;
  let nm = !qtl in
  Array.blit t.queue 0 t.members 0 nm;
  (* ---- edges of a member: base row, overlay rows, extra inputs ---- *)
  let iter_edges r f =
    (if r < bn then begin
       let ins = v.F.v_inputs.(r) in
       for j = 0 to Array.length ins - 1 do
         if ins.(j) >= 0 then f ins.(j)
       done
     end
     else
       let ins = ext_row.(r - bn) in
       for j = 0 to Array.length ins - 1 do
         if ins.(j) >= 0 then f ins.(j)
       done);
    List.iter
      (fun (_, row) -> Array.iter (fun p -> if p >= 0 then f p) row)
      t.ov_rows.(r)
  in
  (* ---- topological order (Kahn) over member-internal combinational
     edges.  Registers are sources, exactly as in the base engine's
     Tarjan ([dep] of a register is empty): their per-cycle value is
     the q planes, and their input row is read only at the clock
     edge, after every combinational member settled.  A node whose kind
     some lane overrides is ordered as combinational, for the lanes that
     read its pins now.  A leftover is on or behind a cycle of the UNION
     graph; the leftover nodes are appended at the end of the order and
     settled by fixpoint sweeps, with Kleene iteration wherever a lane's
     own circuit may be cyclic (classified below). ---- *)
  (* [mixed u]: some lane overrides [u]'s kind; [is_reg u]: a register
     in every lane; [clocked u]: a register in some lane *)
  let mixed u = u < bn && Array.length t.ov_reg.(u) > 0 in
  let is_reg u = u < bn && v.F.v_kind.(u) = F.kind_bel_reg && not (mixed u) in
  let clocked u = u < bn && (v.F.v_kind.(u) = F.kind_bel_reg || mixed u) in
  let lane_reg li u =
    match lane_cell.(li) with
    | Some (n, F.Cp_reg r) when n = u -> r
    | _ -> v.F.v_kind.(u) = F.kind_bel_reg
  in
  for i = 0 to nm - 1 do
    let r = t.members.(i) in
    if is_reg r then t.indeg.(r) <- 0
    else begin
      let c = ref 0 in
      iter_edges r (fun p -> if Bytes.get t.mark p <> '\000' then incr c);
      t.indeg.(r) <- !c
    end
  done;
  let khd = ref 0 and ktl = ref 0 in
  for i = 0 to nm - 1 do
    let u = t.members.(i) in
    if t.indeg.(u) = 0 then begin
      t.queue.(!ktl) <- u;
      incr ktl
    end
  done;
  let ot = ref 0 in
  while !khd < !ktl do
    let u = t.queue.(!khd) in
    incr khd;
    t.order.(!ot) <- u;
    t.pos.(u) <- !ot;
    incr ot;
    let dec s =
      if Bytes.get t.mark s <> '\000' && not (is_reg s) then begin
        t.indeg.(s) <- t.indeg.(s) - 1;
        if t.indeg.(s) = 0 then begin
          t.queue.(!ktl) <- s;
          incr ktl
        end
      end
    in
    if u < bn then
      for e = t.csr_off.(u) to t.csr_off.(u + 1) - 1 do
        dec t.csr_succ.(e)
      done;
    List.iter dec t.radj.(u)
  done;
  (* effective input row of [u] in lane [li]'s circuit (combinational
     reads; a register has none — its row is read at the clock) *)
  let eff_row_of li u =
    if u >= bn then ext_row.(u - bn)
    else if lane_reg li u then [||]
    else row_or u v.F.v_inputs.(u) lane_rows.(li)
  in
  let kahn_len = !ot in
  let have_backedges = !ot < nm in
  let scc_starts = ref [||] in
  Array.fill t.fz 0 (nm * ns) 0;
  (* per leftover SCC: its Kleene cut members ([t.fz] holds their lanes);
     per lane: some seed lies on a cycle of its own circuit, so it
     never replay-converges *)
  let gcuts = ref [||] in
  let noreplay = Array.make nlanes false in
  (* a watch position remapped to an appended node reads a value with no
     tape behind it: that lane never converges early *)
  Array.iteri
    (fun li ws ->
      if List.exists (fun (_, node) -> node >= bn) ws then
        noreplay.(li) <- true)
    lane_watch;
  if have_backedges then begin
    (* Append the leftover (union-cycle) nodes grouped by the SCCs of
       the leftover subgraph, dependencies first (successors = inputs,
       mirroring the base engine's Tarjan): the per-cycle loop then
       settles each SCC locally instead of re-sweeping the whole
       suffix, and edges between SCCs only point forward.  Any
       lane's own cycle lies entirely inside one such SCC (Kahn peels
       everything not on or downstream of a cycle). *)
    let leftover = ref [] in
    for i = nm - 1 downto 0 do
      let u = t.members.(i) in
      if Bytes.get t.mark u <> '\000' && t.indeg.(u) > 0 then
        leftover := u :: !leftover
    done;
    let in_lo p = Bytes.get t.mark p <> '\000' && t.indeg.(p) > 0 in
    let lsucc = Array.make nn [] in
    List.iter
      (fun u ->
        let acc = ref [] in
        iter_edges u (fun p -> if in_lo p then acc := p :: !acc);
        lsucc.(u) <- !acc)
      !leftover;
    let idxa = Array.make nn (-1) in
    let lowa = Array.make nn 0 in
    let onst = Bytes.make nn '\000' in
    let tstk = ref [] in
    let nidx = ref 0 in
    let starts = ref [] in
    let frames : (int * int list ref) Stack.t = Stack.create () in
    let start u =
      idxa.(u) <- !nidx;
      lowa.(u) <- !nidx;
      incr nidx;
      tstk := u :: !tstk;
      Bytes.set onst u '\001';
      Stack.push (u, ref lsucc.(u)) frames
    in
    let visit_root r =
      if idxa.(r) < 0 then begin
        start r;
        while not (Stack.is_empty frames) do
          let u, rest = Stack.top frames in
          match !rest with
          | p :: tl ->
              rest := tl;
              if idxa.(p) < 0 then start p
              else if Bytes.get onst p = '\001' && idxa.(p) < lowa.(u) then
                lowa.(u) <- idxa.(p)
          | [] ->
              ignore (Stack.pop frames);
              let lu = lowa.(u) in
              (match Stack.top_opt frames with
              | Some (par, _) -> if lu < lowa.(par) then lowa.(par) <- lu
              | None -> ());
              if lu = idxa.(u) then begin
                let s0 = !ot in
                starts := s0 :: !starts;
                let brk = ref false in
                while not !brk do
                  match !tstk with
                  | x :: tl ->
                      tstk := tl;
                      Bytes.set onst x '\000';
                      t.order.(!ot) <- x;
                      incr ot;
                      if x = u then brk := true
                  | [] -> brk := true
                done;
                (* within the SCC, base evaluation order makes every
                   base edge forward — only the handful of overlay
                   back edges force extra local iterations.  An extra
                   node slots just before its first reader. *)
                if !ot - s0 > 1 then begin
                  let key x =
                    if x < bn then 2 * t.base_pos.(x)
                    else
                      List.fold_left
                        (fun acc r ->
                          if r < bn then min acc ((2 * t.base_pos.(r)) - 1)
                          else acc)
                        max_int t.radj.(x)
                  in
                  let chunk = Array.sub t.order s0 (!ot - s0) in
                  Array.sort (fun a b -> compare (key a) (key b)) chunk;
                  Array.blit chunk 0 t.order s0 (!ot - s0)
                end;
                for i = s0 to !ot - 1 do
                  t.pos.(t.order.(i)) <- i
                done
              end
        done
      end
    in
    List.iter visit_root !leftover;
    scc_starts := Array.of_list (List.rev !starts);
    let starts = !scc_starts in
    let nscc = Array.length starts in
    let grp = Array.make (nm - kahn_len) 0 in
    for g = 0 to nscc - 1 do
      let s1 = if g + 1 < nscc then starts.(g + 1) else nm in
      for i = starts.(g) to s1 - 1 do
        grp.(i - kahn_len) <- g
      done
    done;
    let gc = Array.make nscc [] in
    gcuts := gc;
    let in_l u =
      u >= 0 && Bytes.get t.mark u <> '\000' && t.indeg.(u) > 0
    in
    let add_cut u s m =
      let i = t.pos.(u) in
      let b = i * ns in
      let fresh = ref true in
      for s' = 0 to ns - 1 do
        if t.fz.(b + s') <> 0 then fresh := false
      done;
      if !fresh then begin
        let g = grp.(i - kahn_len) in
        gc.(g) <- i :: gc.(g)
      end;
      t.fz.(b + s) <- t.fz.(b + s) lor m
    in
    (* Kleene cuts: a set of nodes meeting every cycle of every lane's
       own circuit.  With a lane's cut bits held fixed its circuit is
       acyclic, so the sweeps settle the rest to unique
       values; re-evaluating the cuts from there and repeating is
       Kleene iteration on the cut values alone.  Every node of a
       base-cyclic SCC is a cut for all lanes.  A lane's cycle outside
       the base cycles passes through one of its overlay edges, whose
       target differs from the base and so is a seed: its seeds
       that lie on a cycle of its circuit — found by a DFS from the seed
       over the lane's effective input edges (restricted to the seed's
       SCC, where any cycle through it lives) back to the seed itself —
       are its cuts: a seed inside a cyclic SCC of the fault's circuit.
       Outside the base cycles every base edge runs forward in the SCC's
       order, so a cycle holds a backward overlay edge, and only a seed
       with an own input at or after it can close one. *)
    let gbase = Bytes.make nscc '\000' in
    for i = kahn_len to nm - 1 do
      let u = t.order.(i) in
      if u < bn && Bytes.get t.cyc_node u <> '\000' then begin
        Bytes.set gbase grp.(i - kahn_len) '\001';
        for s = 0 to ns - 1 do
          add_cut u s fullw
        done
      end
    done;
    let seen = Array.make nn 0 in
    let epoch = ref 0 in
    for li = 0 to nlanes - 1 do
      List.iter
        (fun s0 ->
          let g0 = if in_l s0 then grp.(t.pos.(s0) - kahn_len) else -1 in
          if
            g0 >= 0
            && (Bytes.get gbase g0 <> '\000'
               || Array.exists
                    (fun p -> in_l p && t.pos.(p) >= t.pos.(s0))
                    (eff_row_of li s0))
          then begin
            incr epoch;
            let ep = !epoch in
            let rec back_to_seed u =
              Array.exists
                (fun p ->
                  p = s0
                  || in_l p
                     && grp.(t.pos.(p) - kahn_len) = g0
                     && seen.(p) <> ep
                     && begin
                          seen.(p) <- ep;
                          back_to_seed p
                        end)
                (eff_row_of li u)
            in
            if back_to_seed s0 then begin
              noreplay.(li) <- true;
              add_cut s0 (li lsr 5) (1 lsl (li land 31))
            end
          end)
        lane_sseeds.(li)
    done
  end;
  let gcuts = !gcuts in
  (* ---- frontier: non-members some member reads; they follow the
     tape in every lane ---- *)
  let nfrontier = ref 0 in
  for i = 0 to nm - 1 do
    iter_edges t.members.(i) (fun p ->
        if Bytes.get t.mark p = '\000' && Bytes.get t.fmark p = '\000'
        then begin
          Bytes.set t.fmark p '\001';
          t.frontier.(!nfrontier) <- p;
          incr nfrontier
        end)
  done;
  let nfrontier = !nfrontier in
  (* per-lane seeds, ordered for replay: the replay evaluates seeds in
     the fault's own cone order, but only DIRECT seed->seed effective
     edges constrain it (non-seed inputs read the tape).  Union
     positions respect lane edges everywhere except inside the leftover
     set, so refine there with a stable seed-level Kahn over each lane's
     direct effective edges (registers read their row at the clock - no
     incoming edge).  A lane that replays has no seed on a cycle, so the
     Kahn always completes. *)
  let lane_seed_arr =
    Array.mapi
      (fun li sl ->
        let a = Array.of_list sl in
        Array.sort (fun x y -> compare t.pos.(x) t.pos.(y)) a;
        let nsd = Array.length a in
        if noreplay.(li) || (not have_backedges) || nsd <= 1 then a
        else begin
          let idx s =
            let r = ref (-1) in
            for j = 0 to nsd - 1 do
              if a.(j) = s then r := j
            done;
            !r
          in
          let row = Array.map (fun s -> eff_row_of li s) a in
          let done_ = Array.make nsd false in
          let out = Array.make nsd 0 in
          for k = 0 to nsd - 1 do
            let pick = ref (-1) in
            let j = ref 0 in
            while !pick < 0 && !j < nsd do
              if not done_.(!j) then begin
                let ready = ref true in
                Array.iter
                  (fun p ->
                    let pj = idx p in
                    if pj >= 0 && not done_.(pj) then ready := false)
                  row.(!j);
                if !ready then pick := !j
              end;
              incr j
            done;
            if !pick < 0 then
              failwith "Fsim_batch.run: replay seeds on a cycle";
            done_.(!pick) <- true;
            out.(k) <- a.(!pick)
          done;
          out
        end)
      lane_sseeds
  in
  (* ---- the compiled program.  Local indices: member [i] of the
     evaluation order is local [i] ([t.pos] says so already), frontier
     node [k] is local [nm + k], and local [zero] is a constant Zero
     that unused LUT pins read (their inversion bit dropped, as the
     scalar pin scan skips them).  Every member's pins, kind, table and
     resolve row land in flat arrays of [t]. ---- *)
  for k = 0 to nfrontier - 1 do
    t.pos.(t.frontier.(k)) <- nm + k
  done;
  let zero = nm + nfrontier in
  let nloc = zero + 1 in
  let gid = t.gid in
  Array.blit t.order 0 gid 0 nm;
  Array.blit t.frontier 0 gid nm nfrontier;
  gid.(zero) <- -1;
  let loc p = if p < 0 then -1 else t.pos.(p) in
  let nres = ref 0 in
  let add_row row =
    let n = Array.length row in
    if Array.length t.rins < !nres + n then begin
      let a = Array.make (max (!nres + n) (2 * Array.length t.rins + 64)) 0 in
      Array.blit t.rins 0 a 0 !nres;
      t.rins <- a
    end;
    for k = 0 to n - 1 do
      t.rins.(!nres + k) <- loc row.(k)
    done;
    nres := !nres + n
  in
  let ngat = ref 0 in
  (* lanes [m] of sub [s] read local [p] at pin [j]: one entry per
     distinct (sub, pin, node) of the member starting at [g0] *)
  let add_gather g0 s j p m =
    let k = ref g0 in
    let same k = t.gat.(k) = s && t.gat.(k + 1) = j && t.gat.(k + 2) = p in
    while !k < !ngat && not (same !k) do
      k := !k + 4
    done;
    if !k < !ngat then t.gat.(!k + 3) <- t.gat.(!k + 3) lor m
    else begin
      if Array.length t.gat < !ngat + 4 then begin
        let a = Array.make (2 * Array.length t.gat + 64) 0 in
        Array.blit t.gat 0 a 0 !ngat;
        t.gat <- a
      end;
      t.gat.(!ngat) <- s;
      t.gat.(!ngat + 1) <- j;
      t.gat.(!ngat + 2) <- p;
      t.gat.(!ngat + 3) <- m;
      ngat := !ngat + 4
    end
  in
  let nregs = ref 0 in
  for i = 0 to nm - 1 do
    let u = gid.(i) in
    t.roff.(i) <- !nres;
    t.gof.(i) <- !ngat;
    t.bk.(i) <- max_int;
    t.fw.(i) <- -1;
    t.lrows.(i) <- [];
    Bytes.set t.lov i '\000';
    if u >= bn then begin
      t.kd.(i) <- k_extra;
      add_row ext_row.(u - bn)
    end
    else begin
      let k = v.F.v_kind.(u) in
      if k = F.kind_bel_comb || k = F.kind_bel_reg then begin
        let row = v.F.v_inputs.(u) in
        (* a rewired row reads its own node only where it differs *)
        List.iter
          (fun (li, rrow) ->
            for j = 0 to 3 do
              if rrow.(j) <> row.(j) then
                add_gather t.gof.(i) (li lsr 5) j (loc rrow.(j))
                  (1 lsl (li land 31))
            done)
          t.ov_rows.(u);
        let iv = ref 0 in
        for j = 0 to 3 do
          let p = row.(j) in
          t.pin.((4 * i) + j) <- (if p < 0 then zero else t.pos.(p)) * ns;
          if p >= 0 then iv := !iv lor (v.F.v_inv.(u) land (1 lsl j))
        done;
        t.tbl.(i) <- Lanes.fold_inversion ~table:v.F.v_table.(u) ~inv:!iv;
        let ov =
          Array.length t.ov_t1.(u) > 0
          || Array.length t.ov_im.(u) > 0
          || t.ov_rows.(u) <> []
        in
        if ov then Bytes.set t.lov i '\001';
        t.kd.(i) <-
          (if mixed u then k_mixed
           else if k = F.kind_bel_reg then k_reg
           else if ov then k_lut_ov
           else k_lut);
        if clocked u then begin
          t.regs.(!nregs) <- i;
          incr nregs
        end
      end
      else if k = F.kind_resolve then begin
        t.kd.(i) <- k_res;
        add_row v.F.v_inputs.(u);
        t.lrows.(i) <-
          List.map (fun (li, row) -> (li, Array.map loc row)) t.ov_rows.(u)
      end
      else t.kd.(i) <- k_tape
    end
  done;
  t.roff.(nm) <- !nres;
  t.gof.(nm) <- !ngat;
  let nregs = !nregs in
  let rins = t.rins in
  (* reader spans inside the union SCCs: member [i] read by a member
     [r] of its own group at or before it is a back edge ([bk] = the
     lowest such [r], [bkm] the lanes that read it there while the
     sweeps run); [fw] is its highest reader after it *)
  let starts = !scc_starts in
  let nscc = Array.length starts in
  let gend g = if g + 1 < nscc then starts.(g + 1) else nm in
  Array.fill t.bkm 0 (nm * ns) 0;
  for g = 0 to nscc - 1 do
    let s0 = starts.(g) and s1 = gend g in
    for r = s0 to s1 - 1 do
      (* lanes that read [p] through this edge; a Kleene cut's cut
         lanes hold their value while the sweeps run *)
      let edge li p =
        if p >= 0 && Bytes.get t.mark p <> '\000' then begin
          let i = t.pos.(p) in
          if i >= r && i < s1 then
            for s = 0 to ns - 1 do
              let m =
                (if li < 0 then fullw
                 else if li lsr 5 = s then 1 lsl (li land 31)
                 else 0)
                land lnot t.fz.((r * ns) + s)
              in
              if m <> 0 then begin
                if r < t.bk.(i) then t.bk.(i) <- r;
                t.bkm.((i * ns) + s) <- t.bkm.((i * ns) + s) lor m
              end
            done;
          if i < r && i >= s0 && r > t.fw.(i) then t.fw.(i) <- r
        end
      in
      let u = gid.(r) in
      if u >= bn then Array.iter (edge ext_lane.(u - bn)) ext_row.(u - bn)
      else begin
        Array.iter (edge (-1)) v.F.v_inputs.(u);
        List.iter (fun (li, row) -> Array.iter (edge li) row) t.ov_rows.(u)
      end
    done
  done;
  (* segments: maximal runs of the Kahn prefix and acyclic singleton
     groups are swept once, in order; every other group is settled to
     its fixpoint, with its Kleene cuts *)
  let segs = ref [] in
  let run_lo = ref 0 in
  for g = 0 to nscc - 1 do
    let s0 = starts.(g) and s1 = gend g in
    if s1 - s0 > 1 || t.bk.(s0) < max_int || gcuts.(g) <> [] then begin
      if !run_lo < s0 then segs := (!run_lo, s0, None) :: !segs;
      segs := (s0, s1, Some (Array.of_list gcuts.(g))) :: !segs;
      run_lo := s1
    end
  done;
  if !run_lo < nm then segs := (!run_lo, nm, None) :: !segs;
  let segs = Array.of_list (List.rev !segs) in
  t.last_nm <- nm;
  t.last_cone <- Array.sub t.order 0 nm;
  (* ---- initial state: every local X (also the glitch rule's value
     before cycle 0), the Zero slot Zero, the registers at their
     (per-lane) init values ---- *)
  let vh = t.vh and vl = t.vl and uh = t.uh and ul = t.ul in
  let qh = t.qh and ql = t.ql and fz = t.fz in
  Array.fill vh 0 (nloc * ns) fullw;
  Array.fill vl 0 (nloc * ns) fullw;
  Array.fill uh 0 (nloc * ns) fullw;
  Array.fill ul 0 (nloc * ns) fullw;
  Array.fill vh (zero * ns) ns 0;
  for k = 0 to nregs - 1 do
    let i = t.regs.(k) in
    let u = gid.(i) and b = i * ns in
    if Array.length t.ov_qh.(u) > 0 then begin
      Array.blit t.ov_qh.(u) 0 qh b ns;
      Array.blit t.ov_ql.(u) 0 ql b ns
    end
    else begin
      Array.fill qh b ns (Lanes.broadcast_h v.F.v_q_init.(u));
      Array.fill ql b ns (Lanes.broadcast_l v.F.v_q_init.(u))
    end
  done;
  (* ---- the evaluation kernel: member [i]'s planes for sub [s] land in
     [dh.(o + s)]/[dl.(o + s)] ---- *)
  let pin = t.pin and kd = t.kd and tbl = t.tbl in
  let roff = t.roff and lrows = t.lrows and gof = t.gof and gat = t.gat in
  let bk = t.bk and bkm = t.bkm and fw = t.fw in
  let sc = t.sc and phs = t.phs and pls = t.pls in
  let newh = t.newh and newl = t.newl in
  let cur_c = ref 0 in
  let lane_v p sub bit =
    let b = (p * ns) + sub in
    Lanes.lane ~h:vh.(b) ~l:vl.(b) bit
  in
  let lane_lv p sub bit =
    let b = (p * ns) + sub in
    Lanes.lane ~h:uh.(b) ~l:ul.(b) bit
  in
  (* a node's value in one lane: its planes where the program holds it,
     the tape's elsewhere (remapped watch positions, replay) *)
  let node_v u sub bit =
    if Bytes.get t.mark u <> '\000' || Bytes.get t.fmark u <> '\000' then
      lane_v t.pos.(u) sub bit
    else F.tape_get_u tape !cur_c u
  in
  let splice vv dh dl o sub bit =
    let m = 1 lsl bit in
    dh.(o + sub) <- dh.(o + sub) land lnot m lor (Lanes.broadcast_h vv land m);
    dl.(o + sub) <- dl.(o + sub) land lnot m lor (Lanes.broadcast_l vv land m)
  in
  (* one lane's resolve over the locals [a.(off) .. a.(off + n - 1)] *)
  let scalar_resolve a off n sub bit =
    if n = 0 then Logic.X
    else begin
      let vr = ref (lane_v a.(off) sub bit) in
      for k = 1 to n - 1 do
        vr := Logic.resolve !vr (lane_v a.(off + k) sub bit)
      done;
      match !vr with
      | Logic.X -> Logic.X
      | (Logic.Zero | Logic.One) as sv ->
          let g = ref false in
          for k = 0 to n - 1 do
            if not (Logic.equal (lane_lv a.(off + k) sub bit) sv) then g := true
          done;
          if !g then Logic.X else sv
    end
  in
  (* lanes reading pin [j] inverted: the per-lane masks [ima] when some
     lane patched them, else the base inversion bits [inv] *)
  let[@inline] pin_im ima inv s j =
    if Array.length ima > 0 then ima.((s * 4) + j)
    else -((inv lsr j) land 1) land fullw
  in
  let ims = t.ims in
  (* a LUT with the base table, inversion and row in every lane *)
  let lut_plain i dh dl o =
    let b = 4 * i in
    Lanes.lut_node sc ~table:tbl.(i) ~h:vh ~l:vl pin.(b) pin.(b + 1)
      pin.(b + 2) pin.(b + 3)
      ns ~dh ~dl o;
    t.n_evals <- t.n_evals + ns
  in
  (* a LUT some lane patched: per-lane inversion masks and leaves, and
     a lane that rewired a pin reads its own node there (an unused pin
     is constant Zero) *)
  let lut_ov i dh dl o =
    let u = gid.(i) in
    let row = v.F.v_inputs.(u) and b = 4 * i in
    let iv = v.F.v_inv.(u) and ima = t.ov_im.(u) and leaves = t.ov_t1.(u) in
    let g1 = gof.(i + 1) in
    for s = 0 to ns - 1 do
      for j = 0 to 3 do
        let im = pin_im ima iv s j in
        ims.(j) <- im;
        if row.(j) < 0 then begin
          phs.(j) <- 0;
          pls.(j) <- fullw
        end
        else begin
          let p = pin.(b + j) + s in
          let h = vh.(p) and l = vl.(p) in
          phs.(j) <- h land lnot im lor (l land im);
          pls.(j) <- l land lnot im lor (h land im)
        end
      done;
      let k = ref gof.(i) in
      while !k < g1 do
        if gat.(!k) = s then begin
          let j = gat.(!k + 1) and p = gat.(!k + 2) and m = gat.(!k + 3) in
          if p < 0 then begin
            phs.(j) <- phs.(j) land lnot m;
            pls.(j) <- pls.(j) lor m
          end
          else begin
            let im = ims.(j) in
            let h = vh.((p * ns) + s) and l = vl.((p * ns) + s) in
            phs.(j) <-
              phs.(j) land lnot m lor (h land lnot im lor (l land im) land m);
            pls.(j) <-
              pls.(j) land lnot m lor (l land lnot im lor (h land im) land m)
          end
        end;
        k := !k + 4
      done;
      if Array.length leaves > 0 then
        Lanes.lut_leaves ~ph:phs ~pl:pls ~leaves ~at:(s * 16) ~dh ~dl (o + s)
      else
        Lanes.lut_words sc v.F.v_table.(u) phs.(0) pls.(0) phs.(1) pls.(1)
          phs.(2) pls.(2) phs.(3) pls.(3) dh dl (o + s)
    done;
    t.n_evals <- t.n_evals + ns
  in
  let lut_at i dh dl o =
    if Bytes.get t.lov i <> '\000' then lut_ov i dh dl o
    else lut_plain i dh dl o
  in
  let rec splice_rows rows dh dl o =
    match rows with
    | [] -> ()
    | (li, rrow) :: tl ->
        let sub = li lsr 5 and bit = li land 31 in
        splice
          (scalar_resolve rrow 0 (Array.length rrow) sub bit)
          dh dl o sub bit;
        t.n_splices <- t.n_splices + 1;
        splice_rows tl dh dl o
  in
  let res_eval i dh dl o =
    let r0 = roff.(i) in
    let n = roff.(i + 1) - r0 in
    res_ensure t n;
    let resh = t.resh and resl = t.resl in
    let reslh = t.reslh and resll = t.resll in
    for s = 0 to ns - 1 do
      for k = 0 to n - 1 do
        let p = (rins.(r0 + k) * ns) + s in
        resh.(k) <- vh.(p);
        resl.(k) <- vl.(p);
        reslh.(k) <- uh.(p);
        resll.(k) <- ul.(p)
      done;
      Lanes.resolve_planes ~n ~h:resh ~l:resl ~lh:reslh ~ll:resll ~dh ~dl
        (o + s)
    done;
    t.n_evals <- t.n_evals + ns;
    splice_rows lrows.(i) dh dl o
  in
  (* an appended node exists only in its own lane's circuit: X in
     every other lane *)
  let extra_eval i dh dl o =
    let li = ext_lane.(gid.(i) - bn) in
    for s = 0 to ns - 1 do
      dh.(o + s) <- fullw;
      dl.(o + s) <- fullw
    done;
    let sub = li lsr 5 and bit = li land 31 in
    let r0 = roff.(i) in
    splice (scalar_resolve rins r0 (roff.(i + 1) - r0) sub bit) dh dl o sub bit;
    t.n_splices <- t.n_splices + 1
  in
  let eval_into i dh dl o =
    let k = kd.(i) in
    if k = k_lut then lut_plain i dh dl o
    else if k = k_lut_ov then lut_ov i dh dl o
    else if k = k_reg then begin
      for s = 0 to ns - 1 do
        dh.(o + s) <- qh.((i * ns) + s);
        dl.(o + s) <- ql.((i * ns) + s)
      done
    end
    else if k = k_mixed then begin
      (* the LUT in the combinational lanes, the state in the
         registered ones *)
      lut_at i dh dl o;
      let ra = t.ov_reg.(gid.(i)) and b = i * ns in
      for s = 0 to ns - 1 do
        let r = ra.(s) in
        dh.(o + s) <- dh.(o + s) land lnot r lor (qh.(b + s) land r);
        dl.(o + s) <- dl.(o + s) land lnot r lor (ql.(b + s) land r)
      done
    end
    else if k = k_res then res_eval i dh dl o
    else if k = k_extra then extra_eval i dh dl o
    else begin
      let tc = tw.((!cur_c * bn) + gid.(i)) in
      let th = code_h tc and tl = code_l tc in
      for s = 0 to ns - 1 do
        dh.(o + s) <- th;
        dl.(o + s) <- tl
      done
    end
  in
  (* undecided lanes: a decided lane (watch error, or proven
     convergence) leaves every check *)
  let live = Array.make ns 0 in
  for li = 0 to nlanes - 1 do
    live.(li lsr 5) <- live.(li lsr 5) lor (1 lsl (li land 31))
  done;
  (* ---- fixpoint segments.  While [freeze] is set, the cut lanes of a
     Kleene cut keep their value: the commit leaves those bits as they
     are. ---- *)
  let freeze = ref false in
  (* commit member [i]: 0 = its planes stayed, 1 = they moved, 2 = they
     moved on a lane of one of its back edges *)
  let commit i =
    let b = i * ns in
    let moved = ref 0 in
    for s = 0 to ns - 1 do
      let f = if !freeze then fz.(b + s) else 0 in
      let nh = newh.(s) land lnot f lor (vh.(b + s) land f)
      and nl = newl.(s) land lnot f lor (vl.(b + s) land f) in
      let d = nh lxor vh.(b + s) lor (nl lxor vl.(b + s)) in
      if d <> 0 then begin
        if d land bkm.(b + s) <> 0 then moved := 2
        else if !moved = 0 then moved := 1;
        vh.(b + s) <- nh;
        vl.(b + s) <- nl
      end
    done;
    !moved
  in
  (* Settle the group [lo, hi).  The cut lanes restart from X at the
     cuts; sweeps then settle everything else with the cut bits held,
     and the cuts are re-evaluated; rounds repeat until no cut moves.
     A sweep covers [from, upto): a member that moves extends it to its
     last forward reader, and, if it moved on a lane of a back edge,
     puts its back readers into the next sweep; a member no moved input
     reaches keeps its value.  Each
     round raises some cut value (monotone from X) and each sweep
     settles one more level of a cut-free acyclic graph: at most n + 1
     of each. *)
  let settle lo hi cuts =
    let kleene = Array.length cuts > 0 in
    for c = 0 to Array.length cuts - 1 do
      let b = cuts.(c) * ns in
      for s = 0 to ns - 1 do
        vh.(b + s) <- vh.(b + s) lor fz.(b + s);
        vl.(b + s) <- vl.(b + s) lor fz.(b + s)
      done
    done;
    freeze := kleene;
    let rounds = ref (hi - lo + 1) in
    let from = ref lo and upto = ref hi in
    while !from < !upto do
      if !rounds = 0 then
        failwith "Fsim_batch.run: Kleene rounds exceeded the n+1 bound";
      decr rounds;
      let budget = ref (hi - lo + 1) in
      while !from < !upto do
        if !budget = 0 then
          failwith "Fsim_batch.run: SCC sweeps exceeded the n+1 bound";
        decr budget;
        let nfrom = ref hi and nupto = ref lo in
        let i = ref !from in
        while !i < !upto do
          let m = !i in
          eval_into m newh newl 0;
          let mv = commit m in
          if mv > 0 then begin
            if fw.(m) >= !upto then upto := fw.(m) + 1;
            if mv = 2 then begin
              if bk.(m) < !nfrom then nfrom := bk.(m);
              if m >= !nupto then nupto := m + 1
            end
          end;
          incr i
        done;
        from := !nfrom;
        upto := !nupto
      done;
      if kleene then begin
        freeze := false;
        for c = 0 to Array.length cuts - 1 do
          let m = cuts.(c) in
          eval_into m newh newl 0;
          if commit m > 0 then begin
            from := min !from (min bk.(m) (m + 1));
            upto := max !upto (max (fw.(m) + 1) (m + 1))
          end
        done;
        freeze := true
      end
    done;
    freeze := false
  in
  (* ---- per-lane convergence replay over the lane's effective
     circuit ---- *)
  let eff_table li u =
    match lane_cell.(li) with
    | Some (n, F.Cp_table tb) when n = u -> tb
    | _ -> v.F.v_table.(u)
  in
  let eff_inv li u =
    match lane_cell.(li) with
    | Some (n, F.Cp_inv iv) when n = u -> iv
    | _ -> v.F.v_inv.(u)
  in
  let eff_frozen li u =
    match lane_cell.(li) with
    | Some (n, F.Cp_ce b) when n = u -> b
    | _ -> v.F.v_ce_frozen.(u)
  in
  let replay_converges li c =
    t.repoch <- t.repoch + 1;
    let ep = t.repoch in
    let seeds = lane_seed_arr.(li) in
    let nseeds = Array.length seeds in
    let sub = li lsr 5 and bit = li land 31 in
    for i = 0 to nseeds - 1 do
      let s0 = seeds.(i) in
      let b = (t.pos.(s0) * ns) + sub in
      t.rstamp.(s0) <- ep;
      t.rv.(s0) <- lane_v t.pos.(s0) sub bit;
      t.rvl.(s0) <- lane_lv t.pos.(s0) sub bit;
      if s0 < bn && lane_reg li s0 then
        t.rq.(s0) <- Lanes.lane ~h:qh.(b) ~l:ql.(b) bit
    done;
    let getv cy p =
      if t.rstamp.(p) = ep then t.rv.(p) else F.tape_get_u tape cy p
    in
    let getl cy p =
      if t.rstamp.(p) = ep then t.rvl.(p) else F.tape_get_u tape (cy - 1) p
    in
    let eff_row u =
      if u >= bn then ext_row.(u - bn)
      else row_or u v.F.v_inputs.(u) lane_rows.(li)
    in
    let replay_lut cy u =
      let row = eff_row u in
      let tb = eff_table li u and iv = eff_inv li u in
      let acc = ref 0 in
      for j = 0 to 3 do
        let p = row.(j) in
        if p >= 0 then
          match getv cy p with
          | Logic.Zero -> acc := !acc lor (((iv lsr j) land 1) lsl j)
          | Logic.One -> acc := !acc lor ((1 - ((iv lsr j) land 1)) lsl j)
          | Logic.X -> acc := !acc lor (1 lsl (j + 4))
      done;
      Scalar.lut_of_acc tb !acc
    in
    let replay_eval cy s =
      let k = if s < bn then v.F.v_kind.(s) else F.kind_resolve in
      if s < bn && lane_reg li s then t.rq.(s)
      else if k = F.kind_bel_comb || k = F.kind_bel_reg then replay_lut cy s
      else if k = F.kind_resolve then begin
        let ins = eff_row s in
        let len = Array.length ins in
        if len = 0 then Logic.X
        else begin
          let vr = ref (getv cy ins.(0)) in
          for i = 1 to len - 1 do
            vr := Logic.resolve !vr (getv cy ins.(i))
          done;
          match !vr with
          | Logic.X -> Logic.X
          | (Logic.Zero | Logic.One) as sv ->
              let g = ref false in
              for i = 0 to len - 1 do
                if not (Logic.equal (getl cy ins.(i)) sv) then g := true
              done;
              if !g then Logic.X else sv
        end
      end
      else Logic.X
    in
    let ok = ref true in
    let cy' = ref (c + 1) in
    while !ok && !cy' < cycles do
      let cc = !cy' in
      let i = ref 0 in
      while !ok && !i < nseeds do
        let s = seeds.(!i) in
        let vv = replay_eval cc s in
        t.rv.(s) <- vv;
        if s < bn && not (Logic.equal vv (F.tape_get_u tape cc s)) then
          ok := false;
        incr i
      done;
      if !ok then begin
        for i = 0 to nseeds - 1 do
          let s = seeds.(i) in
          if s < bn && lane_reg li s && not (eff_frozen li s) then
            t.rq.(s) <- replay_lut cc s
        done;
        for i = 0 to nseeds - 1 do
          t.rvl.(seeds.(i)) <- t.rv.(seeds.(i))
        done
      end;
      incr cy'
    done;
    !ok
  in
  (* ---- verdicts ---- *)
  let nund = ref nlanes in
  let decide li =
    live.(li lsr 5) <- live.(li lsr 5) land lnot (1 lsl (li land 31));
    decr nund
  in
  let undecided li = live.(li lsr 5) land (1 lsl (li land 31)) <> 0 in
  let err_cy = Array.make nlanes (-1) in
  let conv_cy = Array.make nlanes (-1) in
  let det_cy = Array.make nlanes (-1) in
  (* a watch mismatch of lane [li] at position [wi]: functional entries
     ([wi < nfunc]) record the first error, trailing detection entries
     the first disagreement flag.  The lane is decided once its
     functional verdict landed and no detection verdict is still
     pending; with [ndetect = 0] it retires on its first error *)
  let note_watch li wi c =
    (if wi < nfunc then begin
       if err_cy.(li) < 0 then err_cy.(li) <- c
     end
     else if det_cy.(li) < 0 then det_cy.(li) <- c);
    if err_cy.(li) >= 0 && (ndetect = 0 || det_cy.(li) >= 0) then decide li
  in
  (* after lane [li] converged at [c], its remapped positions keep
     reading their old nodes, whose tape can still differ from the
     golden expectation over the skipped cycles *)
  let scan_remaps li c =
    let c' = ref (c + 1) in
    while (err_cy.(li) < 0 || (ndetect > 0 && det_cy.(li) < 0)) && !c' < cycles
    do
      List.iter
        (fun (wi, node) ->
          if not (Logic.equal (F.tape_get_u tape !c' node) expected.(!c').(wi))
          then
            if wi < nfunc then begin
              if err_cy.(li) < 0 then err_cy.(li) <- !c'
            end
            else if det_cy.(li) < 0 then det_cy.(li) <- !c')
        lane_watch.(li);
      incr c'
    done
  in
  (* suspect watch positions: their base node inside the union cone (a
     lane that remaps a position reads its own node there, checked per
     lane) *)
  let suspects = ref [] in
  Array.iteri
    (fun wi w ->
      if w >= 0 && w < bn && Bytes.get t.mark w <> '\000' then
        suspects := wi :: !suspects)
    watch;
  let suspects = Array.of_list (List.rev !suspects) in
  let remaps = Array.exists (fun ws -> ws <> []) lane_watch in
  (* lanes that never replay-converge *)
  let norep = Array.make ns 0 in
  Array.iteri
    (fun li nr ->
      if nr then norep.(li lsr 5) <- norep.(li lsr 5) lor (1 lsl (li land 31)))
    noreplay;
  (* forensic scan state: [fresh] holds the lanes with no divergence
     yet, [first_cy]/[first_nodes] what each lane diverged at first *)
  let collect = voters <> None in
  let ever = t.ever in
  let fresh = Array.copy live in
  let hit = Array.make ns 0 in
  let first_cy = Array.make nlanes (-1) in
  let first_nodes = Array.make nlanes [] in
  (* the undecided lanes' divergence at every base member: the planes
     against the tape, folded into [ever] *)
  let dvor = Array.make ns 0 in
  let scan_divergence c =
    Array.fill dvor 0 ns 0;
    for i = 0 to nm - 1 do
      let u = gid.(i) in
      if u < bn then begin
        let tc = tw.((c * bn) + u) in
        let th = code_h tc and tl = code_l tc in
        let b = i * ns and eb = u * stride in
        for s = 0 to ns - 1 do
          let w = (vh.(b + s) lxor th) lor (vl.(b + s) lxor tl) land live.(s) in
          if w <> 0 then begin
            dvor.(s) <- dvor.(s) lor w;
            ever.(eb + s) <- ever.(eb + s) lor w;
            let m = ref (w land fresh.(s)) in
            hit.(s) <- hit.(s) lor !m;
            while !m <> 0 do
              let lsb = !m land - !m in
              let li = (s * 32) + bit_index lsb in
              first_nodes.(li) <- u :: first_nodes.(li);
              m := !m land (!m - 1)
            done
          end
        done
      end
    done;
    for s = 0 to ns - 1 do
      let m = ref hit.(s) in
      while !m <> 0 do
        let lsb = !m land - !m in
        first_cy.((s * 32) + bit_index lsb) <- c;
        m := !m land (!m - 1)
      done;
      fresh.(s) <- fresh.(s) land lnot hit.(s);
      hit.(s) <- 0
    done
  in
  (* convergence candidates: undecided lanes that replay, with no
     member off the tape (the forensic scan already found those) and no
     register state off the next cycle's tape; the scans stop once no
     candidate is left *)
  let cand = Array.make ns 0 in
  let candidates c =
    let any = ref false in
    for s = 0 to ns - 1 do
      cand.(s) <- live.(s) land lnot norep.(s);
      if collect then cand.(s) <- cand.(s) land lnot dvor.(s);
      if cand.(s) <> 0 then any := true
    done;
    let i = ref (if collect then nm else 0) in
    while !any && !i < nm do
      let u = gid.(!i) in
      if u < bn then begin
        let tc = tw.((c * bn) + u) and b = !i * ns in
        let th = code_h tc and tl = code_l tc in
        any := false;
        for s = 0 to ns - 1 do
          cand.(s) <-
            cand.(s) land lnot ((vh.(b + s) lxor th) lor (vl.(b + s) lxor tl));
          if cand.(s) <> 0 then any := true
        done
      end;
      incr i
    done;
    let k = ref 0 in
    while !any && !k < nregs do
      let i = t.regs.(!k) in
      let u = gid.(i) and b = i * ns in
      let tc = tw.(((c + 1) * bn) + u) and ra = t.ov_reg.(u) in
      let th = code_h tc and tl = code_l tc in
      any := false;
      for s = 0 to ns - 1 do
        (* the state planes mean nothing where the node is
           combinational *)
        let rw = if Array.length ra > 0 then ra.(s) else fullw in
        cand.(s) <-
          cand.(s)
          land lnot ((qh.(b + s) lxor th) lor (ql.(b + s) lxor tl) land rw);
        if cand.(s) <> 0 then any := true
      done;
      incr k
    done;
    !any
  in
  (* ---- the per-cycle loop ---- *)
  let nseg = Array.length segs in
  let cy = ref 0 in
  while !nund > 0 && !cy < cycles do
    let c = !cy in
    cur_c := c;
    (* the frontier's tape values *)
    for k = nm to zero - 1 do
      let tc = tw.((c * bn) + gid.(k)) in
      let th = code_h tc and tl = code_l tc in
      for s = 0 to ns - 1 do
        vh.((k * ns) + s) <- th;
        vl.((k * ns) + s) <- tl
      done
    done;
    (* the members, in order: a plain run once, a union SCC to its
       fixpoint *)
    for g = 0 to nseg - 1 do
      match segs.(g) with
      | lo, hi, None ->
          for i = lo to hi - 1 do
            if kd.(i) = k_lut then lut_plain i vh vl (i * ns)
            else eval_into i vh vl (i * ns)
          done
      | lo, hi, Some cuts -> settle lo hi cuts
    done;
    (* forensic divergence scan: the settled cycle, before decided
       lanes leave the batch *)
    if collect then scan_divergence c;
    (* watched-output check, before the clock *)
    let exp = expected.(c) in
    for k = 0 to Array.length suspects - 1 do
      let wi = suspects.(k) in
      let b = t.pos.(watch.(wi)) * ns and ev = exp.(wi) in
      for s = 0 to ns - 1 do
        let mism =
          Lanes.mismatch ~h:vh.(b + s) ~l:vl.(b + s) ev
          land live.(s)
          land lnot wmask.((wi * ns) + s)
        in
        if mism <> 0 then begin
          let m = ref mism in
          while !m <> 0 do
            let lsb = !m land - !m in
            note_watch ((s * 32) + bit_index lsb) wi c;
            m := !m land (!m - 1)
          done
        end
      done
    done;
    (* remapped positions: the lane's own node *)
    if remaps then
      Array.iteri
        (fun li ws ->
          List.iter
            (fun (wi, node) ->
              if
                undecided li
                && not
                     (Logic.equal
                        (node_v node (li lsr 5) (li land 31))
                        exp.(wi))
              then note_watch li wi c)
            ws)
        lane_watch;
    (* clock the cone registers; the last cycle's next state is never
       read.  A frozen lane keeps its state.  A node whose kind some
       lane overrides clocks in every lane and is read in its register
       lanes only *)
    if c < cycles - 1 then
      for k = 0 to nregs - 1 do
        let i = t.regs.(k) in
        let u = gid.(i) in
        let fza = t.ov_ce.(u) and basefz = v.F.v_ce_frozen.(u) in
        if kd.(i) = k_mixed || not (basefz && Array.length fza = 0) then begin
          lut_at i newh newl 0;
          let b = i * ns in
          for s = 0 to ns - 1 do
            let fzw =
              if Array.length fza > 0 then fza.(s)
              else if basefz then fullw
              else 0
            in
            qh.(b + s) <- newh.(s) land lnot fzw lor (qh.(b + s) land fzw);
            ql.(b + s) <- newl.(s) land lnot fzw lor (ql.(b + s) land fzw)
          done
        end
      done;
    (* this cycle's planes are the next one's glitch-rule values *)
    for k = 0 to (nloc * ns) - 1 do
      uh.(k) <- vh.(k);
      ul.(k) <- vl.(k)
    done;
    (* per-lane convergence early-exit: a candidate's seed replay
       confirms it *)
    if c < cycles - 1 && !nund > 0 && candidates c then
      for s = 0 to ns - 1 do
        let m = ref cand.(s) in
        while !m <> 0 do
          let lsb = !m land - !m in
          m := !m land (!m - 1);
          let li = (s * 32) + bit_index lsb in
          if replay_converges li c then begin
            conv_cy.(li) <- c;
            decide li;
            scan_remaps li c
          end
        done
      done;
    incr cy
  done;
  (* ---- per-lane provenance: one BFS from the lane's seed set over
     its own effective graph (register pins included, so the cone
     crosses register boundaries).  BFS reach and distances do not
     depend on visiting order.  The base reader CSR alone walks that
     graph exactly: every overlay edge ends at a seed (a rewired row
     that differs from the base, or an appended node), already at
     depth 0, a rewired row equal to the base row keeps the base
     edges, and a kind override changes no edge ---- *)
  let provenance voters li =
    t.pv_epoch <- t.pv_epoch + 1;
    let ep = t.pv_epoch in
    let seen = t.pv_seen and depth = t.pv_depth in
    let q = t.queue in
    let qtl = ref 0 in
    let push u dep =
      if seen.(u) <> ep then begin
        seen.(u) <- ep;
        depth.(u) <- dep;
        q.(!qtl) <- u;
        incr qtl
      end
    in
    List.iter (fun s -> push s 0) lane_sseeds.(li);
    let qhd = ref 0 in
    while !qhd < !qtl do
      let p = q.(!qhd) in
      incr qhd;
      if p < bn then
        for e = t.csr_off.(p) to t.csr_off.(p + 1) - 1 do
          push t.csr_succ.(e) (depth.(p) + 1)
        done
    done;
    let sub = li lsr 5 and m = 1 lsl (li land 31) in
    let diverged = ref 0 and dmax = ref (-1) and held = ref false in
    for i = 0 to !qtl - 1 do
      let u = q.(i) in
      if u < bn && ever.((u * stride) + sub) land m <> 0 then begin
        incr diverged;
        if depth.(u) > !dmax then dmax := depth.(u)
      end
      else if u < Bytes.length voters && Bytes.get voters u <> '\000' then
        held := true
    done;
    {
      F.pv_diverged = !diverged;
      pv_first_node =
        List.fold_left
          (fun f u -> if nearer_first depth u f then u else f)
          (-1) first_nodes.(li);
      pv_first_cycle = first_cy.(li);
      pv_depth = !dmax;
      pv_cone = !qtl;
      pv_voter_held = !held;
    }
  in
  let verdicts =
    Array.init nlanes (fun li ->
        {
          bv_error_cycle = err_cy.(li);
          bv_converge_cycle = conv_cy.(li);
          bv_detect_cycle = det_cy.(li);
          bv_provenance = Option.map (fun vo -> provenance vo li) voters;
        })
  in
  (* restore the empty overlay slots and the all-zero [ever] for the
     next run: every written slot is on [touched], every [ever] entry
     is a member's *)
  List.iter
    (fun u ->
      t.ov_t1.(u) <- [||];
      t.ov_im.(u) <- [||];
      t.ov_ce.(u) <- [||];
      t.ov_qh.(u) <- [||];
      t.ov_ql.(u) <- [||];
      t.ov_reg.(u) <- [||];
      t.ov_rows.(u) <- [];
      t.radj.(u) <- [])
    !touched;
  if collect then
    for i = 0 to nm - 1 do
      Array.fill ever (gid.(i) * stride) stride 0
    done;
  verdicts
