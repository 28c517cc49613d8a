(* Bit-parallel batched differential fault simulation.

   Packs up to [width] faults into the lanes of 32-bit "possibility
   plane" words ({!Fsim_backend.Lanes}) and runs ONE event-driven cone
   evaluation over the union of the lanes' fanout cones against the
   shared baseline tape.  Each lane's effective circuit is the base
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
   cyclic SCC: a set of cut nodes meets every such cycle; when a group
   is dirty its cut lanes restart from X at the cuts, the sweeps settle
   the rest with the cut bits held, and re-evaluating the cuts and
   repeating until they stop moving is Kleene iteration on the cut
   values.  Node evaluation is monotone in the information order (X
   below Zero and One): Kleene LUT completion, [Logic.resolve], and the
   glitch rule, whose [last] values stay fixed within a cycle.  So
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
module Lanemask = Tmr_logic.Bitvec.Lanemask
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
  mutable h : int array;  (* value planes, node * stride + sub *)
  mutable l : int array;
  mutable lh : int array;  (* previous-cycle planes (glitch rule) *)
  mutable ll : int array;
  mutable qh : int array;  (* register state planes *)
  mutable ql : int array;
  mutable mark : Bytes.t;  (* '\001' = union-cone member *)
  mutable fmark : Bytes.t;  (* '\001' = frontier *)
  mutable dirty : int array;  (* per node: tick stamp *)
  mutable rdirty : int array;  (* per register: tick stamp *)
  mutable rstamp : int array;  (* per node: replay epoch stamp *)
  mutable order : int array;  (* members in topological order *)
  mutable pos : int array;  (* member -> topological index *)
  mutable indeg : int array;
  mutable queue : int array;
  mutable members : int array;
  mutable frontier : int array;
  mutable regs : int array;
  mutable tick : int;  (* monotone across runs *)
  mutable repoch : int;  (* monotone across replays *)
  mutable rv : Logic.t array;  (* replay overlay: value *)
  mutable rvl : Logic.t array;  (* replay overlay: last *)
  mutable rq : Logic.t array;  (* replay overlay: register state *)
  (* per-node overlay slots (base nodes + appended extras), empty
     between runs: each run clears the slots of the nodes it touched on
     the way out, as it does [dv] and [fz] *)
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
  mutable ovm : int array;
      (* node * stride + sub: lanes with a LUT overlay there (table,
         inversion or rewired row) *)
  (* kernel work of the last run *)
  mutable n_evals : int;
  mutable n_quiet : int;
  mutable n_splices : int;
  (* evaluation scratch *)
  phs : int array;  (* 4: per-pin H planes, inversion applied *)
  pls : int array;
  newh : int array;  (* stride: the value being built *)
  newl : int array;
  mutable resh : int array;  (* growable resolve-driver scratch *)
  mutable resl : int array;
  mutable reslh : int array;
  mutable resll : int array;
  (* divergence state, all-zero between runs (each run clears the
     entries of its own members on the way out) *)
  mutable dv : int array;  (* per node: lanes diverged from the tape *)
  mutable dvl : int array;  (* divergence as of the last boundary *)
  mutable dq : int array;  (* register-state divergence *)
  mutable dmark : Bytes.t;  (* '\001' = on [dlist] *)
  mutable dlist : int array;  (* nodes with a non-empty [dv] word *)
  mutable fz : int array;
      (* per node: lanes for which it is a Kleene cut (all-zero between
         runs, like [dv]) *)
  (* forensic provenance, sized by the first forensic run after a
     capacity change: [ever] (all-zero between runs, like [dv]) is the
     OR of every scanned cycle's divergence words; the per-lane BFS
     stamps [pv_seen] with a monotone epoch *)
  mutable ever : int array;
  mutable pv_seen : int array;
  mutable pv_depth : int array;
  mutable pv_epoch : int;
  (* tape-value broadcast memo, stamped by cycle; valid across runs
     while the worker keeps handing in the same tape *)
  tb_h : int array;
  tb_l : int array;
  tb_c : int array;
  tpb_h : int array;
  tpb_l : int array;
  tpb_c : int array;
  mutable last_tape : F.tape option;
  mutable last_cone : int array;  (* test hook *)
  mutable last_nm : int;
}

let ensure t n =
  if t.cap < n then begin
    let cap = max n (max 1024 (2 * t.cap)) in
    t.cap <- cap;
    let ps = cap * t.stride in
    t.h <- Array.make ps 0;
    t.l <- Array.make ps 0;
    t.lh <- Array.make ps 0;
    t.ll <- Array.make ps 0;
    t.qh <- Array.make ps 0;
    t.ql <- Array.make ps 0;
    t.mark <- Bytes.make cap '\000';
    t.fmark <- Bytes.make cap '\000';
    (* fresh stamps start at 0 < any live tick/epoch: never stale *)
    t.dirty <- Array.make cap 0;
    t.rdirty <- Array.make cap 0;
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
    t.dv <- Array.make ps 0;
    t.dvl <- Array.make ps 0;
    t.dq <- Array.make ps 0;
    t.dmark <- Bytes.make cap '\000';
    t.dlist <- Array.make (cap + 1) 0;
    t.fz <- Array.make ps 0;
    t.ov_t1 <- Array.make cap [||];
    t.ov_im <- Array.make cap [||];
    t.ov_ce <- Array.make cap [||];
    t.ov_qh <- Array.make cap [||];
    t.ov_ql <- Array.make cap [||];
    t.ov_reg <- Array.make cap [||];
    t.ov_rows <- Array.make cap [];
    t.radj <- Array.make cap [];
    t.ovm <- Array.make ps 0
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
      h = [||];
      l = [||];
      lh = [||];
      ll = [||];
      qh = [||];
      ql = [||];
      mark = Bytes.empty;
      fmark = Bytes.empty;
      dirty = [||];
      rdirty = [||];
      rstamp = [||];
      order = [||];
      pos = [||];
      indeg = [||];
      queue = [||];
      members = [||];
      frontier = [||];
      regs = [||];
      tick = 0;
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
      ovm = [||];
      n_evals = 0;
      n_quiet = 0;
      n_splices = 0;
      phs = Array.make 4 0;
      pls = Array.make 4 0;
      newh = Array.make stride 0;
      newl = Array.make stride 0;
      resh = [||];
      resl = [||];
      reslh = [||];
      resll = [||];
      dv = [||];
      dvl = [||];
      dq = [||];
      dmark = Bytes.empty;
      dlist = [||];
      fz = [||];
      ever = [||];
      pv_seen = [||];
      pv_depth = [||];
      pv_epoch = 0;
      tb_h = Array.make (max 1 bn) 0;
      tb_l = Array.make (max 1 bn) 0;
      tb_c = Array.make (max 1 bn) (-1);
      tpb_h = Array.make (max 1 bn) 0;
      tpb_l = Array.make (max 1 bn) 0;
      tpb_c = Array.make (max 1 bn) (-1);
      last_tape = None;
      last_cone = [||];
      last_nm = 0;
    }
  in
  ensure t (bn + 64);
  t

let csr t = (t.csr_off, t.csr_succ)
let bel_of t = t.bel_of
let last_cone t = Array.sub t.last_cone 0 t.last_nm

type work = { evals : int; quiet : int; splices : int }

let work t = { evals = t.n_evals; quiet = t.n_quiet; splices = t.n_splices }

(* Whether node [u] replaces the current first-divergence pick [f]
   ([-1] = none yet): smaller BFS depth from the seed set, then smaller
   node id. *)
let nearer_first depth u f =
  f < 0 || depth.(u) < depth.(f) || (depth.(u) = depth.(f) && u < f)

(* Index of the single set bit of [m] (an isolated power of two). *)
let rec bit_index m i = if m land 1 = 1 then i else bit_index (m lsr 1) (i + 1)

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
  t.n_quiet <- 0;
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
  let lut_overlay node sub m =
    let i = (node * stride) + sub in
    t.ovm.(i) <- t.ovm.(i) lor m;
    touch node
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
              done;
              lut_overlay node sub m
          | F.Cp_inv iv ->
              let a = im_of node in
              for j = 0 to 3 do
                set_lane a ((sub * 4) + j) m ((iv lsr j) land 1 = 1)
              done;
              lut_overlay node sub m
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
          lut_overlay node sub m;
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
     from the base.  They root the union cone, are woken every cycle,
     and drive the convergence replay, the replay veto and the
     provenance BFS. *)
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
     read its pins now.  A leftover is a cycle in the UNION graph; the
     nodes involved are appended at the end of the order and settled by
     extra evaluation sweeps, with Kleene iteration wherever a lane's
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
    else
      match List.assoc_opt u lane_rows.(li) with
      | Some r -> r
      | None -> v.F.v_inputs.(u)
  in
  let kahn_len = !ot in
  let have_backedges = !ot < nm in
  let scc_starts = ref [||] in
  (* per leftover SCC: its Kleene cut nodes ([t.fz] holds their lanes);
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
       suffix, and cross-SCC re-marks can only point forward.  Any
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
      let b = u * stride in
      let fresh = ref true in
      for s' = 0 to stride - 1 do
        if t.fz.(b + s') <> 0 then fresh := false
      done;
      if !fresh then begin
        let g = grp.(t.pos.(u) - kahn_len) in
        gc.(g) <- u :: gc.(g)
      end;
      t.fz.(b + s) <- t.fz.(b + s) lor m
    in
    (* Kleene cuts: a set of nodes meeting every cycle of every lane's
       own circuit.  With a lane's cut bits held fixed its circuit is
       acyclic, so the event-driven sweeps settle the rest to unique
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
  t.last_nm <- nm;
  t.last_cone <- Array.sub t.order 0 nm;
  (* undecided lanes; a decided lane leaves every divergence word *)
  let und = Lanemask.create nlanes in
  Lanemask.set_all und;
  let live = Array.init ns (Lanemask.word und) in
  (* ---- registers and frontier ---- *)
  let nregs = ref 0 in
  for i = 0 to nm - 1 do
    let u = t.members.(i) in
    if clocked u then begin
      t.regs.(!nregs) <- u;
      incr nregs
    end
  done;
  let nregs = !nregs in
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
  (* suspect watch indices: inside the union cone (a lane that remaps a
     position reads its own node there, checked per lane) *)
  let suspects = ref [] in
  Array.iteri
    (fun wi w ->
      if w >= 0 && w < bn && Bytes.get t.mark w <> '\000' then
        suspects := wi :: !suspects)
    watch;
  let suspects = Array.of_list (List.rev !suspects) in
  (* ---- divergence state (PROOFS-style difference simulation).
     Stored planes are meaningful only on the lanes recorded in the
     per-node divergence word [dv]; every other lane implicitly holds
     the tape value of the current cycle, so tape switching costs
     nothing — work is proportional to actual divergence, not to cone
     activity.  [dvl] is the divergence word as of the last boundary
     (glitch-rule reads), [dq] the register-state divergence against
     the next boundary's tape.  [mcnt] counts diverged base members
     per lane — the convergence test's "cone equals the tape" is then
     a zero check.  [dlist] is the active set: nodes with a non-empty
     divergence word, woken (with their readers) at each cycle start
     because their tape-following inputs may move. *)
  let h = t.h and l = t.l and lh = t.lh and ll = t.ll in
  let dv = t.dv and dvl = t.dvl and dq = t.dq in
  let mcnt = Array.make nlanes 0 in
  let dmark = t.dmark in
  let dlist = t.dlist in
  let ndl = ref 0 in
  let dpush u =
    if Bytes.get dmark u = '\000' then begin
      Bytes.set dmark u '\001';
      dlist.(!ndl) <- u;
      incr ndl
    end
  in
  let cur_c = ref 0 in
  (* extras exist only in their own lane's circuit: permanently
     diverged there (they have no tape value), implicitly X to every
     other lane *)
  for e = 0 to tot_extras - 1 do
    let u = bn + e in
    if Bytes.get t.mark u <> '\000' then begin
      let li = ext_lane.(e) in
      let w = 1 lsl (li land 31) in
      dv.((u * stride) + (li lsr 5)) <- w;
      dvl.((u * stride) + (li lsr 5)) <- w;
      dpush u
    end
  done;
  let tick0 = t.tick + 1 in
  t.tick <- tick0 + cycles + 2;
  (* lanes of sub [s] in which the clocked node [r] is a register: its
     state planes and [dq] mean nothing on the others *)
  let reg_w r s =
    let a = t.ov_reg.(r) in
    if Array.length a > 0 then a.(s) else fullw
  in
  for i = 0 to nregs - 1 do
    let r = t.regs.(i) in
    let b = r * stride in
    (if Array.length t.ov_qh.(r) > 0 then begin
       Array.blit t.ov_qh.(r) 0 t.qh b ns;
       Array.blit t.ov_ql.(r) 0 t.ql b ns
     end
     else
       let hh = Lanes.broadcast_h v.F.v_q_init.(r)
       and lw = Lanes.broadcast_l v.F.v_q_init.(r) in
       for s = 0 to ns - 1 do
         t.qh.(b + s) <- hh;
         t.ql.(b + s) <- lw
       done);
    (* initial register-state divergence (patched q-init, or a node
       the lane made registered) *)
    let tv = F.tape_get_u tape 0 r in
    let nz = ref false in
    for s = 0 to ns - 1 do
      let d =
        Lanes.mismatch ~h:t.qh.(b + s) ~l:t.ql.(b + s) tv
        land live.(s) land reg_w r s
      in
      dq.(b + s) <- d;
      if d <> 0 then nz := true
    done;
    if !nz then t.dirty.(r) <- tick0
  done;
  (* fault sites, deduplicated across lanes: woken every cycle —
     their patched logic computes from tape-following inputs, so
     divergence can (re)appear there at any cycle without any event *)
  let seed_nodes =
    let smark = Bytes.make nn '\000' in
    let acc = ref [] in
    Array.iter
      (List.iter (fun u ->
           if Bytes.get smark u = '\000' then begin
             Bytes.set smark u '\001';
             acc := u :: !acc
           end))
      lane_sseeds;
    Array.of_list !acc
  in
  let nseednodes = Array.length seed_nodes in
  (* ---- event scheme.
     [pu] is the marking node's topological position: marking a
     combinational member at or behind it is a union-graph back edge,
     so the current sweep must run again to settle it. ---- *)
  let sweep_again = ref false in
  let mark1 s tick pu =
    if Bytes.get t.mark s <> '\000' then begin
      let k = if s < bn then v.F.v_kind.(s) else F.kind_resolve in
      if k = F.kind_bel_reg && not (mixed s) then begin
        if t.rdirty.(s) < tick then t.rdirty.(s) <- tick
      end
      else begin
        (* a node of overridden kind re-latches in its register lanes
           and re-evaluates in its combinational ones *)
        if mixed s && t.rdirty.(s) < tick then t.rdirty.(s) <- tick;
        let tg = if k = F.kind_resolve then tick + 1 else tick in
        if t.dirty.(s) < tg then t.dirty.(s) <- tg;
        if t.pos.(s) <= pu then sweep_again := true
      end
    end
  in
  let rec mark_list l tick pu =
    match l with
    | [] -> ()
    | s :: tl ->
        mark1 s tick pu;
        mark_list tl tick pu
  in
  let mark_readers u tick ~pu =
    if u < bn then
      for e = t.csr_off.(u) to t.csr_off.(u + 1) - 1 do
        mark1 t.csr_succ.(e) tick pu
      done;
    mark_list t.radj.(u) tick pu
  in
  (* ---- per-lane effective circuit (row splices and replay) ---- *)
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
  (* single-lane reads (scalar splice paths and replay): an
     undiverged lane holds the tape value implicitly *)
  let lane_v p sub bit =
    let bp = (p * stride) + sub in
    if dv.(bp) land (1 lsl bit) <> 0 then Lanes.lane ~h:h.(bp) ~l:l.(bp) bit
    else if p < bn then F.tape_get_u tape !cur_c p
    else Logic.X
  in
  let lane_lv p sub bit =
    let bp = (p * stride) + sub in
    if dvl.(bp) land (1 lsl bit) <> 0 then
      Lanes.lane ~h:lh.(bp) ~l:ll.(bp) bit
    else if p < bn && !cur_c > 0 then F.tape_get_u tape (!cur_c - 1) p
    else Logic.X
  in
  let splice vv sub bit =
    let m = 1 lsl bit in
    t.newh.(sub) <-
      t.newh.(sub) land lnot m lor (Lanes.broadcast_h vv land m);
    t.newl.(sub) <-
      t.newl.(sub) land lnot m lor (Lanes.broadcast_l vv land m)
  in
  let scalar_resolve row sub bit =
    let n = Array.length row in
    if n = 0 then Logic.X
    else begin
      let vr = ref (lane_v row.(0) sub bit) in
      for i = 1 to n - 1 do
        vr := Logic.resolve !vr (lane_v row.(i) sub bit)
      done;
      match !vr with
      | Logic.X -> Logic.X
      | (Logic.Zero | Logic.One) as sv ->
          let g = ref false in
          for i = 0 to n - 1 do
            if not (Logic.equal (lane_lv row.(i) sub bit) sv) then g := true
          done;
          if !g then Logic.X else sv
    end
  in
  (* tape-value broadcast planes, memoized per node per cycle: every
     undiverged lane of [p] reads the same tape bit, and a node is
     read by several members within one cycle.  The memo survives
     across runs as long as the worker keeps the same tape. *)
  (match t.last_tape with
  | Some tp when tp == tape -> ()
  | _ ->
      Array.fill t.tb_c 0 bn (-1);
      Array.fill t.tpb_c 0 bn (-1);
      t.last_tape <- Some tape);
  let tb_h = t.tb_h and tb_l = t.tb_l and tb_c = t.tb_c in
  let tape_bcast p =
    if tb_c.(p) <> !cur_c then begin
      let tv = F.tape_get_u tape !cur_c p in
      tb_h.(p) <- Lanes.broadcast_h tv;
      tb_l.(p) <- Lanes.broadcast_l tv;
      tb_c.(p) <- !cur_c
    end
  in
  let tpb_h = t.tpb_h and tpb_l = t.tpb_l and tpb_c = t.tpb_c in
  let tape_bcast_prev p =
    (* caller guarantees [!cur_c > 0] *)
    if tpb_c.(p) <> !cur_c then begin
      let tv = F.tape_get_u tape (!cur_c - 1) p in
      tpb_h.(p) <- Lanes.broadcast_h tv;
      tpb_l.(p) <- Lanes.broadcast_l tv;
      tpb_c.(p) <- !cur_c
    end
  in
  (* ---- the evaluation kernel: every result lands in newh/newl, one
     plane word pair per sub-word ---- *)
  let phs = t.phs and pls = t.pls and newh = t.newh and newl = t.newl in
  (* lanes reading pin [j] inverted: the per-lane masks [ima] when some
     lane patched them, else the base inversion bits [inv] *)
  let pin_im ima inv s j =
    if Array.length ima > 0 then ima.((s * 4) + j)
    else if (inv lsr j) land 1 = 1 then fullw
    else 0
  in
  (* pin words of sub [s] over the base row, inversion applied: an
     undiverged lane reads the tape's value *)
  let base_pins row inv ima s =
    for j = 0 to 3 do
      let p = row.(j) in
      if p < 0 then begin
        phs.(j) <- 0;
        pls.(j) <- fullw
      end
      else begin
        let bp = (p * stride) + s in
        let d = dv.(bp) in
        let ph =
          if d = fullw then h.(bp)
          else begin
            tape_bcast p;
            if d = 0 then tb_h.(p)
            else h.(bp) land d lor (tb_h.(p) land lnot d)
          end
        in
        let pl =
          if d = fullw then l.(bp)
          else if d = 0 then tb_l.(p)
          else l.(bp) land d lor (tb_l.(p) land lnot d)
        in
        let im = pin_im ima inv s j in
        phs.(j) <- Lanes.pin_h ~h:ph ~l:pl ~im ~unused:0;
        pls.(j) <- Lanes.pin_l ~h:ph ~l:pl ~im ~unused:0
      end
    done
  in
  (* a lane that rewired this LUT's row reads its own pins: gather that
     lane's pin bits (its own inversion bit applied; an unused pin is
     constant Zero) into the pin words *)
  let rec gather_rows rows ima inv s =
    match rows with
    | [] -> ()
    | (li, rrow) :: tl ->
        if li lsr 5 = s then begin
          let m = 1 lsl (li land 31) in
          for j = 0 to 3 do
            let p = rrow.(j) in
            let own = p >= 0 && dv.((p * stride) + s) land m <> 0 in
            if p >= 0 && p < bn && not own then tape_bcast p;
            let bp = (p * stride) + s in
            let sh =
              if p < 0 then 0
              else if own then h.(bp)
              else if p < bn then tb_h.(p)
              else fullw
            in
            let sl =
              if p < 0 then fullw
              else if own then l.(bp)
              else if p < bn then tb_l.(p)
              else fullw
            in
            let im = pin_im ima inv s j in
            let unused = if p < 0 then m else 0 in
            phs.(j) <-
              phs.(j) land lnot m
              lor (Lanes.pin_h ~h:sh ~l:sl ~im ~unused land m);
            pls.(j) <-
              pls.(j) land lnot m
              lor (Lanes.pin_l ~h:sh ~l:sl ~im ~unused land m)
          done
        end;
        gather_rows tl ima inv s
  in
  (* sub-word [s] of LUT node [u] (a combinational bel, or a register's
     next-state function): pins gathered, then one word-parallel LUT
     over the base table or the per-lane leaves *)
  let lut_sub u s =
    let inv = v.F.v_inv.(u) and ima = t.ov_im.(u) in
    base_pins v.F.v_inputs.(u) inv ima s;
    (match t.ov_rows.(u) with
    | [] -> ()
    | rows -> gather_rows rows ima inv s);
    let leaves = t.ov_t1.(u) in
    if Array.length leaves > 0 then
      Lanes.lut_leaves ~ph:phs ~pl:pls ~leaves ~at:(s * 16) ~dh:newh ~dl:newl s
    else
      Lanes.lut_table ~ph:phs ~pl:pls ~table:v.F.v_table.(u) ~dh:newh
        ~dl:newl s;
    t.n_evals <- t.n_evals + 1
  in
  let comb_planes u =
    for s = 0 to ns - 1 do
      lut_sub u s
    done
  in
  let undiverged p s = p < 0 || dv.((p * stride) + s) = 0 in
  (* A quiet sub-word — no lane with an overlay at [u], no diverged lane
     on any input — equals the tape on every lane: the tape is the
     settled fixpoint tape(u) = LUT(tape(inputs)) of the base circuit.
     (Only on the evaluation path: a register's next state at the clock
     reads this cycle's values against the next cycle's tape.)  False
     when the commit would be a no-op: every sub-word quiet and no lane
     diverged at [u]. *)
  let comb_eval u =
    let row = v.F.v_inputs.(u) in
    let b = u * stride in
    let moves = ref false in
    for s = 0 to ns - 1 do
      if
        t.ovm.(b + s) = 0
        && undiverged row.(0) s
        && undiverged row.(1) s
        && undiverged row.(2) s
        && undiverged row.(3) s
      then begin
        tape_bcast u;
        newh.(s) <- tb_h.(u);
        newl.(s) <- tb_l.(u);
        if dv.(b + s) <> 0 then moves := true;
        t.n_quiet <- t.n_quiet + 1
      end
      else begin
        lut_sub u s;
        moves := true
      end
    done;
    !moves
  in
  let rec splice_resolve_rows rows =
    match rows with
    | [] -> ()
    | (li, rrow) :: tl ->
        let sub = li lsr 5 and bit = li land 31 in
        splice (scalar_resolve rrow sub bit) sub bit;
        t.n_splices <- t.n_splices + 1;
        splice_resolve_rows tl
  in
  let res_planes u =
    let row = v.F.v_inputs.(u) in
    let n = Array.length row in
    res_ensure t n;
    for s = 0 to ns - 1 do
      for i = 0 to n - 1 do
        let p = row.(i) in
        let bp = (p * stride) + s in
        let d = dv.(bp) and dl = dvl.(bp) in
        (if d = fullw then begin
           t.resh.(i) <- h.(bp);
           t.resl.(i) <- l.(bp)
         end
         else begin
           tape_bcast p;
           if d = 0 then begin
             t.resh.(i) <- tb_h.(p);
             t.resl.(i) <- tb_l.(p)
           end
           else begin
             t.resh.(i) <- h.(bp) land d lor (tb_h.(p) land lnot d);
             t.resl.(i) <- l.(bp) land d lor (tb_l.(p) land lnot d)
           end
         end);
        if dl = fullw then begin
          t.reslh.(i) <- lh.(bp);
          t.resll.(i) <- ll.(bp)
        end
        else if !cur_c > 0 then begin
          tape_bcast_prev p;
          if dl = 0 then begin
            t.reslh.(i) <- tpb_h.(p);
            t.resll.(i) <- tpb_l.(p)
          end
          else begin
            t.reslh.(i) <- lh.(bp) land dl lor (tpb_h.(p) land lnot dl);
            t.resll.(i) <- ll.(bp) land dl lor (tpb_l.(p) land lnot dl)
          end
        end
        else begin
          t.reslh.(i) <- lh.(bp) land dl lor (fullw land lnot dl);
          t.resll.(i) <- ll.(bp) land dl lor (fullw land lnot dl)
        end
      done;
      Lanes.resolve_planes ~n ~h:t.resh ~l:t.resl ~lh:t.reslh ~ll:t.resll
        ~dh:newh ~dl:newl s;
      t.n_evals <- t.n_evals + 1
    done;
    splice_resolve_rows t.ov_rows.(u)
  in
  let extra_planes u =
    let li = ext_lane.(u - bn) in
    let sub = li lsr 5 and bit = li land 31 in
    for s = 0 to ns - 1 do
      t.newh.(s) <- fullw;
      t.newl.(s) <- fullw
    done;
    splice (scalar_resolve ext_row.(u - bn) sub bit) sub bit;
    t.n_splices <- t.n_splices + 1
  in
  (* nodes whose value planes changed this cycle: only those need
     their previous-cycle (glitch-rule) planes refreshed at the
     boundary, instead of copying the whole union cone every cycle *)
  let chmark = Bytes.make nn '\000' in
  let chlist = Array.make (nm + nfrontier + 1) 0 in
  let nch = ref 0 in
  let note_changed u =
    if Bytes.get chmark u = '\000' then begin
      Bytes.set chmark u '\001';
      chlist.(!nch) <- u;
      incr nch
    end
  in
  (* a base node's divergence word [s] moves from [od] to [nd] *)
  let retag u s od nd =
    dv.((u * stride) + s) <- nd;
    if nd <> 0 then dpush u;
    let m = ref (nd lxor od) in
    while !m <> 0 do
      let lsb = !m land - !m in
      let li = (s * 32) + bit_index lsb 0 in
      if nd land lsb <> 0 then mcnt.(li) <- mcnt.(li) + 1
      else mcnt.(li) <- mcnt.(li) - 1;
      m := !m land (!m - 1)
    done
  in
  (* while [freeze] is set, the cut lanes of a Kleene cut node keep
     their value: the commit leaves those bits as they are *)
  let freeze = ref false in
  let nobs = ref 0 in
  let commit u tick =
    let b = u * stride in
    let obs = ref false in
    let fz = t.fz in
    (if u >= bn then
       (* extras: divergence word is fixed (own lane); decided lanes
          are masked out *)
       for s = 0 to ns - 1 do
         let f = if !freeze then fz.(b + s) else 0 in
         let nh = t.newh.(s) land lnot f lor (h.(b + s) land f)
         and nl = t.newl.(s) land lnot f lor (l.(b + s) land f) in
         let dw =
           ((h.(b + s) lxor nh) lor (l.(b + s) lxor nl)) land live.(s)
         in
         if dw <> 0 then begin
           obs := true;
           h.(b + s) <- nh;
           l.(b + s) <- nl
         end
       done
     else begin
       tape_bcast u;
       let th = tb_h.(u) and tl = tb_l.(u) in
       for s = 0 to ns - 1 do
         let f = if !freeze then fz.(b + s) else 0 in
         let nh = t.newh.(s) land lnot f lor (h.(b + s) land f)
         and nl = t.newl.(s) land lnot f lor (l.(b + s) land f) in
         let od = dv.(b + s) in
         let nd =
           ((nh lxor th) lor (nl lxor tl)) land live.(s) land lnot f
           lor (od land f)
         in
         (* observable to readers: a lane entering/leaving divergence,
            or a value change on a diverged lane — undiverged lanes
            are read from the tape, so their stored bits don't matter *)
         let dw = ((h.(b + s) lxor nh) lor (l.(b + s) lxor nl)) land nd in
         if nd <> od || dw <> 0 then begin
           obs := true;
           h.(b + s) <- nh;
           l.(b + s) <- nl;
           if nd <> od then retag u s od nd
         end
       done
     end);
    if !obs then begin
      incr nobs;
      note_changed u;
      mark_readers u tick ~pu:t.pos.(u)
    end
  in
  let eval_member u tick =
    if t.dirty.(u) >= tick then begin
      (* consume the event so extra sweeps only revisit re-marked
         nodes; a tick+1 stamp (resolve next-cycle rule) survives *)
      if t.dirty.(u) = tick then t.dirty.(u) <- tick - 1;
      if u >= bn then begin
        extra_planes u;
        commit u tick
      end
      else begin
        let k = v.F.v_kind.(u) in
        if mixed u then begin
          (* the LUT in the combinational lanes, the state in the
             registered ones *)
          comb_planes u;
          let b = u * stride in
          let tv = F.tape_get_u tape !cur_c u in
          let bh = Lanes.broadcast_h tv and bl = Lanes.broadcast_l tv in
          let ra = t.ov_reg.(u) in
          for s = 0 to ns - 1 do
            let r = ra.(s) and d = dq.(b + s) in
            let qh = (t.qh.(b + s) land d) lor (bh land lnot d)
            and ql = (t.ql.(b + s) land d) lor (bl land lnot d) in
            t.newh.(s) <- t.newh.(s) land lnot r lor (qh land r);
            t.newl.(s) <- t.newl.(s) land lnot r lor (ql land r)
          done;
          commit u tick
        end
        else if k = F.kind_bel_reg then begin
          let b = u * stride in
          let tv = F.tape_get_u tape !cur_c u in
          let bh = Lanes.broadcast_h tv and bl = Lanes.broadcast_l tv in
          for s = 0 to ns - 1 do
            let d = dq.(b + s) in
            t.newh.(s) <- (t.qh.(b + s) land d) lor (bh land lnot d);
            t.newl.(s) <- (t.ql.(b + s) land d) lor (bl land lnot d)
          done;
          commit u tick
        end
        else if k = F.kind_bel_comb then begin
          if comb_eval u then commit u tick
        end
        else if k = F.kind_resolve then begin
          res_planes u;
          commit u tick
        end
      end
    end
  in
  (* ---- per-lane convergence replay over the lane's effective
     circuit ---- *)
  let replay_converges li c =
    t.repoch <- t.repoch + 1;
    let ep = t.repoch in
    let seeds = lane_seed_arr.(li) in
    let nseeds = Array.length seeds in
    let sub = li lsr 5 and bit = li land 31 in
    for i = 0 to nseeds - 1 do
      let s0 = seeds.(i) in
      t.rstamp.(s0) <- ep;
      t.rv.(s0) <- lane_v s0 sub bit;
      t.rvl.(s0) <- lane_lv s0 sub bit;
      if s0 < bn && lane_reg li s0 then
        t.rq.(s0) <-
          (if dq.((s0 * stride) + sub) land (1 lsl bit) <> 0 then
             Lanes.lane
               ~h:t.qh.((s0 * stride) + sub)
               ~l:t.ql.((s0 * stride) + sub)
               bit
           else F.tape_get_u tape (c + 1) s0)
    done;
    let getv cy p =
      if t.rstamp.(p) = ep then t.rv.(p) else F.tape_get_u tape cy p
    in
    let getl cy p =
      if t.rstamp.(p) = ep then t.rvl.(p) else F.tape_get_u tape (cy - 1) p
    in
    let eff_row u =
      if u >= bn then ext_row.(u - bn)
      else
        match List.assoc_opt u lane_rows.(li) with
        | Some r -> r
        | None -> v.F.v_inputs.(u)
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
  (* a decided lane (watch error or confirmed convergence) no longer
     needs simulating: drop it from the live mask and scrub its
     divergence bits, so the active set shrinks as verdicts land
     instead of dragging every decided lane's divergence to the last
     cycle *)
  let purge_lane li =
    let s = li lsr 5 in
    let m = 1 lsl (li land 31) in
    live.(s) <- live.(s) land lnot m;
    for i = 0 to !ndl - 1 do
      let b = (dlist.(i) * stride) + s in
      dv.(b) <- dv.(b) land lnot m
    done;
    for i = 0 to nregs - 1 do
      let b = (t.regs.(i) * stride) + s in
      dq.(b) <- dq.(b) land lnot m
    done
  in
  (* ---- the per-cycle loop ---- *)
  let err_cy = Array.make nlanes (-1) in
  let conv_cy = Array.make nlanes (-1) in
  let det_cy = Array.make nlanes (-1) in
  (* a watch mismatch of lane [li] at position [wi]: functional entries
     ([wi < nfunc]) record the first error, trailing detection entries
     the first disagreement flag.  The lane is decided — and leaves the
     batch — once its functional verdict landed and no detection
     verdict is still pending; with [ndetect = 0] it retires on its
     first error *)
  let note_watch li wi c =
    (if wi < nfunc then begin
       if err_cy.(li) < 0 then err_cy.(li) <- c
     end
     else if det_cy.(li) < 0 then det_cy.(li) <- c);
    if err_cy.(li) >= 0 && (ndetect = 0 || det_cy.(li) >= 0) then begin
      Lanemask.clear und li;
      purge_lane li
    end
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
  (* forensic scan state: [fresh] holds the lanes with no divergence
     yet, [first_cy]/[first_nodes] what each lane diverged at first *)
  let collect = voters <> None in
  let ever = t.ever in
  let fresh = Array.init ns (Lanemask.word und) in
  let hit = Array.make ns 0 in
  let first_cy = Array.make nlanes (-1) in
  let first_nodes = Array.make nlanes [] in
  let scan_divergence c =
    for i = 0 to !ndl - 1 do
      let u = dlist.(i) in
      if u < bn then begin
        let b = u * stride in
        for s = 0 to ns - 1 do
          let w = dv.(b + s) land Lanemask.word und s in
          if w <> 0 then begin
            ever.(b + s) <- ever.(b + s) lor w;
            let m = ref (w land fresh.(s)) in
            hit.(s) <- hit.(s) lor !m;
            while !m <> 0 do
              let lsb = !m land - !m in
              let li = (s * 32) + bit_index lsb 0 in
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
        first_cy.((s * 32) + bit_index lsb 0) <- c;
        m := !m land (!m - 1)
      done;
      fresh.(s) <- fresh.(s) land lnot hit.(s);
      hit.(s) <- 0
    done
  in
  let starts = !scc_starts in
  let nscc = Array.length starts in
  (* a Kleene cut restarts its cut lanes from X: an effective change
     (the lane did not already read X there) schedules the readers *)
  let reset_cut u tick =
    let b = u * stride in
    let tv = if u < bn then F.tape_get_u tape !cur_c u else Logic.X in
    let tx = if Logic.equal tv Logic.X then fullw else 0 in
    let moved = ref false in
    for s = 0 to ns - 1 do
      let m = t.fz.(b + s) land live.(s) in
      if m <> 0 then begin
        let od = if u < bn then dv.(b + s) else fullw in
        let was_x = h.(b + s) land l.(b + s) land od lor (tx land lnot od) in
        let ch = m land lnot was_x in
        if ch <> 0 then begin
          moved := true;
          h.(b + s) <- h.(b + s) lor ch;
          l.(b + s) <- l.(b + s) lor ch;
          if u < bn then retag u s od (od land lnot ch lor (ch land lnot tx))
        end
      end
    done;
    if !moved then begin
      note_changed u;
      mark_readers u tick ~pu:t.pos.(u)
    end
  in
  let cy = ref 0 in
  while (not (Lanemask.is_empty und)) && !cy < cycles do
    let c = !cy in
    let tick = tick0 + c in
    cur_c := c;
    (* wake the active set.  Fault sites recompute every cycle: their
       patched logic can diverge from the moving tape at any time
       without an upstream event (a fault-site register also clocks
       every cycle — a patched clock-enable or rerouted D input makes
       its state drift with no divergence event on the D cone) *)
    for i = 0 to nseednodes - 1 do
      let u = seed_nodes.(i) in
      if clocked u && t.rdirty.(u) < tick then t.rdirty.(u) <- tick;
      if t.dirty.(u) < tick then t.dirty.(u) <- tick
    done;
    (* diverged nodes and their readers recompute too: their
       tape-following inputs move under them (the list self-compacts
       as divergence words empty out) *)
    let j = ref 0 in
    for i = 0 to !ndl - 1 do
      let u = dlist.(i) in
      let b = u * stride in
      let nz = ref false in
      for s = 0 to ns - 1 do
        if dv.(b + s) <> 0 then nz := true
      done;
      if !nz then begin
        dlist.(!j) <- u;
        incr j;
        if t.dirty.(u) < tick then t.dirty.(u) <- tick;
        mark_readers u tick ~pu:(-1)
      end
      else Bytes.set dmark u '\000'
    done;
    ndl := !j;
    (* event-driven evaluation: the Kahn prefix in topological order
       (never re-marked behind the scan), then each leftover SCC
       iterated to its fixpoint — union-graph back edges live inside
       an SCC, and cross-SCC marks only point forward.  A lane acyclic
       in the SCC settles to its unique values from any start.  In an
       SCC with Kleene cuts, a dirty member restarts the cut lanes from
       X at the cuts, the sweeps settle everything else with the cuts
       held, then the cuts are re-evaluated; rounds repeat until the
       cuts stop moving *)
    for i = 0 to kahn_len - 1 do
      eval_member t.order.(i) tick
    done;
    for g = 0 to nscc - 1 do
      let s0 = starts.(g) in
      let s1 = if g + 1 < nscc then starts.(g + 1) else nm in
      let cuts = gcuts.(g) in
      let kleene = ref false in
      if cuts <> [] then
        for i = s0 to s1 - 1 do
          if t.dirty.(t.order.(i)) >= tick then kleene := true
        done;
      if !kleene then List.iter (fun u -> reset_cut u tick) cuts;
      freeze := !kleene;
      (* each round raises some cut value (monotone from X), each sweep
         settles a cut-free acyclic graph: at most n + 1 of each *)
      let rounds = ref (s1 - s0 + 1) in
      let settled = ref false in
      while not !settled do
        if !rounds = 0 then
          failwith "Fsim_batch.run: Kleene rounds exceeded the n+1 bound";
        decr rounds;
        let budget = ref (s1 - s0 + 1) in
        sweep_again := true;
        while !sweep_again do
          if !budget = 0 then
            failwith "Fsim_batch.run: SCC sweeps exceeded the n+1 bound";
          decr budget;
          sweep_again := false;
          for i = s0 to s1 - 1 do
            eval_member t.order.(i) tick
          done
        done;
        settled := true;
        if !kleene then begin
          freeze := false;
          let before = !nobs in
          List.iter
            (fun u ->
              if t.dirty.(u) < tick then t.dirty.(u) <- tick;
              eval_member u tick)
            cuts;
          freeze := true;
          if !nobs <> before then settled := false
        end
      done;
      freeze := false
    done;
    (* forensic divergence scan: the settled cycle, before decided
       lanes leave the batch *)
    if collect then scan_divergence c;
    (* watched-output check, before the clock *)
    let exp = expected.(c) in
    for si = 0 to Array.length suspects - 1 do
      let wi = suspects.(si) in
      let w = watch.(wi) in
      let b = w * stride in
      let ev = exp.(wi) in
      let tv = F.tape_get_u tape c w in
      let bm =
        Lanes.mismatch ~h:(Lanes.broadcast_h tv) ~l:(Lanes.broadcast_l tv)
          ev
      in
      for s = 0 to ns - 1 do
        let d = dv.(b + s) in
        let mism =
          ((Lanes.mismatch ~h:h.(b + s) ~l:l.(b + s) ev land d)
          lor (bm land lnot d))
          land Lanemask.word und s
          land lnot wmask.((wi * ns) + s)
        in
        if mism <> 0 then begin
          let m = ref mism in
          while !m <> 0 do
            let lsb = !m land - !m in
            note_watch ((s * 32) + bit_index lsb 0) wi c;
            m := !m land (!m - 1)
          done
        end
      done
    done;
    (* remapped positions: the lane's own node, diverged or on the tape *)
    Array.iteri
      (fun li ws ->
        List.iter
          (fun (wi, node) ->
            if
              Lanemask.get und li
              && not
                   (Logic.equal
                      (lane_v node (li lsr 5) (li land 31))
                      exp.(wi))
            then note_watch li wi c)
          ws)
      lane_watch;
    (* clock the cone registers.  A register clocks when divergence
       events reached its D cone ([rdirty]) or its state is already
       diverged ([dq], it may converge back); otherwise its next state
       tracks the tape exactly and no work is needed — the stored q
       planes go stale on undiverged lanes, which is fine because
       every read blends them through [dq].  The last cycle's next
       state is never read, so the clock is skipped entirely.  A node
       whose kind some lane overrides clocks in its register lanes
       only, and never skips as frozen: where its base kind is
       combinational, the tape it is compared against moves. *)
    if c < cycles - 1 then
      for i = 0 to nregs - 1 do
        let r = t.regs.(i) in
        let b = r * stride in
        let dqnz = ref false in
        for s = 0 to ns - 1 do
          if dq.(b + s) <> 0 then dqnz := true
        done;
        if t.rdirty.(r) >= tick || !dqnz then begin
          let fza = t.ov_ce.(r) in
          let basefz = v.F.v_ce_frozen.(r) in
          if mixed r || not (basefz && Array.length fza = 0) then begin
            comb_planes r;
            let tvq = F.tape_get_u tape c r in
            let tvn = F.tape_get_u tape (c + 1) r in
            let kh = Lanes.broadcast_h tvq and kl = Lanes.broadcast_l tvq in
            let mark = ref false in
            for s = 0 to ns - 1 do
              let fzw =
                if Array.length fza > 0 then fza.(s)
                else if basefz then fullw
                else 0
              in
              let od = dq.(b + s) in
              (* a frozen lane keeps its current state: stored planes
                 where diverged, the tape's value where not *)
              let keep_h = t.qh.(b + s) land od lor (kh land lnot od) in
              let keep_l = t.ql.(b + s) land od lor (kl land lnot od) in
              let nh = t.newh.(s) land lnot fzw lor (keep_h land fzw) in
              let nl = t.newl.(s) land lnot fzw lor (keep_l land fzw) in
              let nd =
                Lanes.mismatch ~h:nh ~l:nl tvn land live.(s) land reg_w r s
              in
              t.qh.(b + s) <- nh;
              t.ql.(b + s) <- nl;
              if nd <> 0 || od <> 0 then mark := true;
              dq.(b + s) <- nd
            done;
            if !mark && t.dirty.(r) < tick + 1 then t.dirty.(r) <- tick + 1
          end
        end
      done;
    (* previous-cycle planes and divergence words for the glitch
       rule: only nodes that committed this cycle can differ from
       their boundary copy *)
    for i = 0 to !nch - 1 do
      let u = chlist.(i) in
      Bytes.set chmark u '\000';
      let b = u * stride in
      for s = 0 to ns - 1 do
        lh.(b + s) <- h.(b + s);
        ll.(b + s) <- l.(b + s);
        dvl.(b + s) <- dv.(b + s)
      done
    done;
    nch := 0;
    (* per-lane convergence early-exit: a candidate lane has no
       diverged member ([mcnt]) and no diverged register state
       ([dq]); the seed replay then confirms it.  A lane with a seed on
       a cycle never converges early *)
    if c < cycles - 1 && not (Lanemask.is_empty und) then begin
      let cand = Array.init ns (fun s -> Lanemask.word und s) in
      for li = 0 to nlanes - 1 do
        if mcnt.(li) <> 0 || noreplay.(li) then
          cand.(li lsr 5) <- cand.(li lsr 5) land lnot (1 lsl (li land 31))
      done;
      let nonzero = ref false in
      for s = 0 to ns - 1 do
        if cand.(s) <> 0 then nonzero := true
      done;
      let i = ref 0 in
      while !nonzero && !i < nregs do
        let r = t.regs.(!i) in
        let b = r * stride in
        nonzero := false;
        for s = 0 to ns - 1 do
          cand.(s) <- cand.(s) land lnot dq.(b + s);
          if cand.(s) <> 0 then nonzero := true
        done;
        incr i
      done;
      if !nonzero then
        for s = 0 to ns - 1 do
          let m = ref cand.(s) in
          while !m <> 0 do
            let lsb = !m land - !m in
            m := !m land (!m - 1);
            let li = (s * 32) + bit_index lsb 0 in
            if replay_converges li c then begin
              conv_cy.(li) <- c;
              Lanemask.clear und li;
              purge_lane li;
              scan_remaps li c
            end
          done
        done
    end;
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
  (* restore the all-zero divergence and cut invariants and the empty
     overlay slots for the next run: every touched
     [dv]/[dvl]/[dq]/[ever]/[dmark]/[fz] entry is a member's, every
     written slot is on [touched] *)
  List.iter
    (fun u ->
      t.ov_t1.(u) <- [||];
      t.ov_im.(u) <- [||];
      t.ov_ce.(u) <- [||];
      t.ov_qh.(u) <- [||];
      t.ov_ql.(u) <- [||];
      t.ov_reg.(u) <- [||];
      t.ov_rows.(u) <- [];
      t.radj.(u) <- [];
      Array.fill t.ovm (u * stride) stride 0)
    !touched;
  Array.iter
    (List.iter (fun u -> Array.fill t.fz (u * stride) stride 0))
    gcuts;
  for i = 0 to nm - 1 do
    let u = t.members.(i) in
    Bytes.set dmark u '\000';
    let b = u * stride in
    for s = 0 to stride - 1 do
      dv.(b + s) <- 0;
      dvl.(b + s) <- 0;
      dq.(b + s) <- 0
    done;
    if collect then
      for s = 0 to stride - 1 do
        ever.(b + s) <- 0
      done
  done;
  verdicts

