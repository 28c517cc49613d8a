(* Bit-parallel batched differential fault simulation.

   Packs up to [width] faults into the lanes of one pair of
   "possibility plane" words per node ({!Fsim_backend.Lanes}) and runs
   ONE dense evaluation of
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
   evaluation.  A rewired resolve row or an appended resolve node is
   resolved word-parallel over that lane's row and blended in on that
   lane's bit alone.  A
   kind override (out_sel) makes a node registered in some lanes and
   combinational in others: it is evaluated both ways and blended by
   lane, and clocked in its register lanes.  A remapped watch position
   is read from the lane's own node.

   Verdicts are exact fault by fault: the per-cycle plane values of a
   lane equal the values a simulator of that fault's circuit computes
   (the union cone is a closed superset of each lane's own cone, and
   nodes a fault does not reach reproduce the tape exactly), the
   watched-output check runs at the same point of the cycle as a full
   replay, and a lane runs until its verdict is in (its first watch
   error, plus its detection flag when the design has one) or to the
   last cycle.  Only a batch whose lanes are all decided ends early.

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
   value [Fsim.eval] on a rebuilt simulator computes.

   With forensics requested, each lane also gets its divergence
   provenance ({!F.provenance}): a per-cycle word-parallel fold of the
   divergence words into [ever], and once per lane after the run a BFS
   over that lane's own effective graph for the cone, the depths and
   the voter check.  Exact for the same reason the verdicts are: a
   lane's divergence bits are the nodes where its circuit left the
   baseline, cycle by cycle. *)

module Logic = Tmr_logic.Logic
module Lanes = Fsim_backend.Lanes
module F = Fsim

type verdict = {
  bv_error_cycle : int;
  bv_detect_cycle : int;
  bv_provenance : F.provenance option;
}

type t = {
  base : F.t;
  view : F.view;
  csr_off : int array;
  csr_succ : int array;
  bel_of : int array;
  cyc_node : Bytes.t;  (* per base node: in a cyclic SCC *)
  base_pos : int array;  (* per base node: base evaluation-order index *)
  (* capacity-managed per-node state (base nodes + appended extras) *)
  mutable cap : int;
  mutable mark : Bytes.t;  (* '\001' = union-cone member *)
  mutable fmark : Bytes.t;  (* '\001' = frontier *)
  mutable order : int array;  (* members in evaluation order *)
  mutable pos : int array;  (* member or frontier node -> local index *)
  mutable indeg : int array;
  mutable queue : int array;
  mutable members : int array;
  mutable frontier : int array;
  mutable regs : int array;  (* clocked members, local indices *)
  (* per-node overlay slots (base nodes + appended extras), empty
     between runs: each run clears the slots of the nodes it touched on
     the way out *)
  mutable ov_t1 : int array array;
      (* per-lane truth tables: 16 leaf words, one per minterm; [||] =
         the base table in every lane *)
  mutable ov_im : int array array;  (* inversion masks, one per pin *)
  mutable ov_set : Bytes.t;
      (* which of the words below hold an overlay: [f_ce], [f_qi],
         [f_reg] bits; unset = the base value in every lane *)
  mutable ov_ce : int array;  (* clock-enable-frozen lanes *)
  mutable ov_qh : int array;  (* flip-flop init planes *)
  mutable ov_ql : int array;
  mutable ov_reg : int array;  (* registered lanes *)
  mutable ov_rows : (int * int array) list array;  (* (lane, rewired row) *)
  mutable radj : int list array;  (* overlay readers *)
  (* the compiled program of one run, over local indices: member [i] of
     the evaluation order is local [i], the frontier follows, and the
     last local is a constant Zero that unused LUT pins read.  Plane
     arrays hold one word per local, full-valued on every lane. *)
  mutable gid : int array;  (* local -> node *)
  mutable kd : int array;  (* per member: evaluation kind, [k_*] *)
  mutable pin : int array;  (* per member: its 4 pins' locals *)
  mutable tbl : int array;
      (* per member: the base truth table with the base pin inversion
         folded in *)
  mutable lov : Bytes.t;  (* per member: '\001' = LUT overlay lanes *)
  mutable lrows : (int * int array) list array;
      (* per resolve member: (lane, rewired row over local indices) *)
  mutable gof : int array;  (* per LUT member: rewired-pin offsets *)
  mutable gat : int array;
      (* rewired LUT pins, three words each: pin, the local node the
         lanes read there ([-1] = unused), the lanes *)
  mutable roff : int array;  (* per member: resolve row offsets *)
  mutable rins : int array;  (* resolve rows over local indices *)
  mutable bk : int array;
      (* per member of a union SCC: the lowest reader at or before it
         in its group (a back edge), [max_int] = none *)
  mutable bkm : int array;
      (* per member: the lanes of its back edges (a rewired row or an
         appended node reads it in one lane, a base row in all) *)
  mutable fw : int array;
      (* per member of a union SCC: the highest reader after it in its
         group, [-1] = none *)
  mutable vh : int array;  (* value planes, per local *)
  mutable vl : int array;
  mutable uh : int array;  (* previous-cycle planes (glitch rule) *)
  mutable ul : int array;
  mutable qh : int array;  (* register state planes, per member *)
  mutable ql : int array;
  mutable fz : int array;  (* per member: lanes for which it is a Kleene cut *)
  (* kernel work of the last run *)
  mutable n_evals : int;
  mutable n_splices : int;
  (* evaluation scratch *)
  sc : int array;  (* 16: LUT scratch *)
  phs : int array;  (* 4: per-pin H planes, inversion applied *)
  pls : int array;
  ims : int array;  (* 4: per-pin inversion masks *)
  newh : int array;  (* 1: the value being built *)
  newl : int array;
  rsh : int array;  (* 1: one lane's resolve row, every lane *)
  rsl : int array;
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

(* [ov_set] bits *)
let f_ce = 1
let f_qi = 2
let f_reg = 4

let ensure t n =
  if t.cap < n then begin
    let cap = max n (max 1024 (2 * t.cap)) in
    t.cap <- cap;
    t.mark <- Bytes.make cap '\000';
    t.fmark <- Bytes.make cap '\000';
    t.order <- Array.make cap 0;
    t.pos <- Array.make cap 0;
    t.indeg <- Array.make cap 0;
    t.queue <- Array.make cap 0;
    t.members <- Array.make cap 0;
    t.frontier <- Array.make cap 0;
    t.regs <- Array.make cap 0;
    t.ov_t1 <- Array.make cap [||];
    t.ov_im <- Array.make cap [||];
    t.ov_set <- Bytes.make cap '\000';
    t.ov_ce <- Array.make cap 0;
    t.ov_qh <- Array.make cap 0;
    t.ov_ql <- Array.make cap 0;
    t.ov_reg <- Array.make cap 0;
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
    t.bkm <- Array.make cap 0;
    t.vh <- Array.make (cap + 1) 0;
    t.vl <- Array.make (cap + 1) 0;
    t.uh <- Array.make (cap + 1) 0;
    t.ul <- Array.make (cap + 1) 0;
    t.qh <- Array.make cap 0;
    t.ql <- Array.make cap 0;
    t.fz <- Array.make cap 0
  end

let res_ensure t n =
  if Array.length t.resh < n then begin
    let c = max n ((2 * Array.length t.resh) + 8) in
    t.resh <- Array.make c 0;
    t.resl <- Array.make c 0;
    t.reslh <- Array.make c 0;
    t.resll <- Array.make c 0
  end

let width = Lanes.word_bits

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
  let t =
    {
      base;
      view = v;
      csr_off;
      csr_succ;
      bel_of;
      cyc_node;
      base_pos;
      cap = 0;
      mark = Bytes.empty;
      fmark = Bytes.empty;
      order = [||];
      pos = [||];
      indeg = [||];
      queue = [||];
      members = [||];
      frontier = [||];
      regs = [||];
      ov_t1 = [||];
      ov_im = [||];
      ov_set = Bytes.empty;
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
      newh = Array.make 1 0;
      newl = Array.make 1 0;
      rsh = Array.make 1 0;
      rsl = Array.make 1 0;
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

(* Index of the single set bit of [m] (an isolated power of two, the
   sign bit 62 included). *)
let bit_index m =
  let i = if m land 0xffffffff = 0 then 32 else 0 in
  let i = if (m lsr i) land 0xffff = 0 then i + 16 else i in
  let i = if (m lsr i) land 0xff = 0 then i + 8 else i in
  let i = if (m lsr i) land 0xf = 0 then i + 4 else i in
  let i = if (m lsr i) land 0x3 = 0 then i + 2 else i in
  if (m lsr i) land 1 = 0 then i + 1 else i

(* A tape value as a plane-word code: bit 0 = may be One (the H
   plane), bit 1 = may be Zero (the L plane). *)
let tw_code = function Logic.One -> 1 | Logic.Zero -> 2 | Logic.X -> 3

let[@inline] code_h c = -(c land 1)
let[@inline] code_l c = -((c lsr 1) land 1)

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
  let fullw = Lanes.full in
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
    t.ever <- Array.make t.cap 0;
    t.pv_seen <- Array.make t.cap 0;
    t.pv_depth <- Array.make t.cap 0
  end;
  (* every check before any slot is written, so a rejected run leaves
     the slots empty *)
  Array.iter
    (fun d ->
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
        d.F.dl_rows)
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
  let lane_rows : (int * int array) list array = Array.make nlanes [] in
  (* per lane: (watch position, node) the lane reads there instead of
     the base watch node; per position: the lanes that do *)
  let lane_watch : (int * int) list array = Array.make nlanes [] in
  let wmask = Array.make (max 1 (Array.length watch)) 0 in
  let slot_of slots node init =
    if Array.length slots.(node) = 0 then begin
      slots.(node) <- init ();
      touch node
    end;
    slots.(node)
  in
  let bcast_bit x k = if (x lsr k) land 1 = 1 then fullw else 0 in
  (* the overlay words of flag [f] at [node]: [init] writes their base
     values when no lane set them yet *)
  let word_of f node init =
    let set = Char.code (Bytes.get t.ov_set node) in
    if set land f = 0 then begin
      Bytes.set t.ov_set node (Char.chr (set lor f));
      init ();
      touch node
    end
  in
  let set_lane a i m on =
    a.(i) <- (if on then a.(i) lor m else a.(i) land lnot m)
  in
  Array.iteri
    (fun li d ->
      let m = 1 lsl li in
      (match d.F.dl_cell with
      | None -> ()
      | Some (node, p) -> (
          match p with
          | F.Cp_table tbl ->
              let table = v.F.v_table.(node) in
              let a =
                slot_of t.ov_t1 node (fun () -> Array.init 16 (bcast_bit table))
              in
              for mt = 0 to 15 do
                set_lane a mt m ((tbl lsr mt) land 1 = 1)
              done
          | F.Cp_inv iv ->
              let inv = v.F.v_inv.(node) in
              let a =
                slot_of t.ov_im node (fun () -> Array.init 4 (bcast_bit inv))
              in
              for j = 0 to 3 do
                set_lane a j m ((iv lsr j) land 1 = 1)
              done
          | F.Cp_qinit q ->
              word_of f_qi node (fun () ->
                  let q0 = v.F.v_q_init.(node) in
                  t.ov_qh.(node) <- Lanes.broadcast_h q0;
                  t.ov_ql.(node) <- Lanes.broadcast_l q0);
              set_lane t.ov_qh node m (Lanes.broadcast_h q <> 0);
              set_lane t.ov_ql node m (Lanes.broadcast_l q <> 0)
          | F.Cp_ce b ->
              word_of f_ce node (fun () ->
                  t.ov_ce.(node) <-
                    (if v.F.v_ce_frozen.(node) then fullw else 0));
              set_lane t.ov_ce node m b
          | F.Cp_reg r ->
              word_of f_reg node (fun () ->
                  t.ov_reg.(node) <-
                    (if v.F.v_kind.(node) = F.kind_bel_reg then fullw else 0));
              set_lane t.ov_reg node m r));
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
          wmask.(wi) <- wmask.(wi) lor m)
        d.F.dl_watch)
    lanes;
  (* each lane's seed set: what really differs from the base — the cell
     or kind, rows that changed (a re-resolved row can equal the base
     one) and every appended node — exactly the nodes whose function
     differs from the base.  They root the union cone and the provenance
     BFS, and the Kleene cuts of a lane's own cycles are among them. *)
  let lane_sseeds =
    Array.mapi
      (fun li d ->
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
      lanes
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
  let mixed u = u < bn && Char.code (Bytes.get t.ov_set u) land f_reg <> 0 in
  let is_reg u = u < bn && v.F.v_kind.(u) = F.kind_bel_reg && not (mixed u) in
  let clocked u = u < bn && (v.F.v_kind.(u) = F.kind_bel_reg || mixed u) in
  let lane_reg li u =
    match lanes.(li).F.dl_cell with
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
  Array.fill t.fz 0 nm 0;
  (* per leftover SCC: its Kleene cut members ([t.fz] holds their lanes) *)
  let gcuts = ref [||] in
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
    let add_cut u m =
      let i = t.pos.(u) in
      if t.fz.(i) = 0 then begin
        let g = grp.(i - kahn_len) in
        gc.(g) <- i :: gc.(g)
      end;
      t.fz.(i) <- t.fz.(i) lor m
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
        add_cut u fullw
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
            if back_to_seed s0 then add_cut s0 (1 lsl li)
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
  (* lanes [m] read local [p] at pin [j]: one entry per distinct
     (pin, node) of the member starting at [g0] *)
  let add_gather g0 j p m =
    let k = ref g0 in
    let same k = t.gat.(k) = j && t.gat.(k + 1) = p in
    while !k < !ngat && not (same !k) do
      k := !k + 3
    done;
    if !k < !ngat then t.gat.(!k + 2) <- t.gat.(!k + 2) lor m
    else begin
      if Array.length t.gat < !ngat + 3 then begin
        let a = Array.make (2 * Array.length t.gat + 63) 0 in
        Array.blit t.gat 0 a 0 !ngat;
        t.gat <- a
      end;
      t.gat.(!ngat) <- j;
      t.gat.(!ngat + 1) <- p;
      t.gat.(!ngat + 2) <- m;
      ngat := !ngat + 3
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
                add_gather t.gof.(i) j (loc rrow.(j)) (1 lsl li)
            done)
          t.ov_rows.(u);
        let iv = ref 0 in
        for j = 0 to 3 do
          let p = row.(j) in
          t.pin.((4 * i) + j) <- (if p < 0 then zero else t.pos.(p));
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
  Array.fill t.bkm 0 nm 0;
  for g = 0 to nscc - 1 do
    let s0 = starts.(g) and s1 = gend g in
    for r = s0 to s1 - 1 do
      (* lanes that read [p] through this edge; a Kleene cut's cut
         lanes hold their value while the sweeps run *)
      let edge li p =
        if p >= 0 && Bytes.get t.mark p <> '\000' then begin
          let i = t.pos.(p) in
          if i >= r && i < s1 then begin
            let m = (if li < 0 then fullw else 1 lsl li) land lnot t.fz.(r) in
            if m <> 0 then begin
              if r < t.bk.(i) then t.bk.(i) <- r;
              t.bkm.(i) <- t.bkm.(i) lor m
            end
          end;
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
  Array.fill vh 0 nloc fullw;
  Array.fill vl 0 nloc fullw;
  Array.fill uh 0 nloc fullw;
  Array.fill ul 0 nloc fullw;
  vh.(zero) <- 0;
  for k = 0 to nregs - 1 do
    let i = t.regs.(k) in
    let u = gid.(i) in
    if Char.code (Bytes.get t.ov_set u) land f_qi <> 0 then begin
      qh.(i) <- t.ov_qh.(u);
      ql.(i) <- t.ov_ql.(u)
    end
    else begin
      qh.(i) <- Lanes.broadcast_h v.F.v_q_init.(u);
      ql.(i) <- Lanes.broadcast_l v.F.v_q_init.(u)
    end
  done;
  (* ---- the evaluation kernel: member [i]'s planes land in
     [dh.(o)]/[dl.(o)] ---- *)
  let pin = t.pin and kd = t.kd and tbl = t.tbl in
  let roff = t.roff and lrows = t.lrows and gof = t.gof and gat = t.gat in
  let bk = t.bk and bkm = t.bkm and fw = t.fw in
  let sc = t.sc and phs = t.phs and pls = t.pls in
  let newh = t.newh and newl = t.newl and rsh = t.rsh and rsl = t.rsl in
  let cur_c = ref 0 in
  (* a node's value in one lane: its planes where the program holds it,
     the tape's elsewhere (a remapped watch position) *)
  let node_v u li =
    if Bytes.get t.mark u <> '\000' || Bytes.get t.fmark u <> '\000' then begin
      let p = t.pos.(u) in
      Lanes.lane ~h:vh.(p) ~l:vl.(p) li
    end
    else F.tape_get_u tape !cur_c u
  in
  (* lanes reading pin [j] inverted: the per-lane masks [ima] when some
     lane patched them, else the base inversion bits [inv] *)
  let[@inline] pin_im ima inv j =
    if Array.length ima > 0 then ima.(j) else -((inv lsr j) land 1)
  in
  let ims = t.ims in
  (* a LUT with the base table, inversion and row in every lane *)
  let lut_plain i dh dl o =
    let b = 4 * i in
    Lanes.lut_node sc ~table:tbl.(i) ~h:vh ~l:vl pin.(b) pin.(b + 1)
      pin.(b + 2) pin.(b + 3) ~dh ~dl o;
    t.n_evals <- t.n_evals + 1
  in
  (* a LUT some lane patched: per-lane inversion masks and leaves, and
     a lane that rewired a pin reads its own node there (an unused pin
     is constant Zero) *)
  let lut_ov i dh dl o =
    let u = gid.(i) in
    let row = v.F.v_inputs.(u) and b = 4 * i in
    let iv = v.F.v_inv.(u) and ima = t.ov_im.(u) and leaves = t.ov_t1.(u) in
    for j = 0 to 3 do
      let im = pin_im ima iv j in
      ims.(j) <- im;
      if row.(j) < 0 then begin
        phs.(j) <- 0;
        pls.(j) <- fullw
      end
      else begin
        let p = pin.(b + j) in
        let h = vh.(p) and l = vl.(p) in
        phs.(j) <- h land lnot im lor (l land im);
        pls.(j) <- l land lnot im lor (h land im)
      end
    done;
    let g1 = gof.(i + 1) in
    let k = ref gof.(i) in
    while !k < g1 do
      let j = gat.(!k) and p = gat.(!k + 1) and m = gat.(!k + 2) in
      if p < 0 then begin
        phs.(j) <- phs.(j) land lnot m;
        pls.(j) <- pls.(j) lor m
      end
      else begin
        let im = ims.(j) in
        let h = vh.(p) and l = vl.(p) in
        phs.(j) <-
          phs.(j) land lnot m lor (h land lnot im lor (l land im) land m);
        pls.(j) <-
          pls.(j) land lnot m lor (l land lnot im lor (h land im) land m)
      end;
      k := !k + 3
    done;
    if Array.length leaves > 0 then
      Lanes.lut_leaves ~ph:phs ~pl:pls ~leaves ~at:0 ~dh ~dl o
    else
      Lanes.lut_words sc v.F.v_table.(u) phs.(0) pls.(0) phs.(1) pls.(1)
        phs.(2) pls.(2) phs.(3) pls.(3) dh dl o;
    t.n_evals <- t.n_evals + 1
  in
  let lut_at i dh dl o =
    if Bytes.get t.lov i <> '\000' then lut_ov i dh dl o
    else lut_plain i dh dl o
  in
  (* a resolve over the locals [a.(off) .. a.(off + n - 1)] in every
     lane *)
  let resolve_at a off n dh dl o =
    res_ensure t n;
    let resh = t.resh and resl = t.resl in
    let reslh = t.reslh and resll = t.resll in
    for k = 0 to n - 1 do
      let p = a.(off + k) in
      resh.(k) <- vh.(p);
      resl.(k) <- vl.(p);
      reslh.(k) <- uh.(p);
      resll.(k) <- ul.(p)
    done;
    Lanes.resolve_planes ~n ~h:resh ~l:resl ~lh:reslh ~ll:resll ~dh ~dl o
  in
  (* lane [li]'s own resolve row, resolved in every lane and blended in
     on that lane's bit alone *)
  let lane_resolve li a off n dh dl o =
    resolve_at a off n rsh rsl 0;
    let m = 1 lsl li in
    dh.(o) <- dh.(o) land lnot m lor (rsh.(0) land m);
    dl.(o) <- dl.(o) land lnot m lor (rsl.(0) land m);
    t.n_splices <- t.n_splices + 1
  in
  let rec rewired_rows rows dh dl o =
    match rows with
    | [] -> ()
    | (li, rrow) :: tl ->
        lane_resolve li rrow 0 (Array.length rrow) dh dl o;
        rewired_rows tl dh dl o
  in
  let res_eval i dh dl o =
    let r0 = roff.(i) in
    resolve_at rins r0 (roff.(i + 1) - r0) dh dl o;
    t.n_evals <- t.n_evals + 1;
    rewired_rows lrows.(i) dh dl o
  in
  (* an appended node exists only in its own lane's circuit: X in
     every other lane *)
  let extra_eval i dh dl o =
    dh.(o) <- fullw;
    dl.(o) <- fullw;
    let r0 = roff.(i) in
    lane_resolve ext_lane.(gid.(i) - bn) rins r0 (roff.(i + 1) - r0) dh dl o
  in
  let eval_into i dh dl o =
    let k = kd.(i) in
    if k = k_lut then lut_plain i dh dl o
    else if k = k_lut_ov then lut_ov i dh dl o
    else if k = k_reg then begin
      dh.(o) <- qh.(i);
      dl.(o) <- ql.(i)
    end
    else if k = k_mixed then begin
      (* the LUT in the combinational lanes, the state in the
         registered ones *)
      lut_at i dh dl o;
      let r = t.ov_reg.(gid.(i)) in
      dh.(o) <- dh.(o) land lnot r lor (qh.(i) land r);
      dl.(o) <- dl.(o) land lnot r lor (ql.(i) land r)
    end
    else if k = k_res then res_eval i dh dl o
    else if k = k_extra then extra_eval i dh dl o
    else begin
      let tc = tw.((!cur_c * bn) + gid.(i)) in
      dh.(o) <- code_h tc;
      dl.(o) <- code_l tc
    end
  in
  (* undecided lanes: a decided lane (its watch error, plus its
     detection flag when watched) leaves every check *)
  let live = ref 0 in
  for li = 0 to nlanes - 1 do
    live := !live lor (1 lsl li)
  done;
  (* ---- fixpoint segments.  While [freeze] is set, the cut lanes of a
     Kleene cut keep their value: the commit leaves those bits as they
     are. ---- *)
  let freeze = ref false in
  (* commit member [i]: 0 = its planes stayed, 1 = they moved, 2 = they
     moved on a lane of one of its back edges *)
  let commit i =
    let f = if !freeze then fz.(i) else 0 in
    let nh = newh.(0) land lnot f lor (vh.(i) land f)
    and nl = newl.(0) land lnot f lor (vl.(i) land f) in
    let d = nh lxor vh.(i) lor (nl lxor vl.(i)) in
    if d = 0 then 0
    else begin
      vh.(i) <- nh;
      vl.(i) <- nl;
      if d land bkm.(i) <> 0 then 2 else 1
    end
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
      let i = cuts.(c) in
      vh.(i) <- vh.(i) lor fz.(i);
      vl.(i) <- vl.(i) lor fz.(i)
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
  (* ---- verdicts ---- *)
  let nund = ref nlanes in
  let decide li =
    live := !live land lnot (1 lsl li);
    decr nund
  in
  let undecided li = !live land (1 lsl li) <> 0 in
  let err_cy = Array.make nlanes (-1) in
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
  (* forensic scan state: [fresh] holds the lanes with no divergence
     yet, [first_cy]/[first_nodes] what each lane diverged at first *)
  let collect = voters <> None in
  let ever = t.ever in
  let fresh = ref !live in
  let first_cy = Array.make nlanes (-1) in
  let first_nodes = Array.make nlanes [] in
  (* the undecided lanes' divergence at every base member: the planes
     against the tape, folded into [ever] *)
  let scan_divergence c =
    let hit = ref 0 in
    for i = 0 to nm - 1 do
      let u = gid.(i) in
      if u < bn then begin
        let tc = tw.((c * bn) + u) in
        let w =
          (vh.(i) lxor code_h tc) lor (vl.(i) lxor code_l tc) land !live
        in
        if w <> 0 then begin
          ever.(u) <- ever.(u) lor w;
          let m = ref (w land !fresh) in
          hit := !hit lor !m;
          while !m <> 0 do
            let li = bit_index (!m land - !m) in
            first_nodes.(li) <- u :: first_nodes.(li);
            m := !m land (!m - 1)
          done
        end
      end
    done;
    let m = ref !hit in
    while !m <> 0 do
      first_cy.(bit_index (!m land - !m)) <- c;
      m := !m land (!m - 1)
    done;
    fresh := !fresh land lnot !hit
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
      vh.(k) <- code_h tc;
      vl.(k) <- code_l tc
    done;
    (* the members, in order: a plain run once, a union SCC to its
       fixpoint *)
    for g = 0 to nseg - 1 do
      match segs.(g) with
      | lo, hi, None ->
          for i = lo to hi - 1 do
            if kd.(i) = k_lut then lut_plain i vh vl i
            else eval_into i vh vl i
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
      let b = t.pos.(watch.(wi)) in
      let m =
        ref
          (Lanes.mismatch ~h:vh.(b) ~l:vl.(b) exp.(wi)
          land !live
          land lnot wmask.(wi))
      in
      while !m <> 0 do
        note_watch (bit_index (!m land - !m)) wi c;
        m := !m land (!m - 1)
      done
    done;
    (* remapped positions: the lane's own node *)
    if remaps then
      Array.iteri
        (fun li ws ->
          List.iter
            (fun (wi, node) ->
              if undecided li && not (Logic.equal (node_v node li) exp.(wi))
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
        let ovce = Char.code (Bytes.get t.ov_set u) land f_ce <> 0 in
        let basefz = v.F.v_ce_frozen.(u) in
        if kd.(i) = k_mixed || not (basefz && not ovce) then begin
          lut_at i newh newl 0;
          let fzw = if ovce then t.ov_ce.(u) else if basefz then fullw else 0 in
          qh.(i) <- newh.(0) land lnot fzw lor (qh.(i) land fzw);
          ql.(i) <- newl.(0) land lnot fzw lor (ql.(i) land fzw)
        end
      done;
    (* this cycle's planes are the next one's glitch-rule values *)
    Array.blit vh 0 uh 0 nloc;
    Array.blit vl 0 ul 0 nloc;
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
    let m = 1 lsl li in
    let diverged = ref 0 and dmax = ref (-1) and held = ref false in
    for i = 0 to !qtl - 1 do
      let u = q.(i) in
      if u < bn && ever.(u) land m <> 0 then begin
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
      Bytes.set t.ov_set u '\000';
      t.ov_rows.(u) <- [];
      t.radj.(u) <- [])
    !touched;
  if collect then
    for i = 0 to nm - 1 do
      ever.(gid.(i)) <- 0
    done;
  verdicts
