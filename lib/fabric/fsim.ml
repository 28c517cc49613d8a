module Logic = Tmr_logic.Logic
module Device = Tmr_arch.Device
module Bitdb = Tmr_arch.Bitdb

(* Node kinds, encoded for tight loops. *)
let k_constx = 0
let k_pad = 1
let k_bel_comb = 2
let k_bel_reg = 3
let k_resolve = 4

(* Node 0 is always the constant-X node (first allocation in [build]). *)
let x_node_id = 0

(* Scratch arrays for the SCC pass, reused across invocations so the
   per-fault path stays allocation-free (minor-GC barriers are
   stop-the-world across every domain). *)
type scc_scratch = {
  mutable sc_cap : int;  (* node capacity of the arrays below *)
  mutable sc_index : int array;
  mutable sc_low : int array;
  mutable sc_onstack : Bytes.t;
  mutable sc_sstack : int array;  (* Tarjan value stack *)
  mutable sc_cnode : int array;  (* DFS call stack: node *)
  mutable sc_ci : int array;  (* DFS call stack: next child index *)
  mutable sc_off : int array;  (* nsccs+1 offsets into sc_nodes *)
  mutable sc_nodes : int array;  (* SCC members, evaluation order *)
  mutable sc_cyclic : Bytes.t;  (* per SCC: '\001' when cyclic *)
}

let make_scc_scratch () =
  {
    sc_cap = 0;
    sc_index = [||];
    sc_low = [||];
    sc_onstack = Bytes.empty;
    sc_sstack = [||];
    sc_cnode = [||];
    sc_ci = [||];
    sc_off = [||];
    sc_nodes = [||];
    sc_cyclic = Bytes.empty;
  }

let scc_ensure s n =
  if s.sc_cap < n then begin
    let cap = max n (max 256 (2 * s.sc_cap)) in
    s.sc_cap <- cap;
    s.sc_index <- Array.make cap 0;
    s.sc_low <- Array.make cap 0;
    s.sc_onstack <- Bytes.make cap '\000';
    s.sc_sstack <- Array.make cap 0;
    s.sc_cnode <- Array.make cap 0;
    s.sc_ci <- Array.make cap 0;
    s.sc_off <- Array.make (cap + 1) 0;
    s.sc_nodes <- Array.make cap 0;
    s.sc_cyclic <- Bytes.make cap '\000'
  end

type workspace = {
  ws_dev : Device.t;
  mutable epoch : int;
  wire_mark : int array;  (* cone membership stamp *)
  bel_mark : int array;
  res_stamp : int array;  (* wire -> epoch of res_node validity *)
  res_node : int array;  (* wire -> node id *)
  ing_stamp : int array;  (* wire -> epoch when in-progress *)
  bel_node_stamp : int array;
  bel_node_id : int array;
  ws_scc : scc_scratch;
}

let make_workspace dev =
  {
    ws_dev = dev;
    epoch = 0;
    wire_mark = Array.make dev.Device.nwires 0;
    bel_mark = Array.make dev.Device.nbels 0;
    res_stamp = Array.make dev.Device.nwires 0;
    res_node = Array.make dev.Device.nwires 0;
    ing_stamp = Array.make dev.Device.nwires 0;
    bel_node_stamp = Array.make dev.Device.nbels 0;
    bel_node_id = Array.make dev.Device.nbels 0;
    ws_scc = make_scc_scratch ();
  }

type t = {
  nnodes : int;
  kind : int array;
  inputs : int array array;  (* resolve inputs; bel pin nodes (len 4, -1 unused) *)
  res_wires : int array array;
      (* resolve nodes: the driver wire behind each input — lets a fault
         re-derive the inputs when routing changes upstream *)
  table : int array;  (* bel nodes: LUT table *)
  inv : int array;  (* bel nodes: pin inversion mask *)
  ce_frozen : bool array;  (* bel nodes: clock-enable inverted *)
  q_init : Logic.t array;
  q : Logic.t array;
  values : Logic.t array;
  last : Logic.t array;
      (* settled value of each node at the end of the previous cycle; used
         by the drive-conflict glitch rule on shorted nodes *)
  nsccs : int;
  scc_off : int array;  (* nsccs+1 offsets into scc_nodes (may have slack) *)
  scc_nodes : int array;  (* flat SCC members, evaluation order *)
  scc_cyclic : Bytes.t;  (* per SCC *)
  reg_nodes : int array;  (* node ids with kind = k_bel_reg, ascending *)
  pad_node : (int, int) Hashtbl.t;  (* PadIn wire -> node *)
  watch_node : (int, int) Hashtbl.t;  (* PadOut wire -> node *)
  has_loop : bool;
  const_zero : int;  (* pinless comb node reading Zero (see [build]) *)
  const_one : int;  (* ... reading One *)
}

(* The registered-bel index: [clock] used to scan every node testing
   [kind = k_bel_reg] each cycle; the membership is fixed at build time
   (an Out_sel fault moves it only in a batch lane's overlay). *)
let collect_reg_nodes kind n =
  let c = ref 0 in
  for node = 0 to n - 1 do
    if kind.(node) = k_bel_reg then incr c
  done;
  let regs = Array.make !c 0 in
  let i = ref 0 in
  for node = 0 to n - 1 do
    if kind.(node) = k_bel_reg then begin
      regs.(!i) <- node;
      incr i
    end
  done;
  regs

let support_mask table =
  let m = ref 0 in
  for j = 0 to 3 do
    let differs = ref false in
    for idx = 0 to 15 do
      if (table lsr idx) land 1 <> (table lsr (idx lxor (1 lsl j))) land 1 then
        differs := true
    done;
    if !differs then m := !m lor (1 lsl j)
  done;
  !m

(* Growable node store. *)
type builder = {
  mutable n : int;
  mutable b_kind : int array;
  mutable b_table : int array;
  mutable b_inv : int array;
  mutable b_ce : bool array;
  mutable b_qi : Logic.t array;
}

let builder_create () =
  {
    n = 0;
    b_kind = Array.make 256 0;
    b_table = Array.make 256 0;
    b_inv = Array.make 256 0;
    b_ce = Array.make 256 false;
    b_qi = Array.make 256 Logic.X;
  }

let builder_alloc b k ~table ~inv ~ce ~qi =
  if b.n >= Array.length b.b_kind then begin
    let grow a fill = Array.append a (Array.make (Array.length a) fill) in
    b.b_kind <- grow b.b_kind 0;
    b.b_table <- grow b.b_table 0;
    b.b_inv <- grow b.b_inv 0;
    b.b_ce <- grow b.b_ce false;
    b.b_qi <- grow b.b_qi Logic.X
  end;
  let id = b.n in
  b.b_kind.(id) <- k;
  b.b_table.(id) <- table;
  b.b_inv.(id) <- inv;
  b.b_ce.(id) <- ce;
  b.b_qi.(id) <- qi;
  b.n <- id + 1;
  id

(* SCC decomposition of the combinational graph (iterative Tarjan).
   Combinational dependencies: resolve -> inputs; comb bel -> pins.
   Registered bels, pads and constants are sources.  Tarjan emits an SCC
   only after everything it depends on has been emitted, so the emission
   order written to [sc_nodes] is already inputs-first.  Works entirely in
   [scratch]; returns [(nsccs, has_loop)]. *)
let rec self_dep deps node i =
  i < Array.length deps && (deps.(i) = node || self_dep deps node (i + 1))

let compute_sccs ~scratch:s ~nnodes:n ~kind ~inputs =
  scc_ensure s n;
  let index = s.sc_index and low = s.sc_low and onstack = s.sc_onstack in
  Array.fill index 0 n (-1);
  Bytes.fill onstack 0 n '\000';
  let dep node =
    let k = kind.(node) in
    if k = k_resolve || k = k_bel_comb then inputs.(node) else [||]
  in
  let counter = ref 0 in
  let sp = ref 0 in (* Tarjan value stack top *)
  let nsccs = ref 0 in
  let out = ref 0 in (* write position in sc_nodes *)
  let has_loop = ref false in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      let csp = ref 0 in
      let push v =
        index.(v) <- !counter;
        low.(v) <- !counter;
        incr counter;
        s.sc_sstack.(!sp) <- v;
        incr sp;
        Bytes.set onstack v '\001';
        s.sc_cnode.(!csp) <- v;
        s.sc_ci.(!csp) <- 0;
        incr csp
      in
      push root;
      while !csp > 0 do
        let node = s.sc_cnode.(!csp - 1) in
        let i = s.sc_ci.(!csp - 1) in
        let deps = dep node in
        if i < Array.length deps then begin
          s.sc_ci.(!csp - 1) <- i + 1;
          let child = deps.(i) in
          if child >= 0 then begin
            if index.(child) < 0 then push child
            else if Bytes.get onstack child <> '\000' then
              low.(node) <- min low.(node) index.(child)
          end
        end
        else begin
          decr csp;
          if !csp > 0 then begin
            let parent = s.sc_cnode.(!csp - 1) in
            low.(parent) <- min low.(parent) low.(node)
          end;
          if low.(node) = index.(node) then begin
            let start = !out in
            let continue = ref true in
            while !continue do
              decr sp;
              let w = s.sc_sstack.(!sp) in
              Bytes.set onstack w '\000';
              s.sc_nodes.(!out) <- w;
              incr out;
              if w = node then continue := false
            done;
            let cyc =
              !out - start > 1
              || self_dep (dep s.sc_nodes.(start)) s.sc_nodes.(start) 0
            in
            s.sc_off.(!nsccs) <- start;
            Bytes.set s.sc_cyclic !nsccs (if cyc then '\001' else '\000');
            if cyc then has_loop := true;
            incr nsccs
          end
        end
      done
    end
  done;
  s.sc_off.(!nsccs) <- !out;
  (!nsccs, !has_loop)

let build ?ws ex ~watch_outputs =
  let dev = Extract.device ex in
  let ws =
    match ws with
    | Some w ->
        if w.ws_dev != dev then
          invalid_arg "Fsim.build: workspace built for another device";
        w
    | None -> make_workspace dev
  in
  ws.epoch <- ws.epoch + 1;
  let ep = ws.epoch in
  (* ---- Phase 1: collect the observable cone (wires and bels) ---- *)
  let bel_list = ref [] in
  let stack = ref [] in
  let push_wire w =
    if ws.wire_mark.(w) <> ep then begin
      ws.wire_mark.(w) <- ep;
      stack := w :: !stack
    end
  in
  Array.iter push_wire watch_outputs;
  let visit_bel b =
    if ws.bel_mark.(b) <> ep then begin
      ws.bel_mark.(b) <- ep;
      let mask = support_mask (Extract.lut_table ex b) in
      bel_list := (b, mask) :: !bel_list;
      Array.iteri
        (fun j pinw -> if (mask lsr j) land 1 = 1 then push_wire pinw)
        dev.Device.bel_in.(b)
    end
  in
  let rec drain () =
    match !stack with
    | [] -> ()
    | w :: rest ->
        stack := rest;
        (match dev.Device.wkind.(w) with
        | Device.BelOut -> visit_bel dev.Device.wire_bel.(w)
        | Device.PadIn -> ()
        | Device.HSingle | Device.VSingle | Device.HDouble | Device.VDouble
        | Device.HLong | Device.VLong | Device.BelIn | Device.PadOut ->
            List.iter push_wire (Extract.drivers ex w);
            List.iter push_wire (Extract.links ex w));
        drain ()
  in
  drain ();
  (* ---- Phase 2: allocate nodes ---- *)
  let bld = builder_create () in
  let alloc = builder_alloc bld in
  let x_node = alloc k_constx ~table:0 ~inv:0 ~ce:false ~qi:Logic.X in
  List.iter
    (fun (b, _mask) ->
      let registered = Extract.out_sel ex b in
      let id =
        alloc
          (if registered then k_bel_reg else k_bel_comb)
          ~table:(Extract.lut_table ex b)
          ~inv:(Extract.in_inv_mask ex b)
          ~ce:(Extract.ce_inv ex b)
          ~qi:(Extract.ff_init ex b)
      in
      ws.bel_node_stamp.(b) <- ep;
      ws.bel_node_id.(b) <- id)
    !bel_list;
  let pad_node = Hashtbl.create 64 in
  let resolve_inputs = Hashtbl.create 64 in
  let resolve_wires = Hashtbl.create 64 in
  let set_resolved w n =
    ws.res_stamp.(w) <- ep;
    ws.res_node.(w) <- n
  in
  let rec wire_node w =
    if ws.res_stamp.(w) = ep then ws.res_node.(w)
    else if ws.ing_stamp.(w) = ep then x_node (* pure driver loop: floats *)
    else begin
      match dev.Device.wkind.(w) with
      | Device.PadIn ->
          let pad = dev.Device.wire_pad.(w) in
          let n =
            if Extract.pad_enabled ex pad then begin
              match Hashtbl.find_opt pad_node w with
              | Some n -> n
              | None ->
                  let n = alloc k_pad ~table:0 ~inv:0 ~ce:false ~qi:Logic.X in
                  Hashtbl.add pad_node w n;
                  n
            end
            else x_node
          in
          set_resolved w n;
          n
      | Device.BelOut ->
          let b = dev.Device.wire_bel.(w) in
          let n =
            if ws.bel_node_stamp.(b) = ep then ws.bel_node_id.(b)
            else x_node (* outside the collected cone *)
          in
          set_resolved w n;
          n
      | Device.HSingle | Device.VSingle | Device.HDouble | Device.VDouble
      | Device.HLong | Device.VLong | Device.BelIn | Device.PadOut ->
          (* The electrical node is the whole component of wires shorted
             together by ON pass pips; its drivers are every buffered
             driver of any member. *)
          let members = ref [] in
          let rec collect u =
            if ws.ing_stamp.(u) <> ep then begin
              ws.ing_stamp.(u) <- ep;
              members := u :: !members;
              List.iter collect (Extract.links ex u)
            end
          in
          collect w;
          let members = !members in
          let drvs = List.concat_map (fun u -> Extract.drivers ex u) members in
          let finish n =
            List.iter (fun u -> set_resolved u n) members;
            n
          in
          (match drvs with
          | [] -> finish x_node
          | [ u ] ->
              let n = wire_node u in
              finish n
          | us ->
              let n = alloc k_resolve ~table:0 ~inv:0 ~ce:false ~qi:Logic.X in
              (* register before resolving inputs so cycles hit the node,
                 not infinite recursion *)
              ignore (finish n);
              Hashtbl.replace resolve_wires n (Array.of_list us);
              Hashtbl.replace resolve_inputs n
                (Array.of_list (List.map wire_node us));
              n)
    end
  in
  (* bel pins *)
  let bel_pins = Hashtbl.create 256 in
  List.iter
    (fun (b, mask) ->
      let pins =
        Array.init 4 (fun j ->
            if (mask lsr j) land 1 = 1 then wire_node dev.Device.bel_in.(b).(j)
            else -1)
      in
      Hashtbl.add bel_pins ws.bel_node_id.(b) pins)
    !bel_list;
  let watch_node = Hashtbl.create 32 in
  Array.iter
    (fun w ->
      let pad = dev.Device.wire_pad.(w) in
      let n =
        if pad >= 0 && not (Extract.pad_enabled ex pad) then x_node
        else wire_node w
      in
      Hashtbl.replace watch_node w n)
    watch_outputs;
  (* Shared constant drivers, allocated last so no other node id moves.
     Nothing here reads them; [phase_a] resolves the output of an unused
     (combinational, constant-table) bel outside the cone onto them, which
     is exactly the pinless node a rebuild would give that bel. *)
  let const_node table =
    let id = alloc k_bel_comb ~table ~inv:0 ~ce:false ~qi:Logic.X in
    Hashtbl.add bel_pins id (Array.make 4 (-1));
    id
  in
  let const_zero = const_node 0x0000 in
  let const_one = const_node 0xFFFF in
  let n = bld.n in
  let kind = Array.sub bld.b_kind 0 n in
  let table = Array.sub bld.b_table 0 n in
  let inv = Array.sub bld.b_inv 0 n in
  let ce_frozen = Array.sub bld.b_ce 0 n in
  let q_init = Array.sub bld.b_qi 0 n in
  let inputs = Array.make n [||] in
  let res_wires = Array.make n [||] in
  Hashtbl.iter (fun node ins -> inputs.(node) <- ins) resolve_inputs;
  Hashtbl.iter (fun node ws_ -> res_wires.(node) <- ws_) resolve_wires;
  Hashtbl.iter (fun node pins -> inputs.(node) <- pins) bel_pins;
  (* ---- Phase 3: evaluation order ---- *)
  let nsccs, has_loop =
    compute_sccs ~scratch:ws.ws_scc ~nnodes:n ~kind ~inputs
  in
  (* copy exact-size out of the workspace scratch: this simulator must
     survive later builds that reuse the same workspace *)
  {
    nnodes = n;
    kind;
    inputs;
    res_wires;
    table;
    inv;
    ce_frozen;
    q_init;
    q = Array.copy q_init;
    values = Array.make n Logic.X;
    last = Array.make n Logic.X;
    nsccs;
    scc_off = Array.sub ws.ws_scc.sc_off 0 (nsccs + 1);
    scc_nodes = Array.sub ws.ws_scc.sc_nodes 0 n;
    scc_cyclic = Bytes.sub ws.ws_scc.sc_cyclic 0 nsccs;
    reg_nodes = collect_reg_nodes kind n;
    pad_node;
    watch_node;
    has_loop;
    const_zero;
    const_one;
  }

let num_nodes t = t.nnodes
let const_nodes t = (t.const_zero, t.const_one)
let has_comb_loop t = t.has_loop

let reset t =
  Array.blit t.q_init 0 t.q 0 t.nnodes;
  Array.fill t.values 0 t.nnodes Logic.X;
  Array.fill t.last 0 t.nnodes Logic.X

let set_pad t wire v =
  match Hashtbl.find_opt t.pad_node wire with
  | Some n -> t.values.(n) <- v
  | None -> ()

(* LUT evaluation on node values with inversion mask; X-aware.

   The value-representation primitives (pin scan, Kleene completion over
   X pins, driver resolution with the glitch rule) live in
   {!Fsim_backend.Scalar}, shared as semantics-of-record with the
   bit-sliced lane backend ({!Fsim_backend.Lanes}) that {!Fsim_batch}
   evaluates 32 faults at a time.  Calls are fully qualified so ocamlopt
   keeps them direct (and inlines the small ones) — this is the
   simulator's innermost loop. *)

let lut_eval t node =
  Fsim_backend.Scalar.lut_eval ~values:t.values ~pins:t.inputs.(node)
    ~table:t.table.(node) ~inv:t.inv.(node)

let resolve_settle = Fsim_backend.Scalar.resolve_settle
let resolve_glitch = Fsim_backend.Scalar.resolve_glitch

let eval_node t node =
  let k = t.kind.(node) in
  if k = k_resolve then begin
    (* A multiply-driven node: the drivers fight.  The settled value is
       their agreement; beyond that we are pessimistic about skew — if any
       driver transitioned this cycle, the fight glitches and the node
       reads unknown (two copies of the same TMR signal are shorted
       harmlessly in a zero-delay model, but not in silicon). *)
    let ins = t.inputs.(node) in
    let len = Array.length ins in
    if len = 0 then Logic.X
    else
      let v = resolve_settle t.values ins 1 len t.values.(ins.(0)) in
      match v with
      | Logic.X -> Logic.X
      | Logic.Zero | Logic.One -> resolve_glitch t.last ins 0 len v
  end
  else if k = k_bel_comb then lut_eval t node
  else if k = k_bel_reg then t.q.(node)
  else if k = k_constx then Logic.X
  else (* k_pad *) t.values.(node)

(* Node evaluation is monotone in the information order (X below Zero
   and One): Kleene LUT completion, [Logic.resolve], and the glitch rule
   with [last] fixed within the cycle.  Iterating a cyclic SCC from all-X
   therefore only ever raises values, each node at most once, and
   reaches the least fixpoint within [n] changing sweeps plus the one
   that sees no change.  The batch engine ({!Fsim_batch}) relies on that
   same least fixpoint, so a sweep count beyond [n + 1] is a broken
   invariant, not a slow loop to cut short. *)
let kleene_spend budget who =
  if !budget = 0 then
    failwith (who ^ ": Kleene iteration exceeded n+1 sweeps (non-monotone node)");
  decr budget

let eval t =
  let off = t.scc_off and nodes = t.scc_nodes in
  for si = 0 to t.nsccs - 1 do
    if Bytes.get t.scc_cyclic si = '\000' then begin
      let node = nodes.(off.(si)) in
      t.values.(node) <- eval_node t node
    end
    else begin
      (* Kleene iteration from X *)
      let lo = off.(si) and hi = off.(si + 1) in
      for i = lo to hi - 1 do
        t.values.(nodes.(i)) <- Logic.X
      done;
      let changed = ref true in
      let budget = ref (hi - lo + 1) in
      while !changed do
        kleene_spend budget "Fsim.eval";
        changed := false;
        for i = lo to hi - 1 do
          let node = nodes.(i) in
          let v = eval_node t node in
          if not (Logic.equal v t.values.(node)) then begin
            t.values.(node) <- v;
            changed := true
          end
        done
      done
    end
  done

let clock t =
  (* Only registered bels ever read [q]; combinational bels re-evaluate
     from their pins on every [eval]. *)
  let regs = t.reg_nodes in
  for i = 0 to Array.length regs - 1 do
    let node = regs.(i) in
    if not t.ce_frozen.(node) then t.q.(node) <- lut_eval t node
  done;
  Array.blit t.values 0 t.last 0 t.nnodes

let step t =
  eval t;
  clock t;
  eval t

let read t wire =
  match Hashtbl.find_opt t.watch_node wire with
  | Some n -> t.values.(n)
  | None -> invalid_arg "Fsim.read: wire is not watched"

(* Node-id access: resolving wires to node ids once per simulator keeps
   the per-cycle IO loop free of hash lookups (and their option cells). *)

let watch_nodes t wires =
  Array.map
    (fun w ->
      match Hashtbl.find_opt t.watch_node w with
      | Some n -> n
      | None -> invalid_arg "Fsim.watch_nodes: wire is not watched")
    wires

let pad_nodes t wires =
  Array.map
    (fun w ->
      match Hashtbl.find_opt t.pad_node w with Some n -> n | None -> -1)
    wires

let node_value t n = t.values.(n)
let set_node t n v = if n >= 0 then t.values.(n) <- v

(* ------------------------------------------------------------------ *)
(* Cone snapshot: what the last [build] in a workspace observed.       *)

type cone = {
  c_dev : Device.t;
  c_marked : Bytes.t;  (* wire -> '\001' when in the observable cone *)
  c_wire_node : int array;  (* wire -> node id, -1 when unresolved *)
  c_bels : int array;  (* cone bels *)
  c_bel_node : int array;  (* bel -> node id, -1 outside the cone *)
}

let snapshot_cone ws =
  let dev = ws.ws_dev in
  let ep = ws.epoch in
  let nw = dev.Device.nwires in
  let marked = Bytes.make nw '\000' in
  let wire_node = Array.make nw (-1) in
  for w = 0 to nw - 1 do
    if ws.wire_mark.(w) = ep then Bytes.set marked w '\001';
    if ws.res_stamp.(w) = ep then wire_node.(w) <- ws.res_node.(w)
  done;
  let bels = ref [] in
  let bel_node = Array.make dev.Device.nbels (-1) in
  for b = dev.Device.nbels - 1 downto 0 do
    if ws.bel_node_stamp.(b) = ep then begin
      bel_node.(b) <- ws.bel_node_id.(b);
      bels := b :: !bels
    end
  done;
  {
    c_dev = dev;
    c_marked = marked;
    c_wire_node = wire_node;
    c_bels = Array.of_list !bels;
    c_bel_node = bel_node;
  }

let cone_marked c w = Bytes.get c.c_marked w <> '\000'
let cone_node_of_bel c b = c.c_bel_node.(b)

(* ------------------------------------------------------------------ *)
(* Per-fault planning: how cheaply can one bit flip be simulated?      *)

type fault_path =
  | Path_silent
  | Path_patch
  | Path_reroute
  | Path_rebuild

let path_name = function
  | Path_silent -> "silent"
  | Path_patch -> "patch"
  | Path_reroute -> "reroute"
  | Path_rebuild -> "rebuild"

(* Decide, against the *golden* (un-flipped) extract state, how the flip
   of [bit] can be handled.  Every branch below is exact: [Path_silent]
   means a full rebuild would produce a simulator with identical watched
   behaviour, [Path_patch] means the change is a pure cell-content edit of
   an existing node, [Path_reroute] means only wire-component structure
   changes.  Anything unprovable falls back to [Path_rebuild]. *)
let plan_fault c ex bit =
  let dev = Extract.device ex in
  let db = Extract.database ex in
  let marked w = cone_marked c w in
  match Bitdb.resource db bit with
  | Bitdb.Pad_cfg _ -> Path_silent  (* electrically benign *)
  | Bitdb.Pad_enable pad ->
      if marked dev.Device.pad_wire.(pad) then Path_rebuild else Path_silent
  | Bitdb.Lut_bit (b, idx) ->
      if c.c_bel_node.(b) < 0 then Path_silent
      else
        let old_t = Extract.lut_table ex b in
        let new_t = old_t lxor (1 lsl idx) in
        (* a shrinking support keeps every wired pin valid (the table just
           ignores it); a growing support needs pins the cone never wired,
           which [fault_delta] resolves incrementally *)
        if support_mask new_t land lnot (support_mask old_t) = 0 then
          Path_patch
        else Path_reroute
  | Bitdb.In_inv (b, _) ->
      if c.c_bel_node.(b) < 0 then Path_silent else Path_patch
  | Bitdb.Ff_init b | Bitdb.Sr_inv b | Bitdb.Ce_inv b ->
      if c.c_bel_node.(b) < 0 then Path_silent
      else if Extract.out_sel ex b then Path_patch
      else Path_silent (* flip-flop state is never read on a comb bel *)
  | Bitdb.Out_sel b ->
      (* comb <-> reg retargets one node's kind; the wiring (pins are
         collected independently of registered-ness) is untouched *)
      if c.c_bel_node.(b) < 0 then Path_silent else Path_reroute
  | Bitdb.Pip p ->
      let s = dev.Device.pip_src.(p) and d = dev.Device.pip_dst.(p) in
      let on = Extract.bit_is_set ex bit in
      if dev.Device.pip_bidir.(p) then
        if on then
          (* removing a short *)
          if marked s || marked d then Path_reroute else Path_silent
        else begin
          (* adding a short *)
          match (marked s, marked d) with
          | false, false -> Path_silent
          | true, true -> Path_reroute
          | ms, _ ->
              (* antenna: shorting an isolated floating wire onto a cone
                 wire adds a driverless member to its component — the
                 resolved node is unchanged and nothing in the cone reads
                 the floating side *)
              let u = if ms then d else s in
              if Extract.drivers ex u = [] && Extract.links ex u = [] then
                Path_silent
              else Path_reroute
        end
      else if marked d then Path_reroute
      else Path_silent (* only [drivers dst] changes, and the cone never
                          reads it *)

(* ------------------------------------------------------------------ *)
(* Local repair of a [Path_reroute] fault against the base graph.  The
   flipped bit is already applied to [ex].  For a routing bit only the
   electrical components containing the pip endpoints changed: they are
   re-resolved, and every reader whose resolution passed through them is
   remapped.  A support-widening LUT bit or an out_sel flip changes no
   wiring at all — just one cell's pins or kind — but needs the same
   incremental resolution, so it lands here too.  [Too_hard] when the
   change reaches outside what the base cone knows (live out-of-cone
   bels or pads, driver loops): the caller rebuilds.  An unused constant
   bel outside the cone is not live: it resolves to a shared constant
   node.

   All per-wire and per-node maps live in the caller-owned scratch and
   are epoch-stamped, so the steady-state fault loop allocates almost
   nothing (under multiple domains every minor collection is a
   stop-the-world rendezvous). *)

exception Too_hard

type scratch = {
  mutable s_epoch : int;
  mutable s_wcap : int;
  mutable s_wn_stamp : int array;  (* wire -> epoch of s_wn validity *)
  mutable s_wn : int array;  (* wire -> resolved node (memo + override) *)
  mutable s_wc_stamp : int array;  (* wire -> epoch of s_wc validity *)
  mutable s_wc : int array;  (* wire -> affected component index *)
  mutable s_ing : int array;  (* wire -> epoch when resolution in progress *)
  mutable s_orph_cap : int;
  mutable s_orph : int array;  (* old node id -> epoch when orphaned *)
}

let make_scratch () =
  {
    s_epoch = 0;
    s_wcap = 0;
    s_wn_stamp = [||];
    s_wn = [||];
    s_wc_stamp = [||];
    s_wc = [||];
    s_ing = [||];
    s_orph_cap = 0;
    s_orph = [||];
  }

let scratch_wires_ensure s nw =
  if s.s_wcap < nw then begin
    s.s_wcap <- nw;
    s.s_wn_stamp <- Array.make nw 0;
    s.s_wn <- Array.make nw 0;
    s.s_wc_stamp <- Array.make nw 0;
    s.s_wc <- Array.make nw 0;
    s.s_ing <- Array.make nw 0
  end

let scratch_orph_ensure s n =
  if s.s_orph_cap < n then begin
    s.s_orph_cap <- max n (2 * s.s_orph_cap);
    s.s_orph <- Array.make s.s_orph_cap 0
  end

(* Phase A of {!fault_delta}: re-resolve the electrical components
   affected by the flip under the post-flip extract, memoising
   wire->node resolutions and reserving appended resolve nodes.  Raises
   [Too_hard] whenever the change reaches outside what the base cone
   knows. *)

type phase_a = {
  pa_n_extra : int;
  pa_extras : (int, int array * int array ref) Hashtbl.t;
      (* appended node id -> (driver wires, resolved inputs) *)
  pa_cell : [ `None | `Lut of int * int * int array | `Out of int * bool ];
  pa_node_of : int -> int;  (* valid until the scratch's next epoch *)
  pa_orphaned : int -> bool;
  pa_orph : int list;  (* old node ids whose resolution went stale *)
  pa_have_orphans : bool;
}

let phase_a ~scratch:s c base ex bit =
  let dev = Extract.device ex in
  let db = Extract.database ex in
  let seeds, cell =
    match Bitdb.resource db bit with
    | Bitdb.Pip p ->
        let sw = dev.Device.pip_src.(p) and dw = dev.Device.pip_dst.(p) in
        ((if dev.Device.pip_bidir.(p) then [ sw; dw ] else [ dw ]), `None)
    | Bitdb.Lut_bit (b, _) -> ([], `Lut b)
    | Bitdb.Out_sel b -> ([], `Out b)
    | _ -> invalid_arg "Fsim.fault_delta: bit is not reroutable"
  in
  scratch_wires_ensure s dev.Device.nwires;
  scratch_orph_ensure s base.nnodes;
  s.s_epoch <- s.s_epoch + 1;
  let ep = s.s_epoch in
  (* the affected components under the post-flip extract *)
  let comps = ref [] in
    let ncomps = ref 0 in
    let add_comp seed =
      if s.s_wc_stamp.(seed) <> ep then begin
        let members = ref [] in
        let rec collect u =
          if s.s_wc_stamp.(u) <> ep then begin
            s.s_wc_stamp.(u) <- ep;
            s.s_wc.(u) <- !ncomps;
            members := u :: !members;
            List.iter collect (Extract.links ex u)
          end
        in
        collect seed;
        let members = List.rev !members in
        let drivers = List.concat_map (fun u -> Extract.drivers ex u) members in
        comps := (members, drivers) :: !comps;
        incr ncomps
      end
    in
    List.iter add_comp seeds;
    let comp_arr = Array.of_list (List.rev !comps) in
    (* Old node ids whose wire->node association may now be stale: every
       reader that resolved through an affected component got that
       component's old node id (single-driver chains collapse onto it). *)
    let norph = ref 0 in
    let orph = ref [] in
    Array.iter
      (fun (members, _) ->
        List.iter
          (fun w ->
            let n = c.c_wire_node.(w) in
            if n >= 0 && s.s_orph.(n) <> ep then begin
              s.s_orph.(n) <- ep;
              orph := n :: !orph;
              incr norph
            end)
          members)
      comp_arr;
    let orphaned n = n < base.nnodes && s.s_orph.(n) = ep in
    (* New resolve nodes appended past the base graph *)
    let n_extra = ref 0 in
    let extras = Hashtbl.create 8 in (* id -> (driver wires, inputs ref) *)
    let reserve_resolve us =
      let id = base.nnodes + !n_extra in
      incr n_extra;
      Hashtbl.replace extras id (us, ref [||]);
      id
    in
    let set_node w n =
      s.s_wn_stamp.(w) <- ep;
      s.s_wn.(w) <- n
    in
    let comp_state = Array.make (Array.length comp_arr) 0 in
    let rec node_of w =
      if s.s_wn_stamp.(w) = ep then s.s_wn.(w) (* memo and overrides *)
      else if s.s_wc_stamp.(w) = ep then begin
        process_comp s.s_wc.(w);
        s.s_wn.(w)
      end
      else begin
        if s.s_ing.(w) = ep then raise Too_hard;
        s.s_ing.(w) <- ep;
        let n =
          match dev.Device.wkind.(w) with
          | Device.PadIn ->
              let old = c.c_wire_node.(w) in
              if old >= 0 then old
              else
                let pad = dev.Device.wire_pad.(w) in
                if pad >= 0 && Extract.pad_enabled ex pad then
                  raise Too_hard (* live pad the base never saw *)
                else x_node_id
          | Device.BelOut ->
              let b = dev.Device.wire_bel.(w) in
              let bn = c.c_bel_node.(b) in
              if bn >= 0 then bn
              else if Extract.out_sel ex b then
                raise Too_hard (* live registered bel outside the cone *)
              else
                (* an unused comb bel: a rebuild would give it a pinless
                   node returning its constant table, as the shared
                   constant nodes do *)
                let table = Extract.lut_table ex b in
                if support_mask table <> 0 then raise Too_hard
                else if table land 1 = 0 then base.const_zero
                else base.const_one
          | Device.HSingle | Device.VSingle | Device.HDouble | Device.VDouble
          | Device.HLong | Device.VLong | Device.BelIn | Device.PadOut -> (
              let old = c.c_wire_node.(w) in
              if old >= 0 && not (orphaned old) then old
              else begin
                (* this component's own structure is unchanged (it
                   contains no pip endpoint), but its resolution may pass
                   through affected ones *)
                let members = ref [] in
                let rec collect u =
                  if not (List.mem u !members) then begin
                    members := u :: !members;
                    List.iter collect (Extract.links ex u)
                  end
                in
                collect w;
                let drvs =
                  List.concat_map (fun u -> Extract.drivers ex u) !members
                in
                match drvs with
                | [] -> x_node_id
                | [ u ] -> node_of u
                | _ ->
                    (* multi-driven: its private resolve node still stands
                       (inputs are fixed by the global remap below) *)
                    if old >= 0 then old else raise Too_hard
              end)
        in
        set_node w n;
        n
      end
    and process_comp ci =
      if comp_state.(ci) = 1 then raise Too_hard (* pure driver loop *)
      else if comp_state.(ci) = 0 then begin
        comp_state.(ci) <- 1;
        let members, drvs = comp_arr.(ci) in
        (match drvs with
        | [] ->
            List.iter (fun u -> set_node u x_node_id) members;
            comp_state.(ci) <- 2
        | [ u ] ->
            let n = node_of u in
            List.iter (fun m -> set_node m n) members;
            comp_state.(ci) <- 2
        | us ->
            (* register the node first so combinational cycles through the
               component terminate on it, as in [build] *)
            let us = Array.of_list us in
            let id = reserve_resolve us in
            List.iter (fun m -> set_node m id) members;
            comp_state.(ci) <- 2;
            let _, ins = Hashtbl.find extras id in
            ins := Array.map node_of us)
      end
    in
    for ci = 0 to Array.length comp_arr - 1 do
      process_comp ci
    done;
    (* Resolve the cell override (may raise Too_hard, may touch memo but
       never allocates extras) while [n_extra] is still growing — after
       this point the node count is final. *)
    let cell =
      match cell with
      | `None -> `None
      | `Lut b ->
          let table = Extract.lut_table ex b in (* post-flip *)
          let mask = support_mask table in
          let row =
            Array.init 4 (fun j ->
                if (mask lsr j) land 1 = 1 then
                  node_of dev.Device.bel_in.(b).(j)
                else -1)
          in
          `Lut (c.c_bel_node.(b), table, row)
      | `Out b ->
          `Out (c.c_bel_node.(b), Extract.out_sel ex b)
    in
    {
      pa_n_extra = !n_extra;
      pa_extras = extras;
      pa_cell = cell;
      pa_node_of = node_of;
      pa_orphaned = orphaned;
      pa_orph = !orph;
      pa_have_orphans = !norph > 0;
    }

(* ------------------------------------------------------------------ *)
(* Read-only graph view + fault overlays: what the bit-parallel batched
   engine ({!Fsim_batch}) needs from a base simulator.  The view shares
   the arrays (no copy); treat them as immutable. *)

type view = {
  v_nnodes : int;
  v_kind : int array;
  v_inputs : int array array;
  v_table : int array;
  v_inv : int array;
  v_ce_frozen : bool array;
  v_q_init : Logic.t array;
  v_nsccs : int;
  v_scc_off : int array;
  v_scc_nodes : int array;
  v_scc_cyclic : Bytes.t;
}

let view t =
  {
    v_nnodes = t.nnodes;
    v_kind = t.kind;
    v_inputs = t.inputs;
    v_table = t.table;
    v_inv = t.inv;
    v_ce_frozen = t.ce_frozen;
    v_q_init = t.q_init;
    v_nsccs = t.nsccs;
    v_scc_off = t.scc_off;
    v_scc_nodes = t.scc_nodes;
    v_scc_cyclic = t.scc_cyclic;
  }

let kind_bel_comb = k_bel_comb
let kind_bel_reg = k_bel_reg
let kind_resolve = k_resolve

(* Reverse CSR over [inputs] (successors of each node), standalone: the
   batch engine builds it once per worker over the base graph and keeps
   it for the whole campaign. *)
let reader_csr sim =
  let n = sim.nnodes in
  let off = Array.make (n + 1) 0 in
  for node = 0 to n - 1 do
    let ins = sim.inputs.(node) in
    for j = 0 to Array.length ins - 1 do
      let p = ins.(j) in
      if p >= 0 then off.(p + 1) <- off.(p + 1) + 1
    done
  done;
  for i = 1 to n do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let succ = Array.make (max 1 off.(n)) 0 in
  let cursor = Array.copy off in
  for node = 0 to n - 1 do
    let ins = sim.inputs.(node) in
    for j = 0 to Array.length ins - 1 do
      let p = ins.(j) in
      if p >= 0 then begin
        succ.(cursor.(p)) <- node;
        cursor.(p) <- cursor.(p) + 1
      end
    done
  done;
  (off, succ)

(* Inverse of the cone's bel -> node map, for resolving which device bel
   a comb/reg node came from (bel pins live on the device, not the
   graph).  Built once per worker. *)
let bel_map c base =
  let m = Array.make base.nnodes (-1) in
  Array.iter
    (fun b ->
      let n = c.c_bel_node.(b) in
      if n >= 0 && n < base.nnodes then m.(n) <- b)
    c.c_bels;
  m

type cell_patch =
  | Cp_table of int
  | Cp_inv of int
  | Cp_qinit of Logic.t
  | Cp_ce of bool
  | Cp_reg of bool

type delta = {
  dl_cell : (int * cell_patch) option;
  dl_rows : (int * int array) array;
  dl_extras : (int array * int array) array;
  dl_watch : (int * int) array;
}

(* A [Path_patch] fault as an overlay: one cell-content override.  The
   bit is already flipped in [ex]. *)
let patch_delta c ex bit =
  let db = Extract.database ex in
  let cell =
    match Bitdb.resource db bit with
    | Bitdb.Lut_bit (b, _) ->
        (c.c_bel_node.(b), Cp_table (Extract.lut_table ex b))
    | Bitdb.In_inv (b, _) ->
        (c.c_bel_node.(b), Cp_inv (Extract.in_inv_mask ex b))
    | Bitdb.Ff_init b | Bitdb.Sr_inv b ->
        (c.c_bel_node.(b), Cp_qinit (Extract.ff_init ex b))
    | Bitdb.Ce_inv b -> (c.c_bel_node.(b), Cp_ce (Extract.ce_inv ex b))
    | _ -> invalid_arg "Fsim.patch_delta: not a patchable bit"
  in
  { dl_cell = Some cell; dl_rows = [||]; dl_extras = [||]; dl_watch = [||] }

(* A [Path_reroute] fault as an overlay over the *base* graph: runs
   phase A, then finds the stale reader rows through the base reader
   CSR from the orphaned nodes and re-resolves them ([node_of] over the
   same wires a rebuild would walk).  An out_sel flip becomes a kind
   override of its node; an orphaned watch node re-resolves like any
   stale reader (a disabled pad reads X, as in [build]).  [None] when
   the change reaches outside what the base cone knows: the caller
   rebuilds. *)
let fault_delta ~scratch:s c base ex bit ~watch ~succ_off ~succ ~bel_of =
  let dev = Extract.device ex in
  if dev != c.c_dev then
    invalid_arg "Fsim.fault_delta: cone from another device";
  try
    let pa = phase_a ~scratch:s c base ex bit in
    let node_of = pa.pa_node_of and orphaned = pa.pa_orphaned in
    let cell =
      match pa.pa_cell with
      | `Out (node, registered) -> Some (node, Cp_reg registered)
      | `None -> None
      | `Lut (node, table, _) -> Some (node, Cp_table table)
    in
    let remaps = ref [] in
    if pa.pa_have_orphans then
      Array.iteri
        (fun i w ->
          let nd =
            match Hashtbl.find_opt base.watch_node w with
            | Some nd -> nd
            | None -> invalid_arg "Fsim.fault_delta: wire is not watched"
          in
          if orphaned nd then begin
            let pad = dev.Device.wire_pad.(w) in
            let nd' =
              if pad >= 0 && not (Extract.pad_enabled ex pad) then x_node_id
              else node_of w
            in
            if nd' <> nd then remaps := (i, nd') :: !remaps
          end)
        watch;
    let rows = ref [] in
    let row_done = Hashtbl.create 8 in
    let add_cell_row () =
      match pa.pa_cell with
      | `Lut (node, _, row) ->
          Hashtbl.add row_done node ();
          rows := (node, row) :: !rows
      | `None | `Out _ -> ()
    in
    add_cell_row ();
    let add_row node =
      if not (Hashtbl.mem row_done node) then begin
        Hashtbl.add row_done node ();
        if Array.length base.res_wires.(node) > 0 then
          rows := (node, Array.map node_of base.res_wires.(node)) :: !rows
        else
          let k = base.kind.(node) in
          if k = k_bel_comb || k = k_bel_reg then begin
            let b = bel_of.(node) in
            if b < 0 then raise Too_hard;
            let pins = base.inputs.(node) in
            let row =
              Array.mapi
                (fun j p ->
                  if p < 0 then -1 else node_of dev.Device.bel_in.(b).(j))
                pins
            in
            rows := (node, row) :: !rows
          end
          (* pads and constants have no input rows *)
      end
    in
    List.iter
      (fun n ->
        for e = succ_off.(n) to succ_off.(n + 1) - 1 do
          add_row succ.(e)
        done)
      pa.pa_orph;
    let extras =
      Array.init pa.pa_n_extra (fun i ->
          let us, ins = Hashtbl.find pa.pa_extras (base.nnodes + i) in
          (!ins, us))
    in
    Some
      {
        dl_cell = cell;
        dl_rows = Array.of_list !rows;
        dl_extras = extras;
        dl_watch = Array.of_list (List.rev !remaps);
      }
  with Too_hard -> None

(* ------------------------------------------------------------------ *)
(* Baseline tape: the fault-free per-cycle value of every node, packed
   2 bits per three-valued logic value.  One tape per worker amortises
   the single fault-free run over every fault the worker executes. *)

type tape = {
  tp_nnodes : int;
  tp_cycles : int;
  tp_stride : int;  (* bytes per cycle *)
  tp_data : Bytes.t;
}

let logic_code = Fsim_backend.Scalar.logic_code
let code_logic = Fsim_backend.Scalar.code_logic

let tape_create ~nnodes ~cycles =
  if nnodes < 0 || cycles < 0 then invalid_arg "Fsim.tape_create";
  let stride = (nnodes + 3) / 4 in
  {
    tp_nnodes = nnodes;
    tp_cycles = cycles;
    tp_stride = stride;
    tp_data = Bytes.make (max 1 (stride * cycles)) '\000';
  }

let tape_nnodes tp = tp.tp_nnodes
let tape_cycles tp = tp.tp_cycles

let tape_set tp ~cycle ~node v =
  if cycle < 0 || cycle >= tp.tp_cycles || node < 0 || node >= tp.tp_nnodes
  then invalid_arg "Fsim.tape_set";
  let i = (tp.tp_stride * cycle) + (node lsr 2) in
  let sh = (node land 3) * 2 in
  let b = Char.code (Bytes.get tp.tp_data i) in
  Bytes.set tp.tp_data i
    (Char.chr ((b land lnot (3 lsl sh)) lor (logic_code v lsl sh)))

(* Unchecked read for the per-cycle hot loops below; bounds are
   established once per fault. *)
let tape_get_u tp cycle node =
  let b =
    Char.code
      (Bytes.unsafe_get tp.tp_data ((tp.tp_stride * cycle) + (node lsr 2)))
  in
  code_logic ((b lsr ((node land 3) * 2)) land 3)

let tape_get tp ~cycle ~node =
  if cycle < 0 || cycle >= tp.tp_cycles || node < 0 || node >= tp.tp_nnodes
  then invalid_arg "Fsim.tape_get";
  tape_get_u tp cycle node

let tape_record tp t ~cycle =
  if t.nnodes <> tp.tp_nnodes then
    invalid_arg "Fsim.tape_record: tape sized for another simulator";
  if cycle < 0 || cycle >= tp.tp_cycles then invalid_arg "Fsim.tape_record";
  let base = tp.tp_stride * cycle in
  let n = t.nnodes in
  let v = t.values in
  let node = ref 0 in
  let i = ref 0 in
  while !node < n do
    let lim = min 4 (n - !node) in
    let b = ref 0 in
    for j = 0 to lim - 1 do
      b := !b lor (logic_code v.(!node + j) lsl (j * 2))
    done;
    Bytes.set tp.tp_data (base + !i) (Char.chr !b);
    incr i;
    node := !node + 4
  done

(* ------------------------------------------------------------------ *)
(* Batch-engine divergence provenance. *)

type provenance = {
  pv_diverged : int;
  pv_first_node : int;
  pv_first_cycle : int;
  pv_depth : int;
  pv_cone : int;
  pv_voter_held : bool;
}

(* ------------------------------------------------------------------ *)
(* Telemetry: a shadowing wrapper so every caller is counted.  A
   planned reroute with no overlay falls back to a full rebuild, a cost
   regression (CI requires 0 on the exhaustive reduced TMR_p2
   campaign); counting is one atomic add and needs no registered
   sink. *)

let m_reroute_fallback = Tmr_obs.Metrics.counter "fsim.reroute_fallback"

let fault_delta ~scratch c base ex bit ~watch ~succ_off ~succ ~bel_of =
  let r = fault_delta ~scratch c base ex bit ~watch ~succ_off ~succ ~bel_of in
  if Option.is_none r then Tmr_obs.Metrics.incr m_reroute_fallback;
  r

let delta_of_plan ~scratch c base ex bit path ~watch ~succ_off ~succ ~bel_of =
  match path with
  | Path_patch -> Some (patch_delta c ex bit)
  | Path_reroute ->
      fault_delta ~scratch c base ex bit ~watch ~succ_off ~succ ~bel_of
  | Path_silent | Path_rebuild -> None
