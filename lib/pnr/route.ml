module Device = Tmr_arch.Device

type result = {
  net_pips : int array array;
  net_wires : int array array;
  sink_stats : (int * int * int) array array;
  iterations : int;
}

(* Min-heap of (cost, wire) on float keys.  [pop] returns the wire only:
   the router never reads the popped key, and returning it would box.

   Both sifts move a hole instead of swapping, and [pop] picks the smaller
   child without a branch, the left child on a tie.  Each step makes the
   same comparison outcome as the swap-based textbook sift (move up while
   the parent is strictly greater; move down to the smaller child while it
   is strictly smaller, the left one on a tie), so every layout, and with it
   every tie between equal keys, is the same.  The sifts touch no index
   above [n], which is below the capacity, hence the unsafe accesses. *)
module Heap = struct
  type t = {
    mutable keys : float array;
    mutable data : int array;
    mutable n : int;
  }

  let create () = { keys = Array.make 1024 0.0; data = Array.make 1024 0; n = 0 }

  let clear h = h.n <- 0
  let size h = h.n

  let grow h =
    h.keys <- Array.append h.keys (Array.make (Array.length h.keys) 0.0);
    h.data <- Array.append h.data (Array.make (Array.length h.data) 0)

  (* inlined so the float key is never boxed at the call *)
  let[@inline] push h k v =
    if h.n >= Array.length h.keys then grow h;
    let keys = h.keys and data = h.data in
    let i = ref h.n in
    h.n <- !i + 1;
    while
      !i > 0 && Array.unsafe_get keys ((!i - 1) / 2) > k
    do
      let p = (!i - 1) / 2 in
      Array.unsafe_set keys !i (Array.unsafe_get keys p);
      Array.unsafe_set data !i (Array.unsafe_get data p);
      i := p
    done;
    Array.unsafe_set keys !i k;
    Array.unsafe_set data !i v

  (* requires [h.n > 0] *)
  let pop h =
    let keys = h.keys and data = h.data in
    let v = Array.unsafe_get data 0 in
    let n = h.n - 1 in
    h.n <- n;
    let k = Array.unsafe_get keys n and x = Array.unsafe_get data n in
    (* sentinel: a left child at n - 1 has a right sibling that never wins *)
    Array.unsafe_set keys n infinity;
    let i = ref 0 and c = ref 1 in
    while
      !c < n
      &&
      let l = !c in
      let m = l + Bool.to_int (Array.unsafe_get keys (l + 1) < Array.unsafe_get keys l) in
      c := m;
      Array.unsafe_get keys m < k
    do
      Array.unsafe_set keys !i (Array.unsafe_get keys !c);
      Array.unsafe_set data !i (Array.unsafe_get data !c);
      i := !c;
      c := (2 * !c) + 1
    done;
    Array.unsafe_set keys !i k;
    Array.unsafe_set data !i x;
    v
end

let driver_wire dev pack place ni =
  let drv = pack.Pack.nets.(ni).Pack.driver in
  let s = pack.Pack.site_of_cell.(drv) in
  if s >= 0 then dev.Device.bel_out.(place.Place.site_bel.(s))
  else begin
    let pad = place.Place.pad_of_cell.(drv) in
    assert (pad >= 0);
    dev.Device.pad_wire.(pad)
  end

let sink_wire dev _pack place sink =
  match sink with
  | Pack.Site_pin (s, j) -> dev.Device.bel_in.(place.Place.site_bel.(s)).(j)
  | Pack.Out_pad c -> dev.Device.pad_wire.(place.Place.pad_of_cell.(c))

let base_cost dev w =
  match dev.Device.wkind.(w) with
  | Device.HSingle | Device.VSingle -> 1.0
  | Device.HDouble | Device.VDouble -> 1.4
  | Device.HLong | Device.VLong -> 4.0
  | Device.BelIn | Device.BelOut | Device.PadIn | Device.PadOut -> 0.6

let is_long dev w =
  match dev.Device.wkind.(w) with
  | Device.HLong | Device.VLong -> true
  | _ -> false

(* branch-free [abs] *)
let[@inline] iabs x =
  let m = x asr (Sys.int_size - 1) in
  (x lxor m) - m

let run ?(max_iters = 60) dev pack place =
  let nwires = dev.Device.nwires in
  let nnets = Array.length pack.Pack.nets in
  let wrow = dev.Device.wrow and wcol = dev.Device.wcol in
  (* Neighbour table in CSR form: the fanout of wire w is the slots
     off.(w) .. off.(w+1)-1 of [adj], in [wire_out] order (which fixes the
     order of heap pushes, and so the routes).  A slot packs the pip, the
     far wire's row, column and long-line flag, and the far wire itself as
     [pip | row | col | long | wire] (most significant first), so the
     bounding-box test and the A* distance read nothing but the slot. *)
  let bits_for n =
    let b = ref 1 in
    while 1 lsl !b < n do incr b done;
    !b
  in
  let max_of a = Array.fold_left max 0 a in
  assert (Array.for_all (fun x -> x >= 0) wrow);
  assert (Array.for_all (fun x -> x >= 0) wcol);
  let wbits = bits_for nwires in
  let cbits = bits_for (max_of wcol + 1) and rbits = bits_for (max_of wrow + 1) in
  let long_shift = wbits in
  let col_shift = long_shift + 1 in
  let row_shift = col_shift + cbits in
  let pip_shift = row_shift + rbits in
  if pip_shift + bits_for dev.Device.npips > 63 then
    invalid_arg "Route.run: device too large for a packed neighbour slot";
  let wmask = (1 lsl wbits) - 1 in
  let cmask = (1 lsl cbits) - 1 and rmask = (1 lsl rbits) - 1 in
  let geo w =
    (wrow.(w) lsl row_shift) lor (wcol.(w) lsl col_shift)
    lor (Bool.to_int (is_long dev w) lsl long_shift)
  in
  let off = Array.make (nwires + 1) 0 in
  for w = 0 to nwires - 1 do
    off.(w + 1) <- off.(w) + Array.length dev.Device.wire_out.(w)
  done;
  let adj = Array.make off.(nwires) 0 in
  for w = 0 to nwires - 1 do
    let pips = dev.Device.wire_out.(w) in
    for k = 0 to Array.length pips - 1 do
      let d = Device.pip_other dev pips.(k) w in
      adj.(off.(w) + k) <- (pips.(k) lsl pip_shift) lor geo d lor d
    done
  done;
  let occ = Array.make nwires 0 in
  let hist = Array.make nwires 0.0 in
  let pres_fac = ref 0.6 in
  (* One record of [stride] floats per wire, so a relaxation reads and
     writes one record instead of four arrays:
     - [f_wcost]: the cached PathFinder wire cost.  It changes only with
       occ (re-set at every rip-up and commit) and with pres_fac/hist
       (re-set for every wire at the start of an iteration);
     - [f_cost]: the search cost from the tree, valid while [f_stamp]
       holds the current search epoch;
     - [f_expanded]: the epoch once w's fanout has been scanned at its
       current cost; a relaxation that lowers the cost clears it.
     Epochs count searches, far below 2^53, so they are exact as floats. *)
  let stride = 4 and f_wcost = 0 and f_cost = 1 and f_stamp = 2 and f_expanded = 3 in
  let wr = Float.Array.make (stride * nwires) 0.0 in
  let set_cost w =
    let over = float_of_int occ.(w) in
    Float.Array.set wr ((stride * w) + f_wcost)
      ((base_cost dev w *. (1.0 +. (over *. !pres_fac))) +. hist.(w))
  in
  let prev = Array.make nwires (-1) in
  let tree_stamp = Array.make nwires 0 in
  let epoch = ref 0 in
  let tree_epoch = ref 0 in
  let heap = Heap.create () in
  (* the routing tree of the net being routed, oldest wire first; its
     wires are distinct, so nwires slots always suffice *)
  let tree = Array.make nwires 0 and tree_n = ref 0 in
  let tree_pips = Array.make nwires 0 and tree_pips_n = ref 0 in
  let add buf n x =
    buf.(!n) <- x;
    incr n
  in
  (* a net's result arrays list its tree newest wire (and pip) first *)
  let newest_first buf n = Array.init n (fun i -> buf.(n - 1 - i)) in
  (* per tree wire: pips from the source, and the sum of their spans *)
  let depth = Array.make nwires 0 and spansum = Array.make nwires 0 in
  let net_wires = Array.make nnets [||] in
  let net_pips = Array.make nnets [||] in
  let srcs = Array.init nnets (fun ni -> driver_wire dev pack place ni) in
  let sinks =
    Array.init nnets (fun ni ->
        Array.of_list
          (List.map (sink_wire dev pack place) pack.Pack.nets.(ni).Pack.sinks))
  in
  (* Route one net inside its bounding box (tile coordinates of the source
     and sinks, widened by [margin]); long lines span a whole row or column
     and are never excluded.  Returns the first unreachable sink, or -1. *)
  let route_net ni margin =
    let src = srcs.(ni) and sks = sinks.(ni) in
    let rmin = ref wrow.(src) and rmax = ref wrow.(src) in
    let cmin = ref wcol.(src) and cmax = ref wcol.(src) in
    Array.iter
      (fun w ->
        let r = wrow.(w) and c = wcol.(w) in
        if r < !rmin then rmin := r;
        if r > !rmax then rmax := r;
        if c < !cmin then cmin := c;
        if c > !cmax then cmax := c)
      sks;
    let rmin = !rmin - margin and rmax = !rmax + margin in
    let cmin = !cmin - margin and cmax = !cmax + margin in
    incr tree_epoch;
    tree_stamp.(src) <- !tree_epoch;
    depth.(src) <- 0;
    spansum.(src) <- 0;
    tree_n := 0;
    tree_pips_n := 0;
    add tree tree_n src;
    let failed = ref (-1) in
    let s = ref 0 in
    while !failed < 0 && !s < Array.length sks do
      let sk = sks.(!s) in
      incr s;
      if tree_stamp.(sk) <> !tree_epoch then begin
        incr epoch;
        let ep = float_of_int !epoch in
        let skr = wrow.(sk) and skc = wcol.(sk) in
        Heap.clear heap;
        (* seed with the current tree, newest wire first *)
        for i = !tree_n - 1 downto 0 do
          let w = tree.(i) in
          Float.Array.set wr ((stride * w) + f_stamp) ep;
          Float.Array.set wr ((stride * w) + f_cost) 0.0;
          prev.(w) <- -1;
          let dist = abs (wrow.(w) - skr) + abs (wcol.(w) - skc) in
          Heap.push heap (0.9 *. float_of_int dist) w
        done;
        let found = ref false in
        while (not !found) && heap.Heap.n > 0 do
          let w = Heap.pop heap in
          if w = sk then found := true
          else begin
            let wb = stride * w in
            if Float.Array.unsafe_get wr (wb + f_expanded) <> ep then begin
              Float.Array.unsafe_set wr (wb + f_expanded) ep;
              let cw = Float.Array.unsafe_get wr (wb + f_cost) in
              for k = Array.unsafe_get off w to Array.unsafe_get off (w + 1) - 1 do
                let slot = Array.unsafe_get adj k in
                let r = (slot lsr row_shift) land rmask
                and c = (slot lsr col_shift) land cmask in
                (* in the box iff no difference to an edge is negative *)
                if
                  (slot lsr long_shift) land 1 = 1
                  || (r - rmin) lor (rmax - r) lor (c - cmin) lor (cmax - c) >= 0
                then begin
                  let d = slot land wmask in
                  let db = stride * d in
                  let cd = cw +. Float.Array.unsafe_get wr (db + f_wcost) in
                  if
                    Float.Array.unsafe_get wr (db + f_stamp) <> ep
                    || cd < Float.Array.unsafe_get wr (db + f_cost)
                  then begin
                    Float.Array.unsafe_set wr (db + f_stamp) ep;
                    Float.Array.unsafe_set wr (db + f_expanded) 0.0;
                    Float.Array.unsafe_set wr (db + f_cost) cd;
                    Array.unsafe_set prev d (slot lsr pip_shift);
                    let dist = iabs (r - skr) + iabs (c - skc) in
                    Heap.push heap (cd +. (0.9 *. float_of_int dist)) d
                  end
                end
              done
            end
          end
        done;
        if not !found then failed := sk
        else begin
          (* backtrack to the tree, adding path wires and pips to it *)
          let first = !tree_n in
          let w = ref sk in
          while tree_stamp.(!w) <> !tree_epoch do
            tree_stamp.(!w) <- !tree_epoch;
            add tree tree_n !w;
            add tree_pips tree_pips_n prev.(!w);
            w := Device.pip_other dev prev.(!w) !w
          done;
          (* !w is where the path joins the tree: walk back down to sk *)
          for i = !tree_n - 1 downto first do
            let x = tree.(i) in
            depth.(x) <- depth.(!w) + 1;
            spansum.(x) <- spansum.(!w) + Device.wire_span dev x;
            w := x
          done
        end
      end
    done;
    if !failed < 0 then begin
      net_wires.(ni) <- newest_first tree !tree_n;
      net_pips.(ni) <- newest_first tree_pips !tree_pips_n;
      Array.iter
        (fun w ->
          occ.(w) <- occ.(w) + 1;
          set_cost w)
        net_wires.(ni)
    end;
    !failed
  in
  let rip_up ni =
    Array.iter
      (fun w ->
        occ.(w) <- occ.(w) - 1;
        set_cost w)
      net_wires.(ni);
    net_wires.(ni) <- [||];
    net_pips.(ni) <- [||]
  in
  (* The net order is the permutation Array.sort makes of equal keys, not
     longest span first: the sort that was meant to do that compared
     bounding boxes before any were computed, so every span was 0.  Every
     committed route and bitstream depends on this permutation, hence the
     constant comparator (see DESIGN.md §18). *)
  let order = Array.init nnets (fun i -> i) in
  Array.sort (fun _ _ -> 0) order;
  let result = ref None in
  let iter = ref 0 in
  (* occupancy is counted per wire; a source wire occupied by its own single
     net is fine, so overuse means occ > 1 *)
  let overused w = occ.(w) > 1 in
  while !result = None && !iter < max_iters do
    let margin = 3 + (2 * !iter) in
    for w = 0 to nwires - 1 do
      set_cost w
    done;
    let route_error = ref None in
    Array.iter
      (fun ni ->
        (* PathFinder renegotiates every net each iteration: a net that is
           not itself overused may be squatting on the only access wires
           of a congested sink, and must be given the chance to move.
           Ripping it up first excludes its own occupancy from the costs. *)
        if !route_error = None then begin
          if Array.length net_wires.(ni) > 0 then rip_up ni;
          let sk = route_net ni margin in
          if sk >= 0 then
            route_error :=
              Some
                (Printf.sprintf "net %d: no path to sink %s" ni
                   (Device.describe_wire dev sk))
        end)
      order;
    (match !route_error with
    | Some msg when !iter >= max_iters - 1 -> result := Some (Error msg)
    | Some _ -> () (* enlarge bbox next iteration and retry *)
    | None ->
        let over = ref 0 in
        for w = 0 to nwires - 1 do
          if overused w then begin
            incr over;
            hist.(w) <- hist.(w) +. (0.5 *. float_of_int (occ.(w) - 1))
          end
        done;
        if !over = 0 then begin
          (* success: no wire is shared, so depth/spansum still hold what
             each net's last routing wrote *)
          let sink_stats =
            Array.map
              (Array.map (fun sk -> (sk, depth.(sk), spansum.(sk))))
              sinks
          in
          result :=
            Some
              (Ok
                 {
                   net_pips;
                   net_wires;
                   sink_stats;
                   iterations = !iter + 1;
                 })
        end
        else begin
          pres_fac := !pres_fac *. 1.7;
          if !iter = max_iters - 1 then begin
            let examples = ref [] in
            for w = nwires - 1 downto 0 do
              if overused w && List.length !examples < 4 then
                examples :=
                  Printf.sprintf "%s(occ=%d)" (Device.describe_wire dev w) occ.(w)
                  :: !examples
            done;
            result :=
              Some
                (Error
                   (Printf.sprintf
                      "unresolved congestion on %d wires after %d iterations: %s"
                      !over max_iters
                      (String.concat ", " !examples)))
          end
        end);
    incr iter
  done;
  match !result with
  | Some r -> r
  | None -> Error "router did not converge"
