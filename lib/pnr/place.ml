module Netlist = Tmr_netlist.Netlist
module Device = Tmr_arch.Device
module Arch = Tmr_arch.Arch
module Srand = Tmr_logic.Srand

type floorplan =
  [ `Free
  | `Domains ]

type t = {
  site_bel : int array;
  pad_of_cell : int array;
  cost : float;
}

(* The annealer works on "movables": sites and port cells.  Positions are
   tile coordinates (bels) or pad anchors. *)

let domain_of_site nl pack s =
  let site = pack.Pack.sites.(s) in
  let dom c = Netlist.domain nl c in
  match site.Pack.lut, site.Pack.ff with
  | Some c, _ -> dom c
  | None, Some c -> dom c
  | None, None -> -1

let region_of_domain (dev : Device.t) d =
  let cols = dev.Device.params.Arch.cols in
  if d < 0 then (0, cols - 1)
  else
    let third = cols / 3 in
    let lo = d * third in
    let hi = if d = 2 then cols - 1 else lo + third - 1 in
    (lo, hi)

let run ?(seed = 1) ?(moves_per_site = 128) ?(floorplan = `Free) dev pack nl =
  let rng = Srand.create (seed * 7919 + 13) in
  let nsites = Array.length pack.Pack.sites in
  let nbels = dev.Device.nbels in
  if nsites > nbels then
    failwith
      (Printf.sprintf "Place: design needs %d bels, device has %d" nsites nbels);
  let in_pads = Device.input_pads dev in
  let out_pads = Device.output_pads dev in
  let n_inputs = Array.length pack.Pack.live_inputs in
  let n_outputs = Array.length pack.Pack.live_outputs in
  if n_inputs > Array.length in_pads then
    failwith (Printf.sprintf "Place: %d input bits but %d input pads" n_inputs
                (Array.length in_pads));
  if n_outputs > Array.length out_pads then
    failwith (Printf.sprintf "Place: %d output bits but %d output pads" n_outputs
                (Array.length out_pads));
  (* --- initial placement --- *)
  let site_bel = Array.make nsites (-1) in
  let bel_site = Array.make nbels (-1) in
  (match floorplan with
  | `Free ->
      (* Scanline-with-stride initial placement: consecutive sites (which
         the netlist builders create structurally close together) land in
         neighbouring bels, spread evenly over the array. *)
      for s = 0 to nsites - 1 do
        let b = s * nbels / nsites in
        site_bel.(s) <- b;
        bel_site.(b) <- s
      done
  | `Domains ->
      (* bucket bels by column region, fill each domain from its bucket *)
      let buckets = Array.make 3 [] in
      let free_bucket = ref [] in
      for b = nbels - 1 downto 0 do
        let c = dev.Device.bel_col.(b) in
        let assigned = ref false in
        for d = 0 to 2 do
          let lo, hi = region_of_domain dev d in
          if (not !assigned) && c >= lo && c <= hi then begin
            buckets.(d) <- b :: buckets.(d);
            assigned := true
          end
        done;
        if not !assigned then free_bucket := b :: !free_bucket
      done;
      let buckets = Array.map Array.of_list buckets in
      Array.iter (Srand.shuffle rng) buckets;
      let cursor = Array.make 3 0 in
      let free = Array.of_list !free_bucket in
      let free_cursor = ref 0 in
      for s = 0 to nsites - 1 do
        let d = domain_of_site nl pack s in
        let b =
          if d >= 0 && cursor.(d) < Array.length buckets.(d) then begin
            let b = buckets.(d).(cursor.(d)) in
            cursor.(d) <- cursor.(d) + 1;
            b
          end
          else begin
            (* overflow or domainless: any free bel *)
            let rec next () =
              if !free_cursor < Array.length free then begin
                let b = free.(!free_cursor) in
                incr free_cursor;
                if bel_site.(b) < 0 then b else next ()
              end
              else begin
                (* fall back to scanning buckets for leftovers *)
                let found = ref (-1) in
                for b = 0 to nbels - 1 do
                  if !found < 0 && bel_site.(b) < 0 then found := b
                done;
                !found
              end
            in
            next ()
          end
        in
        site_bel.(s) <- b;
        bel_site.(b) <- s
      done);
  (* pads *)
  let n = Netlist.num_cells nl in
  let pad_of_cell = Array.make n (-1) in
  let pad_cell = Array.make dev.Device.npads (-1) in
  let assign_pads cells pads =
    let order = Array.copy pads in
    Srand.shuffle rng order;
    Array.iteri
      (fun i c ->
        pad_of_cell.(c) <- order.(i);
        pad_cell.(order.(i)) <- c)
      cells
  in
  assign_pads pack.Pack.live_inputs in_pads;
  assign_pads pack.Pack.live_outputs out_pads;
  (* --- cost model: HPWL over nets --- *)
  (* HPWL is integral, so costs, deltas and the total are kept as ints: the
     float sums they replace were exact, and [float_of_int] of the int sums
     gives the same values bit for bit. *)
  let site_of_cell = pack.Pack.site_of_cell in
  let bel_row = dev.Device.bel_row and bel_col = dev.Device.bel_col in
  let wrow = dev.Device.wrow and wcol = dev.Device.wcol in
  let pad_wire = dev.Device.pad_wire in
  let cell_pad_wire c =
    let pad = pad_of_cell.(c) in
    assert (pad >= 0);
    pad_wire.(pad)
  in
  let nnets = Array.length pack.Pack.nets in
  let net_cells =
    Array.map
      (fun net ->
        let cells = ref [ net.Pack.driver ] in
        List.iter
          (fun sink ->
            match sink with
            | Pack.Site_pin (s, _) ->
                cells := pack.Pack.sites.(s).Pack.out_cell :: !cells
            | Pack.Out_pad c -> cells := c :: !cells)
          net.Pack.sinks;
        Array.of_list (List.sort_uniq compare !cells))
      pack.Pack.nets
  in
  (* Terminal positions: site s is terminal s, port cell c terminal
     nsites + c; [tpos] holds each terminal's row and column side by side
     and moves keep it current, so a net's HPWL reads one array. *)
  let tpos = Array.make (2 * (nsites + n)) 0 in
  let set_site_pos s =
    let b = site_bel.(s) in
    tpos.(2 * s) <- bel_row.(b);
    tpos.((2 * s) + 1) <- bel_col.(b)
  in
  let set_pad_pos c =
    let w = cell_pad_wire c in
    tpos.(2 * (nsites + c)) <- wrow.(w);
    tpos.((2 * (nsites + c)) + 1) <- wcol.(w)
  in
  for s = 0 to nsites - 1 do
    set_site_pos s
  done;
  Array.iter set_pad_pos pack.Pack.live_inputs;
  Array.iter set_pad_pos pack.Pack.live_outputs;
  let net_terms =
    Array.map
      (Array.map (fun c ->
           let s = site_of_cell.(c) in
           if s >= 0 then 2 * s
           else begin
             assert (pad_of_cell.(c) >= 0);
             2 * (nsites + c)
           end))
      net_cells
  in
  (* every net has its driver, so [terms] is never empty; the terms are
     even indices below [2 * (nsites + n)], hence the unsafe reads.  The
     minima and maxima are kept without branches: [d land (d asr sign)] is
     [min d 0] *)
  let sign = Sys.int_size - 1 in
  let hpwl ni =
    let terms = net_terms.(ni) in
    let t = Array.unsafe_get terms 0 in
    let rmin = ref (Array.unsafe_get tpos t) and cmin = ref (Array.unsafe_get tpos (t + 1)) in
    let rmax = ref !rmin and cmax = ref !cmin in
    for i = 1 to Array.length terms - 1 do
      let t = Array.unsafe_get terms i in
      let r = Array.unsafe_get tpos t and c = Array.unsafe_get tpos (t + 1) in
      let d = r - !rmin in
      rmin := !rmin + (d land (d asr sign));
      let d = !rmax - r in
      rmax := !rmax - (d land (d asr sign));
      let d = c - !cmin in
      cmin := !cmin + (d land (d asr sign));
      let d = !cmax - c in
      cmax := !cmax - (d land (d asr sign))
    done;
    !rmax - !rmin + (!cmax - !cmin)
  in
  (* nets touching each cell, ascending *)
  let cell_nets =
    let acc = Array.make n [] in
    for ni = nnets - 1 downto 0 do
      Array.iter (fun c -> acc.(c) <- ni :: acc.(c)) net_cells.(ni)
    done;
    Array.map Array.of_list acc
  in
  (* nets touching each site (its own net and the nets it sinks), ascending
     and distinct *)
  let site_nets =
    Array.init nsites (fun s ->
        let site = pack.Pack.sites.(s) in
        Array.fold_left
          (fun acc p ->
            if p >= 0 then
              match pack.Pack.net_of_cell.(p) with
              | -1 -> acc
              | ni -> ni :: acc
            else acc)
          (Array.to_list cell_nets.(site.Pack.out_cell))
          site.Pack.pins
        |> List.sort_uniq compare |> Array.of_list)
  in
  let net_cost = Array.init nnets hpwl in
  let total = ref (Array.fold_left ( + ) 0 net_cost) in
  (* A move's affected nets, [affected.(0 .. !n_affected - 1)], and their
     costs before it: the sorted union of two ascending, distinct net lists
     (the order [List.sort_uniq compare (a @ b)] gives). *)
  let widest a = Array.fold_left (fun m l -> max m (Array.length l)) 0 a in
  let affected = Array.make (2 * max (widest site_nets) (widest cell_nets)) 0 in
  let saved = Array.make (Array.length affected) 0 in
  let n_affected = ref 0 in
  let merge a b =
    let la = Array.length a and lb = Array.length b in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la || !j < lb do
      let x =
        if !j >= lb || (!i < la && a.(!i) <= b.(!j)) then begin
          let x = a.(!i) in
          incr i;
          if !j < lb && b.(!j) = x then incr j;
          x
        end
        else begin
          let x = b.(!j) in
          incr j;
          x
        end
      in
      affected.(!k) <- x;
      saved.(!k) <- net_cost.(x);
      incr k
    done;
    n_affected := !k
  in
  let recompute () =
    let delta = ref 0 in
    for k = 0 to !n_affected - 1 do
      let ni = affected.(k) in
      let fresh = hpwl ni in
      delta := !delta + (fresh - net_cost.(ni));
      net_cost.(ni) <- fresh
    done;
    !delta
  in
  let restore () =
    for k = 0 to !n_affected - 1 do
      net_cost.(affected.(k)) <- saved.(k)
    done
  in
  let allowed_col s col =
    match floorplan with
    | `Free -> true
    | `Domains ->
        let lo, hi = region_of_domain dev (domain_of_site nl pack s) in
        col >= lo && col <= hi
  in
  (* --- annealing --- *)
  let nmoves = max 2000 (moves_per_site * max nsites 1) in
  let temp0 = 4.0 +. (0.02 *. float_of_int nsites) in
  let rows = dev.Device.params.Arch.rows in
  let cols = dev.Device.params.Arch.cols in
  let bpt = Arch.bels_per_tile dev.Device.params in
  let max_dim = max rows cols in
  (* The schedule is a function of the move number alone, so the
     temperature and the move radius are computed only by the moves that
     read them. *)
  let move = ref 0 in
  let[@inline] progress () = float_of_int !move /. float_of_int nmoves in
  let[@inline] temperature () =
    let t = temp0 *. ((1.0 -. progress ()) ** 3.0) in
    if 0.005 >= t then 0.005 else t
  in
  (* [x *. x] is within an ulp or two of [x ** 2.0], so the radius it
     gives is exact unless the scaled square lies next to an integer;
     only then is [pow] called to settle the floor. *)
  let radius () =
    let x = 1.0 -. progress () in
    let z = float_of_int max_dim *. (x *. x) in
    let rad =
      if Float.abs (z -. Float.round z) > 1e-6 then int_of_float z
      else int_of_float (float_of_int max_dim *. (x ** 2.0))
    in
    if 2 >= rad then 2 else rad
  in
  let accept delta =
    delta <= 0
    ||
    let delta = float_of_int delta in
    Srand.float rng 1.0 < exp (-.delta /. temperature ())
  in
  (* Range-limited move target: a random bel within the current radius of
     the site's tile. *)
  let clamp (v : int) lo hi = if v < lo then lo else if v > hi then hi else v in
  let candidate_bel s =
    let b = site_bel.(s) in
    let r0 = bel_row.(b) and c0 = bel_col.(b) in
    let rad = radius () in
    let r = clamp (r0 - rad + Srand.int rng ((2 * rad) + 1)) 0 (rows - 1) in
    let c = clamp (c0 - rad + Srand.int rng ((2 * rad) + 1)) 0 (cols - 1) in
    Device.bel_at dev ~row:r ~col:c ~slot:(Srand.int rng bpt)
  in
  let try_site_move () =
    if nsites = 0 then ()
    else begin
      let s = Srand.int rng nsites in
      let b_new = candidate_bel s in
      let b_old = site_bel.(s) in
      if b_new <> b_old && allowed_col s bel_col.(b_new) then begin
        let s2 = bel_site.(b_new) in
        if s2 >= 0 && not (allowed_col s2 bel_col.(b_old)) then ()
        else begin
          merge site_nets.(s) (if s2 >= 0 then site_nets.(s2) else [||]);
          (* apply *)
          site_bel.(s) <- b_new;
          bel_site.(b_new) <- s;
          bel_site.(b_old) <- s2;
          set_site_pos s;
          if s2 >= 0 then begin
            site_bel.(s2) <- b_old;
            set_site_pos s2
          end;
          let delta = recompute () in
          if accept delta then total := !total + delta
          else begin
            (* revert *)
            site_bel.(s) <- b_old;
            bel_site.(b_old) <- s;
            bel_site.(b_new) <- s2;
            set_site_pos s;
            if s2 >= 0 then begin
              site_bel.(s2) <- b_new;
              set_site_pos s2
            end;
            restore ()
          end
        end
      end
    end
  in
  let try_pad_move () =
    (* swap the pad assignment of two same-direction port cells *)
    let inputs = (Srand.bool rng && n_inputs > 0) || n_outputs <= 0 in
    let cells = if inputs then pack.Pack.live_inputs else pack.Pack.live_outputs in
    let pads = if inputs then in_pads else out_pads in
    if Array.length cells = 0 then ()
    else begin
      let c1 = cells.(Srand.int rng (Array.length cells)) in
      let p2 = pads.(Srand.int rng (Array.length pads)) in
      let p1 = pad_of_cell.(c1) in
      if p1 <> p2 then begin
        let c2 = pad_cell.(p2) in
        merge cell_nets.(c1) (if c2 >= 0 then cell_nets.(c2) else [||]);
        pad_of_cell.(c1) <- p2;
        pad_cell.(p2) <- c1;
        pad_cell.(p1) <- c2;
        set_pad_pos c1;
        if c2 >= 0 then begin
          pad_of_cell.(c2) <- p1;
          set_pad_pos c2
        end;
        let delta = recompute () in
        if accept delta then total := !total + delta
        else begin
          pad_of_cell.(c1) <- p1;
          pad_cell.(p1) <- c1;
          pad_cell.(p2) <- c2;
          set_pad_pos c1;
          if c2 >= 0 then begin
            pad_of_cell.(c2) <- p2;
            set_pad_pos c2
          end;
          restore ()
        end
      end
    end
  in
  for m = 0 to nmoves - 1 do
    move := m;
    if Srand.int rng 10 < 8 then try_site_move () else try_pad_move ()
  done;
  { site_bel; pad_of_cell; cost = float_of_int !total }
