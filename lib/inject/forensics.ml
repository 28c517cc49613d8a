module Netlist = Tmr_netlist.Netlist
module Device = Tmr_arch.Device
module Impl = Tmr_pnr.Impl
module Pack = Tmr_pnr.Pack
module Place = Tmr_pnr.Place
module Route = Tmr_pnr.Route
module Footprint = Tmr_fabric.Footprint

type attrib = {
  dev : Device.t;
  db : Tmr_arch.Bitdb.t;
  wire_domain : int array;
  wire_part : int array;
  wire_voter : bool array;
  wire_used : bool array;
  bel_domain : int array;
  bel_part : int array;
  bel_voter : bool array;
  bel_used : bool array;
  part_names : string array;
  vote_masking : bool;
}

(* The design half of the vote-masking proof (see [attrib]).  With it,
   the only cells a fault confined to domain d can corrupt are domain
   d's non-voter cells, and every voter reads at most one corrupted
   input of three. *)
let vote_masking nl =
  let voters = ref 0 and ok = ref true in
  Netlist.iter_cells nl (fun c ->
      let fanins = Netlist.fanins nl c in
      if Netlist.is_voter nl c then begin
        incr voters;
        match Netlist.kind nl c with
        | Netlist.Lut { arity = 3; table }
          when Tmr_netlist.Check.lut_is_maj3 table ->
            let m =
              Array.fold_left
                (fun m f ->
                  let d = Netlist.domain nl f in
                  if d >= 0 then m lor (1 lsl d) else m)
                0 fanins
            in
            if m <> 7 then ok := false
        | _ -> ok := false
      end
      else
        let d = Netlist.domain nl c in
        Array.iter
          (fun f ->
            let df = Netlist.domain nl f in
            if (not (Netlist.is_voter nl f)) && df >= 0 && df <> d then
              ok := false)
          fanins);
  let outputs = Netlist.output_ports nl in
  !ok && !voters > 0
  && not
       (List.exists
          (fun p -> List.mem_assoc p outputs)
          Tmr_core.Voter.detect_ports)

let attrib_of_impl (impl : Impl.t) =
  let dev = impl.Impl.dev in
  let mapped = impl.Impl.mapped in
  let pack = impl.Impl.pack in
  let place = impl.Impl.place in
  let route = impl.Impl.route in
  let nw = dev.Device.nwires and nb = dev.Device.nbels in
  let wire_domain = Array.make nw (-1) in
  let wire_part = Array.make nw (-1) in
  let wire_voter = Array.make nw false in
  let bel_domain = Array.make nb (-1) in
  let bel_part = Array.make nb (-1) in
  let bel_voter = Array.make nb false in
  (* partition interning: iteration order (nets, then sites) is fixed, so
     ids are deterministic for a given implementation *)
  let tbl = Hashtbl.create 64 in
  let names = ref [] in
  let nnames = ref 0 in
  let intern comp =
    if comp = "" then -1
    else
      match Hashtbl.find_opt tbl comp with
      | Some i -> i
      | None ->
          let i = !nnames in
          incr nnames;
          Hashtbl.add tbl comp i;
          names := comp :: !names;
          i
  in
  let voter c = Netlist.is_voter mapped c in
  (* every routed wire belongs to the net's driving cell *)
  Array.iteri
    (fun i (net : Pack.net) ->
      let c = net.Pack.driver in
      let d = Netlist.domain mapped c in
      let p = intern (Netlist.comp mapped c) in
      let v = voter c in
      Array.iter
        (fun w ->
          wire_domain.(w) <- d;
          wire_part.(w) <- p;
          if v then wire_voter.(w) <- true)
        route.Route.net_wires.(i))
    pack.Pack.nets;
  (* every placed site's bel belongs to the cells it realises: its domain
     is theirs when they agree, -1 when they do not *)
  Array.iteri
    (fun s (site : Pack.site) ->
      let bel = place.Place.site_bel.(s) in
      let c = site.Pack.out_cell in
      let cells =
        (c :: Option.to_list site.Pack.lut) @ Option.to_list site.Pack.ff
      in
      let d = Netlist.domain mapped c in
      bel_domain.(bel) <-
        (if List.for_all (fun x -> Netlist.domain mapped x = d) cells then d
         else -1);
      bel_part.(bel) <- intern (Netlist.comp mapped c);
      if List.exists voter cells then bel_voter.(bel) <- true)
    pack.Pack.sites;
  {
    dev;
    db = impl.Impl.db;
    wire_domain;
    wire_part;
    wire_voter;
    wire_used = impl.Impl.bitgen.Tmr_pnr.Bitgen.used_wires;
    bel_domain;
    bel_part;
    bel_voter;
    bel_used = impl.Impl.bitgen.Tmr_pnr.Bitgen.used_bels;
    part_names = Array.of_list (List.rev !names);
    vote_masking = vote_masking mapped;
  }

let part_name a p =
  if p >= 0 && p < Array.length a.part_names then a.part_names.(p) else "?"

type t = {
  domain_mask : int;
  cross_domain : bool;
  partitions : int array;
  voter_touch : bool;
  masked_at_voter : bool;
  diverged : int;
  first_diverged_node : int;
  diverge_cycle : int;
  depth : int;
  cone_nodes : int;
}

(* An unrouted input pin of a used bel stands for that bel: driving it
   changes what the bel computes.  -1 for every other wire. *)
let pin_bel a w =
  if a.wire_used.(w) || a.dev.Device.wkind.(w) <> Device.BelIn then -1
  else
    let b = a.dev.Device.wire_bel.(w) in
    if b >= 0 && a.bel_used.(b) then b else -1

let structural a bit =
  let fp = Footprint.of_bit a.dev a.db bit in
  let mask = ref 0 in
  let voter = ref false in
  let parts = ref [] in
  let add_domain d = if d >= 0 then mask := !mask lor (1 lsl d) in
  let add_part p = if p >= 0 && not (List.mem p !parts) then parts := p :: !parts in
  let add_bel b =
    add_domain a.bel_domain.(b);
    add_part a.bel_part.(b);
    if a.bel_voter.(b) then voter := true
  in
  let add_wire w =
    let b = pin_bel a w in
    if b >= 0 then add_bel b
    else begin
      add_domain a.wire_domain.(w);
      add_part a.wire_part.(w);
      if a.wire_voter.(w) then voter := true
    end
  in
  Array.iter add_wire fp.Footprint.fp_wires;
  Array.iter add_bel fp.Footprint.fp_bels;
  Array.iter (fun pad -> add_wire a.dev.Device.pad_wire.(pad)) fp.Footprint.fp_pads;
  let m = !mask in
  let touched = (m land 1) + ((m lsr 1) land 1) + ((m lsr 2) land 1) in
  {
    domain_mask = m;
    cross_domain = touched >= 2;
    partitions = Array.of_list (List.sort compare !parts);
    voter_touch = !voter;
    masked_at_voter = false;
    diverged = -1;
    first_diverged_node = -1;
    diverge_cycle = -1;
    depth = -1;
    cone_nodes = -1;
  }

(* The per-fault half of the vote-masking proof: the footprint touches a
   used resource of exactly one domain d, no voter bel or net, no pad and
   no used resource without a domain.  Unused resources drive nothing the
   design reads, except an unrouted input pin of a used bel, which counts
   as that bel. *)
let masked_domain a bit =
  if not a.vote_masking then -1
  else
    let fp = Footprint.of_bit a.dev a.db bit in
    let mask = ref 0 and ok = ref (fp.Footprint.fp_pads = [||]) in
    let touch d voter =
      if voter || d < 0 then ok := false else mask := !mask lor (1 lsl d)
    in
    let bel b = if a.bel_used.(b) then touch a.bel_domain.(b) a.bel_voter.(b) in
    Array.iter
      (fun w ->
        let b = pin_bel a w in
        if b >= 0 then bel b
        else if a.wire_used.(w) then touch a.wire_domain.(w) a.wire_voter.(w))
      fp.Footprint.fp_wires;
    Array.iter bel fp.Footprint.fp_bels;
    match (!ok, !mask) with
    | true, 1 -> 0
    | true, 2 -> 1
    | true, 4 -> 2
    | _ -> -1

(* ------------------------------------------------------------------ *)
(* JSONL sink *)

let sink = Tmr_obs.Jsonl.make ()
let to_file path = Tmr_obs.Jsonl.to_file sink path
let close () = Tmr_obs.Jsonl.close sink
let enabled () = Tmr_obs.Jsonl.enabled sink

let emit ~design ~bit ~effect ~wrong ~first_error_cycle a f =
  if enabled () then begin
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf
         "{\"design\":\"%s\",\"bit\":%d,\"effect\":\"%s\",\"outcome\":\"%s\",\"first_error_cycle\":%d"
         (Tmr_obs.Jsonl.escape design)
         bit
         (Tmr_obs.Jsonl.escape effect)
         (if wrong then "wrong_answer" else "silent")
         first_error_cycle);
    Buffer.add_string b (Printf.sprintf ",\"domain_mask\":%d" f.domain_mask);
    Buffer.add_string b ",\"domains\":[";
    let first = ref true in
    for d = 0 to 2 do
      if (f.domain_mask lsr d) land 1 = 1 then begin
        if not !first then Buffer.add_char b ',';
        first := false;
        Buffer.add_string b (string_of_int d)
      end
    done;
    Buffer.add_char b ']';
    Buffer.add_string b
      (Printf.sprintf ",\"cross_domain\":%b" f.cross_domain);
    Buffer.add_string b ",\"partitions\":[";
    Array.iteri
      (fun i p ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "\"%s\"" (Tmr_obs.Jsonl.escape (part_name a p))))
      f.partitions;
    Buffer.add_char b ']';
    Buffer.add_string b
      (Printf.sprintf
         ",\"voter_touch\":%b,\"masked_at_voter\":%b,\"diverged_nodes\":%d,\"first_diverged_node\":%d,\"diverge_cycle\":%d,\"propagation_depth\":%d,\"cone_nodes\":%d}"
         f.voter_touch f.masked_at_voter f.diverged f.first_diverged_node
         f.diverge_cycle f.depth f.cone_nodes);
    Tmr_obs.Jsonl.emit sink (Buffer.contents b)
  end
