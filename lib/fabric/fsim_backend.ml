module Logic = Tmr_logic.Logic

(* ------------------------------------------------------------------ *)
(* Scalar: one fault per simulator, values are plain [Logic.t].

   These are the innermost loops of [Fsim.eval]/[Fsim.clock] (every comb
   node per eval, every reg node per clock), so they must not allocate:
   closures or refs here dominate the minor-GC rate, and under multiple
   domains every minor collection is a stop-the-world barrier.  All
   helpers are top-level functions threading plain integers. *)

module Scalar = struct
  (* 2-bit packed codes: the baseline-tape representation. *)
  let logic_code = function Logic.Zero -> 0 | Logic.One -> 1 | Logic.X -> 2

  let code_logic c =
    if c = 0 then Logic.Zero else if c = 1 then Logic.One else Logic.X

  (* Scan the four pins, packing the LUT index of the defined pins into
     bits 0-3 of the accumulator and a mask of X pins into bits 4-7. *)
  let rec lut_scan values pins inv j acc =
    if j >= 4 then acc
    else
      let p = pins.(j) in
      if p < 0 then lut_scan values pins inv (j + 1) acc
      else
        let acc =
          match values.(p) with
          | Logic.Zero -> acc lor (((inv lsr j) land 1) lsl j)
          | Logic.One -> acc lor ((1 - ((inv lsr j) land 1)) lsl j)
          | Logic.X -> acc lor (1 lsl (j + 4))
        in
        lut_scan values pins inv (j + 1) acc

  (* Is the table bit equal to [first] for every completion of the X
     pins?  [s] walks the submasks of [xmask] via (s - 1) land xmask. *)
  let rec lut_x_const table idx xmask s first =
    if (table lsr (idx lor s)) land 1 <> first then false
    else if s = 0 then true
    else lut_x_const table idx xmask ((s - 1) land xmask) first

  (* Finish a pin-scan accumulator against a truth table. *)
  let lut_of_acc table acc =
    let idx = acc land 0xf and xmask = acc lsr 4 in
    let first = (table lsr idx) land 1 in
    if xmask = 0 then Logic.of_bool (first = 1)
    else if lut_x_const table idx xmask xmask first then
      Logic.of_bool (first = 1)
    else Logic.X

  let lut_eval ~values ~pins ~table ~inv =
    lut_of_acc table (lut_scan values pins inv 0 0)

  let rec resolve_settle values ins i len v =
    if i >= len then v
    else resolve_settle values ins (i + 1) len (Logic.resolve v values.(ins.(i)))

  (* Pessimistic skew rule: a settled fight still reads X this cycle if
     any driver transitioned (its [last] differs from the agreement). *)
  let rec resolve_glitch last ins i len v =
    if i >= len then v
    else if not (Logic.equal last.(ins.(i)) v) then Logic.X
    else resolve_glitch last ins (i + 1) len v
end

(* ------------------------------------------------------------------ *)
(* Lanes: up to [word_bits] faults per machine word as possibility
   planes.  A node's packed sample is a pair of plane words (H, L):
   lane i reads One when (H_i, L_i) = (1, 0), Zero when (0, 1) and X
   when (1, 1) — "may be high" / "may be low".  (0, 0) is unreachable.
   The planes encoding makes Kleene gates pure word-parallel boolean
   algebra, evaluating every lane of a word at once. *)

module Lanes = struct
  let word_bits = Sys.int_size
  let full = -1

  (* Split plane words of a scalar value, for callers that keep H and L
     in separate flat arrays rather than as pairs. *)
  let broadcast_h = function Logic.Zero -> 0 | Logic.One | Logic.X -> full
  let broadcast_l = function Logic.One -> 0 | Logic.Zero | Logic.X -> full

  let lane ~h ~l i =
    let bh = (h lsr i) land 1 and bl = (l lsr i) land 1 in
    if bh = bl then Logic.X else if bh = 1 then Logic.One else Logic.Zero

  (* Lanes whose value differs from the scalar [v]: a plane word equals
     the broadcast of [v] exactly on the agreeing lanes. *)
  let mismatch ~h ~l v = (h lxor broadcast_h v) lor (l lxor broadcast_l v)

  (* Pin planes of one LUT pin: the value planes [h]/[l] read inverted
     on the lanes of [im], and constant Zero on the lanes of [unused] —
     an unused pin contributes index bit 0, as the scalar scan skips it
     whatever its inversion bit. *)
  let pin_h ~h ~l ~im ~unused = (h land lnot im lor (l land im)) land lnot unused
  let pin_l ~h ~l ~im ~unused = l land lnot im lor (h land im) lor unused

  (* Lanes selected by some minterm of a four-minterm group, given the
     pin-0/1 selectors and the group's leaf words. *)
  let[@inline] pick s0 s1 s2 s3 w0 w1 w2 w3 =
    s0 land w0 lor (s1 land w1) lor (s2 land w2) lor (s3 land w3)

  (* LUT over planes, as a two-level Shannon expansion: the minterm
     selector factors into a pin-0/1 selector [s] times a pin-2/3
     selector [r], so each plane is an OR over the four [r] of an OR
     over the four [s] of the leaf words.  A lane may read 1 iff some
     1-minterm is selectable under its pin possibilities, may read 0
     iff some 0-minterm is; both at once is X — literally Kleene
     completion over the X pins, which is what the scalar
     [lut_x_const] submask walk computes one completion at a time.
     With one table for every lane, the inner OR of group [k] is the
     OR of the [s] its nibble [n_k] selects for the H plane, and of
     those [15 - n_k] selects for the L plane: [sc] holds the ORs of all
     sixteen subsets, indexed by nibble.  [(h0, l0) .. (h3, l3)] are the
     four pin words ({!pin_h}/{!pin_l}); the result lands in
     [dh.(i)]/[dl.(i)]. *)
  let[@inline] lut_into (sc : int array) table h0 l0 h1 l1 h2 l2 h3 l3
      (dh : int array) (dl : int array) i =
    let s0 = l0 land l1 and s1 = h0 land l1 in
    let s2 = l0 land h1 and s3 = h0 land h1 in
    let r0 = l2 land l3 and r1 = h2 land l3 in
    let r2 = l2 land h3 and r3 = h2 land h3 in
    let s01 = s0 lor s1 and s23 = s2 lor s3 in
    Array.unsafe_set sc 0 0;
    Array.unsafe_set sc 1 s0;
    Array.unsafe_set sc 2 s1;
    Array.unsafe_set sc 3 s01;
    Array.unsafe_set sc 4 s2;
    Array.unsafe_set sc 5 (s0 lor s2);
    Array.unsafe_set sc 6 (s1 lor s2);
    Array.unsafe_set sc 7 (s01 lor s2);
    Array.unsafe_set sc 8 s3;
    Array.unsafe_set sc 9 (s0 lor s3);
    Array.unsafe_set sc 10 (s1 lor s3);
    Array.unsafe_set sc 11 (s01 lor s3);
    Array.unsafe_set sc 12 s23;
    Array.unsafe_set sc 13 (s0 lor s23);
    Array.unsafe_set sc 14 (s1 lor s23);
    Array.unsafe_set sc 15 (s01 lor s23);
    let n0 = table land 15 and n1 = (table lsr 4) land 15 in
    let n2 = (table lsr 8) land 15 and n3 = (table lsr 12) land 15 in
    dh.(i) <-
      r0 land Array.unsafe_get sc n0
      lor (r1 land Array.unsafe_get sc n1)
      lor (r2 land Array.unsafe_get sc n2)
      lor (r3 land Array.unsafe_get sc n3);
    dl.(i) <-
      r0 land Array.unsafe_get sc (15 - n0)
      lor (r1 land Array.unsafe_get sc (15 - n1))
      lor (r2 land Array.unsafe_get sc (15 - n2))
      lor (r3 land Array.unsafe_get sc (15 - n3))

  let check_scratch sc =
    if Array.length sc < 16 then invalid_arg "Lanes: LUT scratch under 16 words"

  let lut_words sc table h0 l0 h1 l1 h2 l2 h3 l3 dh dl i =
    check_scratch sc;
    lut_into sc table h0 l0 h1 l1 h2 l2 h3 l3 dh dl i

  (* Reading pin [j] inverted swaps its planes, which selects minterm
     [m lxor 2^j] wherever [m] was selected: the table permuted by the
     inversion bits. *)
  let fold_inversion ~table ~inv =
    let t = ref 0 in
    for m = 0 to 15 do
      t := !t lor (((table lsr (m lxor inv)) land 1) lsl m)
    done;
    !t

  let lut_node sc ~table ~h ~l p0 p1 p2 p3 ~dh ~dl o =
    check_scratch sc;
    lut_into sc table h.(p0) l.(p0) h.(p1) l.(p1) h.(p2) l.(p2) h.(p3) l.(p3)
      dh dl o

  (* The same over per-lane truth tables: [leaves.(at + m)] is the mask
     of lanes whose table has minterm [m] set. *)
  let lut_leaves ~ph ~pl ~leaves ~at ~dh ~dl i =
    let s0 = pl.(0) land pl.(1) and s1 = ph.(0) land pl.(1) in
    let s2 = pl.(0) land ph.(1) and s3 = ph.(0) land ph.(1) in
    let r0 = pl.(2) land pl.(3) and r1 = ph.(2) land pl.(3) in
    let r2 = pl.(2) land ph.(3) and r3 = ph.(2) land ph.(3) in
    let w0 = leaves.(at) and w1 = leaves.(at + 1) in
    let w2 = leaves.(at + 2) and w3 = leaves.(at + 3) in
    let w4 = leaves.(at + 4) and w5 = leaves.(at + 5) in
    let w6 = leaves.(at + 6) and w7 = leaves.(at + 7) in
    let w8 = leaves.(at + 8) and w9 = leaves.(at + 9) in
    let w10 = leaves.(at + 10) and w11 = leaves.(at + 11) in
    let w12 = leaves.(at + 12) and w13 = leaves.(at + 13) in
    let w14 = leaves.(at + 14) and w15 = leaves.(at + 15) in
    dh.(i) <-
      r0 land pick s0 s1 s2 s3 w0 w1 w2 w3
      lor (r1 land pick s0 s1 s2 s3 w4 w5 w6 w7)
      lor (r2 land pick s0 s1 s2 s3 w8 w9 w10 w11)
      lor (r3 land pick s0 s1 s2 s3 w12 w13 w14 w15);
    dl.(i) <-
      r0 land pick s0 s1 s2 s3 (lnot w0) (lnot w1) (lnot w2) (lnot w3)
      lor (r1 land pick s0 s1 s2 s3 (lnot w4) (lnot w5) (lnot w6) (lnot w7))
      lor (r2 land pick s0 s1 s2 s3 (lnot w8) (lnot w9) (lnot w10) (lnot w11))
      lor (r3
          land pick s0 s1 s2 s3 (lnot w12) (lnot w13) (lnot w14) (lnot w15))

  (* Resolve over planes, with [Scalar]'s pessimistic skew
     rule folded in: a lane settles One only when every driver is
     definitely One now AND was definitely One last cycle (no driver
     transitioned); symmetrically for Zero; anything else is X.  The
     result lands in [dh.(i)]/[dl.(i)]. *)
  let resolve_planes ~n ~h ~l ~lh ~ll ~dh ~dl i =
    let one_ng = ref full and zero_ng = ref full in
    for k = 0 to n - 1 do
      one_ng := !one_ng land h.(k) land lnot l.(k) land lh.(k) land lnot ll.(k);
      zero_ng := !zero_ng land l.(k) land lnot h.(k) land ll.(k) land lnot lh.(k)
    done;
    if n = 0 then begin
      dh.(i) <- full;
      dl.(i) <- full
    end
    else begin
      dh.(i) <- full land lnot !zero_ng;
      dl.(i) <- full land lnot !one_ng
    end
end
