(** Value-representation backends for the fabric simulators.

    The fault engines share gate semantics (4-input LUTs with per-pin
    inversion, multi-driver resolution with a pessimistic glitch rule,
    3-valued Kleene logic) but differ in how a signal sample is
    represented:

    - {!Scalar} carries one fault per simulator as a plain
      {!Tmr_logic.Logic.t} — the representation of {!Fsim}, the
      simulator the rebuild oracle runs;
    - {!Lanes} packs up to {!Lanes.word_bits} faults per machine word
      as "possibility planes" — the representation of {!Fsim_batch}. *)

module Scalar : sig
  val logic_code : Tmr_logic.Logic.t -> int
  (** 2-bit packed code (Zero 0, One 1, X 2) — the baseline-tape
      representation. *)

  val code_logic : int -> Tmr_logic.Logic.t

  val lut_eval :
    values:Tmr_logic.Logic.t array ->
    pins:int array ->
    table:int ->
    inv:int ->
    Tmr_logic.Logic.t

  val resolve_settle :
    Tmr_logic.Logic.t array ->
    int array ->
    int ->
    int ->
    Tmr_logic.Logic.t ->
    Tmr_logic.Logic.t
  (** Fold {!Tmr_logic.Logic.resolve} over drivers [i..len-1]. *)

  val resolve_glitch :
    Tmr_logic.Logic.t array ->
    int array ->
    int ->
    int ->
    Tmr_logic.Logic.t ->
    Tmr_logic.Logic.t
  (** Pessimistic skew rule: a settled fight still reads X this cycle
      if any driver transitioned (its [last] differs from the
      agreement). *)
end

module Lanes : sig
  (** A node's sample is a pair of plane words [(h, l)]: lane [i] is One
      on [(1,0)], Zero on [(0,1)], X on [(1,1)]; [(0,0)] is
      unreachable. *)

  val word_bits : int
  (** [Sys.int_size] (63 on 64-bit hosts) — every bit of an immediate
      integer is a lane, the sign bit included, and one plane word
      holds a whole batch. *)

  val full : int
  (** All-lanes mask: every bit set, [-1]. *)

  val broadcast_h : Tmr_logic.Logic.t -> int
  val broadcast_l : Tmr_logic.Logic.t -> int
  (** Plane words of {!broadcast}, for callers keeping H and L in
      separate flat arrays. *)

  val lane : h:int -> l:int -> int -> Tmr_logic.Logic.t
  (** Decode lane [i] of a plane pair. *)

  val mismatch : h:int -> l:int -> Tmr_logic.Logic.t -> int
  (** Mask of lanes whose value differs from the scalar [v]. *)

  val pin_h : h:int -> l:int -> im:int -> unused:int -> int
  val pin_l : h:int -> l:int -> im:int -> unused:int -> int
  (** Plane words of one LUT pin: the value planes [h]/[l] read
      inverted on the lanes of [im] and as constant Zero on the lanes
      of [unused] (an unused pin contributes index bit 0, whatever its
      inversion bit, as the scalar pin scan skips it). *)

  val lut_words :
    int array ->
    int ->
    int ->
    int ->
    int ->
    int ->
    int ->
    int ->
    int ->
    int ->
    int array ->
    int array ->
    int ->
    unit
  (** [lut_words sc table h0 l0 h1 l1 h2 l2 h3 l3 dh dl i] evaluates a
      LUT whose truth table [table] is shared by every lane and stores
      the result planes in [dh.(i)]/[dl.(i)]; allocation-free.
      [(h0, l0) .. (h3, l3)]: the four pin words from {!pin_h}/{!pin_l};
      [sc]: a scratch of at least 16 words.
      Equals {!Scalar.lut_eval} (including Kleene completion over X
      pins) lane by lane. *)

  val fold_inversion : table:int -> inv:int -> int
  (** The truth table that reads uninverted pins as [table] reads pins
      inverted by [inv] (bit [j] = pin [j]): a LUT of every lane that
      inverts the same pins evaluates as {!lut_node} of the folded
      table. *)

  val lut_node :
    int array ->
    table:int ->
    h:int array ->
    l:int array ->
    int ->
    int ->
    int ->
    int ->
    dh:int array ->
    dl:int array ->
    int ->
    unit
  (** [lut_node sc ~table ~h ~l p0 p1 p2 p3 ~dh ~dl o] evaluates one
      LUT node over flat plane arrays: pin [j] reads [h.(pj)]/[l.(pj)],
      uninverted, and the result lands in [dh.(o)]/[dl.(o)]: {!lut_words}
      of those pin words. *)

  val lut_leaves :
    ph:int array ->
    pl:int array ->
    leaves:int array ->
    at:int ->
    dh:int array ->
    dl:int array ->
    int ->
    unit
  (** {!lut_words} over per-lane truth tables, the pin words in
      [ph.(0..3)]/[pl.(0..3)]: [leaves.(at + m)] is the
      mask of lanes whose table has minterm [m] set. *)

  val resolve_planes :
    n:int ->
    h:int array ->
    l:int array ->
    lh:int array ->
    ll:int array ->
    dh:int array ->
    dl:int array ->
    int ->
    unit
  (** Resolve [n] drivers given their current ([h]/[l]) and previous
      ([lh]/[ll]) plane words, with {!Scalar}'s pessimistic glitch
      rule folded in, into [dh.(i)]/[dl.(i)].  [n = 0] is X (matching
      {!Scalar}). *)
end
