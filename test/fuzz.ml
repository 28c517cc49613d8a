(* Mutation fuzzing for the readers of data from disk: a test input picks
   one line of a corpus of well-formed renderings and applies up to three
   byte flips, truncations, splices (this prefix, another line's suffix)
   or insertions, with bytes drawn from JSON's structural alphabet. *)

let input =
  let open QCheck.Gen in
  let mutation = triple (int_bound 3) (int_bound 1_000) (int_bound 1_000) in
  QCheck.make (pair (int_bound 1_000) (list_size (int_range 0 3) mutation))

let mutate corpus (base, muts) =
  let alphabet = "{}[]\",:.-+e0159aoqsx \\" in
  List.fold_left
    (fun t (op, pos, a) ->
      let n = String.length t in
      let pos = if n = 0 then 0 else pos mod (n + 1) in
      let c = String.make 1 alphabet.[a mod String.length alphabet] in
      let before = String.sub t 0 pos and after = String.sub t pos (n - pos) in
      match op with
      | 0 when after <> "" ->
          (* byte flip *)
          before ^ c ^ String.sub after 1 (String.length after - 1)
      | 1 -> (* truncation *) before
      | 2 ->
          (* splice: this prefix, another line's suffix *)
          let other = corpus.(a mod Array.length corpus) in
          let k = min (String.length other) pos in
          before ^ String.sub other k (String.length other - k)
      | _ -> (* insertion *) before ^ c ^ after)
    corpus.(base mod Array.length corpus)
    muts
