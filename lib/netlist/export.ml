module Logic = Tmr_logic.Logic

let quote s =
  let buf = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '[' | ']' | '.'
      | '-' | '~' ->
          Buffer.add_char buf c
      | _ -> Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c)))
    s;
  Buffer.contents buf

(* Inverse of [quote].  [quote] writes every '%' as an escape, so a '%'
   not followed by two hex digits is malformed input. *)
let unquote s =
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> -1
  in
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then Ok (Buffer.contents buf)
    else if s.[i] <> '%' then begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
    else if i + 2 < n && hex s.[i + 1] >= 0 && hex s.[i + 2] >= 0 then begin
      Buffer.add_char buf (Char.chr ((hex s.[i + 1] * 16) + hex s.[i + 2]));
      go (i + 3)
    end
    else Error (Printf.sprintf "bad escape in %S" s)
  in
  go 0

let kind_to_string = function
  | Netlist.Input -> "input"
  | Netlist.Output -> "output"
  | Netlist.Const Logic.Zero -> "const0"
  | Netlist.Const Logic.One -> "const1"
  | Netlist.Const Logic.X -> "constx"
  | Netlist.Not -> "not"
  | Netlist.And2 -> "and2"
  | Netlist.Or2 -> "or2"
  | Netlist.Xor2 -> "xor2"
  | Netlist.Mux2 -> "mux2"
  | Netlist.Maj3 -> "maj3"
  | Netlist.Lut { arity; table } -> Printf.sprintf "lut%d:%x" arity table
  | Netlist.Ff Logic.Zero -> "ff0"
  | Netlist.Ff Logic.One -> "ff1"
  | Netlist.Ff Logic.X -> "ffx"

let kind_of_string s =
  match s with
  | "input" -> Ok Netlist.Input
  | "output" -> Ok Netlist.Output
  | "const0" -> Ok (Netlist.Const Logic.Zero)
  | "const1" -> Ok (Netlist.Const Logic.One)
  | "constx" -> Ok (Netlist.Const Logic.X)
  | "not" -> Ok Netlist.Not
  | "and2" -> Ok Netlist.And2
  | "or2" -> Ok Netlist.Or2
  | "xor2" -> Ok Netlist.Xor2
  | "mux2" -> Ok Netlist.Mux2
  | "maj3" -> Ok Netlist.Maj3
  | "ff0" -> Ok (Netlist.Ff Logic.Zero)
  | "ff1" -> Ok (Netlist.Ff Logic.One)
  | "ffx" -> Ok (Netlist.Ff Logic.X)
  | _ ->
      if String.length s > 4 && String.sub s 0 3 = "lut" then begin
        match String.index_opt s ':' with
        | Some colon -> (
            let arity_s = String.sub s 3 (colon - 3) in
            let table_s = String.sub s (colon + 1) (String.length s - colon - 1) in
            match
              (int_of_string_opt arity_s, int_of_string_opt ("0x" ^ table_s))
            with
            | Some arity, Some table -> Ok (Netlist.Lut { arity; table })
            | _ -> Error (Printf.sprintf "bad lut kind %S" s))
        | None -> Error (Printf.sprintf "bad lut kind %S" s)
      end
      else Error (Printf.sprintf "unknown cell kind %S" s)

let emit out nl =
  out "tmrnl 1\n";
  Netlist.iter_cells nl (fun c ->
      let fanins =
        Netlist.fanins nl c |> Array.to_list |> List.map string_of_int
        |> String.concat " "
      in
      out
        (Printf.sprintf "cell %d %s%s%s ; name=%s comp=%s domain=%d voter=%d\n"
           c
           (kind_to_string (Netlist.kind nl c))
           (if fanins = "" then "" else " ")
           fanins
           (quote (Netlist.name nl c))
           (quote (Netlist.comp nl c))
           (Netlist.domain nl c)
           (if Netlist.is_voter nl c then 1 else 0)));
  let port_line tag (port, bits) =
    out
      (Printf.sprintf "%s %s %s\n" tag (quote port)
         (String.concat " " (Array.to_list (Array.map string_of_int bits))))
  in
  List.iter (port_line "inport") (Netlist.input_ports nl);
  List.iter (port_line "outport") (Netlist.output_ports nl)

let to_channel oc nl = emit (output_string oc) nl

let to_string nl =
  let buf = Buffer.create 4096 in
  emit (Buffer.add_string buf) nl;
  Buffer.contents buf

let of_string text =
  let nl = Netlist.create () in
  let error = ref None in
  let err lineno fmt =
    Printf.ksprintf
      (fun msg ->
        if !error = None then error := Some (Printf.sprintf "line %d: %s" lineno msg))
      fmt
  in
  let next_id = ref 0 in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      if !error = None && String.trim line <> "" then begin
        let words =
          String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
        in
        match words with
        | "tmrnl" :: version :: _ ->
            if version <> "1" then err lineno "unsupported version %s" version
        | "cell" :: id_s :: kind_s :: rest -> (
            match int_of_string_opt id_s with
            | None -> err lineno "bad cell id %s" id_s
            | Some id when id <> !next_id ->
                err lineno "cell ids must be dense (expected %d, got %d)"
                  !next_id id
            | Some _ -> (
                (* split rest at ";" *)
                let rec split acc = function
                  | ";" :: attrs -> (List.rev acc, attrs)
                  | x :: tl -> split (x :: acc) tl
                  | [] -> (List.rev acc, [])
                in
                let fanin_ws, attr_ws = split [] rest in
                match kind_of_string kind_s with
                | Error e -> err lineno "%s" e
                | Ok kind -> (
                    let fanins =
                      List.map
                        (fun w ->
                          match int_of_string_opt w with
                          | Some v -> v
                          | None ->
                              err lineno "bad fanin %s" w;
                              0)
                        fanin_ws
                      |> Array.of_list
                    in
                    let attr key default =
                      let prefix = key ^ "=" in
                      let plen = String.length prefix in
                      match
                        List.find_opt
                          (fun w ->
                            String.length w >= plen && String.sub w 0 plen = prefix)
                          attr_ws
                      with
                      | Some w -> String.sub w plen (String.length w - plen)
                      | None -> default
                    in
                    match (unquote (attr "name" ""), unquote (attr "comp" "")) with
                    | Error e, _ | _, Error e -> err lineno "%s" e
                    | Ok name, Ok comp -> (
                        let domain =
                          Option.value ~default:(-1)
                            (int_of_string_opt (attr "domain" "-1"))
                        in
                        let voter = attr "voter" "0" = "1" in
                        Netlist.set_comp nl comp;
                        match
                          Netlist.add_cell nl ~name ~domain ~voter kind ~fanins
                        with
                        | _ -> incr next_id
                        | exception Invalid_argument m -> err lineno "%s" m))))
        | "inport" :: port :: bit_ws | "outport" :: port :: bit_ws -> (
            let bits =
              List.map
                (fun w ->
                  match int_of_string_opt w with
                  | Some v -> v
                  | None ->
                      err lineno "bad port bit %s" w;
                      0)
                bit_ws
              |> Array.of_list
            in
            let add =
              if List.hd words = "inport" then Netlist.add_input_port
              else Netlist.add_output_port
            in
            match unquote port with
            | Error e -> err lineno "%s" e
            | Ok port -> (
                match add nl port bits with
                | () -> ()
                | exception Invalid_argument m -> err lineno "%s" m))
        | _ -> err lineno "unparsable line %S" line
      end)
    lines;
  match !error with
  | Some e -> Error e
  | None -> Ok nl

let of_string_exn text =
  match of_string text with
  | Ok nl -> nl
  | Error e -> failwith ("Export.of_string: " ^ e)
