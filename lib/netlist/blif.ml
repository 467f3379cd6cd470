(* Reader/writer for the BLIF subset used by the ISCAS'89-era tools:
   .model/.inputs/.outputs/.names (SOP covers)/.latch/.end.  This is the
   exchange format in which circuits enter and leave the tool. *)

type cover = { row_inputs : string list; rows : (string * char) list }
(* rows: input plane (chars '0'/'1'/'-') and the output bit *)

type raw = {
  raw_model : string;
  raw_inputs : string list;
  raw_outputs : string list;
  raw_latches : (string * string * bool) list; (* data, out, init *)
  raw_names : (string * cover) list; (* target, cover *)
}

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* --- lexing ------------------------------------------------------------- *)

let logical_lines text =
  (* join continuation lines ending in backslash, drop comments *)
  let lines = String.split_on_char '\n' text in
  let rec join acc pending = function
    | [] -> List.rev (if pending = "" then acc else pending :: acc)
    | line :: rest ->
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      let line = String.trim line in
      if String.length line > 0 && line.[String.length line - 1] = '\\' then
        join acc (pending ^ String.sub line 0 (String.length line - 1) ^ " ") rest
      else if pending <> "" then join ((pending ^ line) :: acc) "" rest
      else if line = "" then join acc "" rest
      else join (line :: acc) "" rest
  in
  join [] "" lines

let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

(* --- raw parsing -------------------------------------------------------- *)

let parse_raw text =
  let model = ref "" in
  let inputs = ref [] in
  let outputs = ref [] in
  let latches = ref [] in
  let names = ref [] in
  let current = ref None in
  let flush () =
    match !current with
    | Some (target, row_inputs, rows) ->
      names := (target, { row_inputs; rows = List.rev rows }) :: !names;
      current := None
    | None -> ()
  in
  let handle line =
    match tokens line with
    | [] -> ()
    | ".model" :: rest ->
      flush ();
      model := (match rest with m :: _ -> m | [] -> "top")
    | ".inputs" :: rest ->
      flush ();
      inputs := !inputs @ rest
    | ".outputs" :: rest ->
      flush ();
      outputs := !outputs @ rest
    | ".latch" :: rest ->
      flush ();
      (match rest with
      | [ data; out ] -> latches := (data, out, false) :: !latches
      | [ data; out; init ] -> latches := (data, out, init = "1") :: !latches
      | [ data; out; _ty; _ctrl; init ] -> latches := (data, out, init = "1") :: !latches
      | _ -> parse_error "malformed .latch: %s" line)
    | ".names" :: rest ->
      flush ();
      (match List.rev rest with
      | target :: rev_ins -> current := Some (target, List.rev rev_ins, [])
      | [] -> parse_error "empty .names")
    | ".end" :: _ -> flush ()
    | (".exdc" | ".clock" | ".area" | ".delay") :: _ -> flush ()
    | tok :: _ when String.length tok > 0 && tok.[0] = '.' ->
      parse_error "unsupported construct: %s" line
    | toks -> (
      (* a cover row for the current .names *)
      match !current with
      | None -> parse_error "cover row outside .names: %s" line
      | Some (target, row_inputs, rows) ->
        let plane, out_bit =
          match (toks, row_inputs) with
          | [ out ], [] -> ("", out)
          | [ plane; out ], _ -> (plane, out)
          | _ -> parse_error "malformed cover row: %s" line
        in
        if String.length plane <> List.length row_inputs then
          parse_error "cover row width mismatch: %s" line;
        if out_bit <> "0" && out_bit <> "1" then
          parse_error "cover output must be 0/1: %s" line;
        current := Some (target, row_inputs, (plane, out_bit.[0]) :: rows))
  in
  List.iter handle (logical_lines text);
  flush ();
  {
    raw_model = (if !model = "" then "top" else !model);
    raw_inputs = !inputs;
    raw_outputs = !outputs;
    raw_latches = List.rev !latches;
    raw_names = List.rev !names;
  }

(* --- elaboration to Circuit.t ------------------------------------------- *)

let elaborate ?(lenient = false) raw =
  let c = Circuit.create raw.raw_model in
  let env : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace env n (Circuit.add_input ~name:n c)) raw.raw_inputs;
  let latch_nets =
    List.map
      (fun (_, out, init) ->
        let net = Circuit.add_latch ~name:out c ~init in
        Hashtbl.replace env out net;
        net)
      raw.raw_latches
  in
  let defs : (string, cover) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (target, cover) -> Hashtbl.replace defs target cover) raw.raw_names;
  (* duplicate definitions: strict mode rejects them (they used to be
     dropped silently); lenient mode materializes every driver below so
     the multiply-driven lint rule can report them *)
  let definition_count = Hashtbl.create 64 in
  let count name =
    Hashtbl.replace definition_count name
      (1 + Option.value ~default:0 (Hashtbl.find_opt definition_count name))
  in
  List.iter count raw.raw_inputs;
  List.iter (fun (_, out, _) -> count out) raw.raw_latches;
  List.iter (fun (target, _) -> count target) raw.raw_names;
  let duplicates =
    List.sort compare
      (Hashtbl.fold
         (fun name n acc -> if n > 1 then name :: acc else acc)
         definition_count [])
  in
  if duplicates <> [] && not lenient then
    parse_error "multiple drivers for signal(s): %s" (String.concat ", " duplicates);
  (* build gates on demand, in dependency order *)
  let building : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let cycle_patches = ref [] in
  let built : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec net_of name =
    match Hashtbl.find_opt env name with
    | Some net -> net
    | None -> (
      if Hashtbl.mem building name then begin
        if not lenient then parse_error "combinational cycle at %s" name;
        (* break the cycle with a placeholder, patched to a buffer of the
           real net afterwards so the cycle survives for the lint rules *)
        let placeholder = Circuit.add_undriven c in
        cycle_patches := (placeholder, name) :: !cycle_patches;
        placeholder
      end
      else begin
      Hashtbl.replace building name ();
      match Hashtbl.find_opt defs name with
      | None ->
        if not lenient then parse_error "undefined signal: %s" name;
        let net = Circuit.add_undriven ~name c in
        Hashtbl.replace env name net;
        net
      | Some cover ->
        let fanins = List.map net_of cover.row_inputs in
        let net = build_cover c fanins cover in
        Circuit.set_name c net name;
        Hashtbl.replace env name net;
        Hashtbl.replace built name ();
        Hashtbl.remove building name;
        net
      end)
  and build_cover c fanins cover =
    match cover.rows with
    | [] -> Circuit.const0 c
    | rows ->
      let out_polarity =
        (* BLIF requires all rows to share the output bit *)
        match rows with (_, b) :: _ -> b | [] -> '1'
      in
      if List.exists (fun (_, b) -> b <> out_polarity) rows then
        parse_error "mixed-polarity cover";
      let term (plane, _) =
        if plane = "" then Circuit.const1 c
        else begin
          let lits = ref [] in
          String.iteri
            (fun i ch ->
              let fanin = List.nth fanins i in
              match ch with
              | '1' -> lits := fanin :: !lits
              | '0' -> lits := Circuit.bnot c fanin :: !lits
              | '-' -> ()
              | _ -> parse_error "bad cover char %c" ch)
            plane;
          match !lits with
          | [] -> Circuit.const1 c
          | [ l ] -> l
          | ls -> Circuit.add_gate c Circuit.And ls
        end
      in
      let sum =
        match List.map term rows with
        | [ t ] -> t
        | ts -> Circuit.add_gate c Circuit.Or ts
      in
      if out_polarity = '1' then sum else Circuit.bnot c sum
  in
  List.iter (fun (name, _) -> ignore (net_of name)) raw.raw_names;
  (* lenient: materialize the shadowed drivers of duplicated names too, so
     every driver exists as a net sharing the name (what the
     multiply-driven lint rule reports).  [net_of] built at most one cover
     per name — the one [defs] retained, and only when the name was not
     already an input or latch. *)
  if lenient then
    List.iter
      (fun (target, cover) ->
        let is_the_built_one =
          Hashtbl.mem built target
          && (match Hashtbl.find_opt defs target with
             | Some kept -> kept == cover
             | None -> false)
        in
        if not is_the_built_one then begin
          let fanins = List.map net_of cover.row_inputs in
          let net = build_cover c fanins cover in
          Circuit.set_name c net target
        end)
      raw.raw_names;
  List.iter2
    (fun (data, _, _) lnet ->
      (* lenient: a latch whose data signal has no definition stays
         unclosed; the unclosed-latch rule reports it *)
      if (not lenient) || Hashtbl.mem env data || Hashtbl.mem defs data then
        Circuit.set_latch_data c lnet ~data:(net_of data))
    raw.raw_latches latch_nets;
  List.iter (fun name -> Circuit.add_output c name (net_of name)) raw.raw_outputs;
  (* close the cycles broken during elaboration through a buffer *)
  List.iter
    (fun (placeholder, name) ->
      match Hashtbl.find_opt env name with
      | Some net ->
        Circuit.unsafe_set_node c placeholder (Circuit.Gate (Circuit.Buf, [| net |]))
      | None -> ())
    !cycle_patches;
  c

let parse_string ?lenient text = elaborate ?lenient (parse_raw text)

let parse_file ?lenient path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  parse_string ?lenient text

(* --- printing ------------------------------------------------------------ *)

let net_label c net =
  match Circuit.name_of c net with Some n -> n | None -> Printf.sprintf "n%d" net

let to_string c =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr ".model %s\n" (Circuit.model c);
  pr ".inputs %s\n" (String.concat " " (List.map (net_label c) (Circuit.inputs c)));
  pr ".outputs %s\n" (String.concat " " (List.map fst (Circuit.outputs c)));
  List.iter
    (fun latch ->
      pr ".latch %s %s %d\n"
        (net_label c (Circuit.latch_data c latch))
        (net_label c latch)
        (if Circuit.latch_init c latch then 1 else 0))
    (Circuit.latches c);
  (* emit output aliases when an output name differs from its net's label *)
  List.iter
    (fun (name, net) ->
      if name <> net_label c net then pr ".names %s %s\n1 1\n" (net_label c net) name)
    (Circuit.outputs c);
  let emit_gate net fn fanins =
    let ins = Array.to_list (Array.map (net_label c) fanins) in
    let target = net_label c net in
    let n = Array.length fanins in
    let all c = String.make n c in
    match fn with
    | Circuit.And -> pr ".names %s %s\n%s 1\n" (String.concat " " ins) target (all '1')
    | Circuit.Nand -> pr ".names %s %s\n%s 0\n" (String.concat " " ins) target (all '1')
    | Circuit.Or ->
      pr ".names %s %s\n" (String.concat " " ins) target;
      for i = 0 to n - 1 do
        let row = Bytes.make n '-' in
        Bytes.set row i '1';
        pr "%s 1\n" (Bytes.to_string row)
      done
    | Circuit.Nor -> pr ".names %s %s\n%s 1\n" (String.concat " " ins) target (all '0')
    | Circuit.Xor | Circuit.Xnor ->
      (* enumerate parity rows; callers keep xor arity small *)
      if n > 16 then failwith "Blif.to_string: xor arity too large";
      pr ".names %s %s\n" (String.concat " " ins) target;
      let want = if fn = Circuit.Xor then 1 else 0 in
      for bits = 0 to (1 lsl n) - 1 do
        let parity = ref 0 in
        let row = Bytes.make n '0' in
        for i = 0 to n - 1 do
          if bits land (1 lsl i) <> 0 then begin
            Bytes.set row i '1';
            parity := !parity lxor 1
          end
        done;
        if !parity = want then pr "%s 1\n" (Bytes.to_string row)
      done
    | Circuit.Not -> pr ".names %s %s\n0 1\n" (List.nth ins 0) target
    | Circuit.Buf -> pr ".names %s %s\n1 1\n" (List.nth ins 0) target
    | Circuit.Const0 -> pr ".names %s\n" target
    | Circuit.Const1 -> pr ".names %s\n1\n" target
  in
  for net = 0 to Circuit.num_nets c - 1 do
    match Circuit.node c net with
    | Circuit.Gate (fn, fanins) -> emit_gate net fn fanins
    | Circuit.Input | Circuit.Latch _ -> ()
  done;
  pr ".end\n";
  Buffer.contents buf

let to_file path c =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string c))
