(* Reader/writer for the ISCAS'89 ".bench" netlist format — the format in
   which the paper's benchmark circuits are traditionally distributed:

     INPUT(G0)
     OUTPUT(G17)
     G10 = DFF(G14)
     G11 = NOT(G0)
     G17 = NAND(G10, G11)

   DFF initial values are not representable in .bench; they are taken as 0
   on input (the usual convention) and initial-1 latches are emitted
   through an inverter pair with a warning comment on output. *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type raw_gate = { target : string; func : string; args : string list }

let parse_raw text =
  let inputs = ref [] and outputs = ref [] and gates = ref [] in
  let handle line =
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    let line = String.trim line in
    if line = "" then ()
    else begin
      let upper = String.uppercase_ascii line in
      let bracketed prefix =
        (* e.g. INPUT(G0) *)
        let start = String.length prefix + 1 in
        match String.index_opt line ')' with
        | Some stop when stop > start -> Some (String.trim (String.sub line start (stop - start)))
        | _ -> None
      in
      if String.length upper >= 6 && String.sub upper 0 6 = "INPUT(" then
        match bracketed "INPUT" with
        | Some name -> inputs := name :: !inputs
        | None -> parse_error "malformed INPUT: %s" line
      else if String.length upper >= 7 && String.sub upper 0 7 = "OUTPUT(" then
        match bracketed "OUTPUT" with
        | Some name -> outputs := name :: !outputs
        | None -> parse_error "malformed OUTPUT: %s" line
      else
        match String.index_opt line '=' with
        | None -> parse_error "expected assignment: %s" line
        | Some eq ->
          let target = String.trim (String.sub line 0 eq) in
          let rhs = String.trim (String.sub line (eq + 1) (String.length line - eq - 1)) in
          (match (String.index_opt rhs '(', String.rindex_opt rhs ')') with
          | Some op, Some cp when cp > op ->
            let func = String.uppercase_ascii (String.trim (String.sub rhs 0 op)) in
            let args =
              String.sub rhs (op + 1) (cp - op - 1)
              |> String.split_on_char ','
              |> List.map String.trim
              |> List.filter (fun s -> s <> "")
            in
            gates := { target; func; args } :: !gates
          | _ -> parse_error "malformed gate: %s" line)
    end
  in
  List.iter handle (String.split_on_char '\n' text);
  (List.rev !inputs, List.rev !outputs, List.rev !gates)

let gate_fn_of_func line = function
  | "AND" -> Circuit.And
  | "OR" -> Circuit.Or
  | "NAND" -> Circuit.Nand
  | "NOR" -> Circuit.Nor
  | "XOR" -> Circuit.Xor
  | "XNOR" -> Circuit.Xnor
  | "NOT" | "INV" -> Circuit.Not
  | "BUF" | "BUFF" -> Circuit.Buf
  | func -> parse_error "unsupported gate %s in: %s" func line

let parse_string ?(model = "bench") ?(lenient = false) text =
  let inputs, outputs, gates = parse_raw text in
  let c = Circuit.create model in
  let env : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace env n (Circuit.add_input ~name:n c)) inputs;
  let defs : (string, raw_gate) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun g -> Hashtbl.replace defs g.target g) gates;
  (* duplicate definitions: strict mode rejects them, lenient mode
     materializes every driver so the multiply-driven lint rule can
     report them *)
  let definition_count = Hashtbl.create 64 in
  let count name =
    Hashtbl.replace definition_count name
      (1 + Option.value ~default:0 (Hashtbl.find_opt definition_count name))
  in
  List.iter count inputs;
  List.iter (fun g -> count g.target) gates;
  let duplicates =
    List.sort compare
      (Hashtbl.fold
         (fun name n acc -> if n > 1 then name :: acc else acc)
         definition_count [])
  in
  if duplicates <> [] && not lenient then
    parse_error "multiple drivers for signal(s): %s" (String.concat ", " duplicates);
  (* DFF outputs are nets available from the start; each duplicate DFF
     definition allocates its own latch *)
  let dffs =
    List.filter_map
      (fun g ->
        if g.func = "DFF" then begin
          let net = Circuit.add_latch ~name:g.target c ~init:false in
          Hashtbl.replace env g.target net;
          Some (g, net)
        end
        else None)
      gates
  in
  let building = Hashtbl.create 16 in
  let cycle_patches = ref [] in
  let built : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec net_of name =
    match Hashtbl.find_opt env name with
    | Some net -> net
    | None ->
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
          if not lenient then parse_error "undefined signal %s" name;
          let net = Circuit.add_undriven ~name c in
          Hashtbl.replace env name net;
          net
        | Some g ->
          let net = build_gate g in
          Hashtbl.replace env name net;
          Hashtbl.replace built name ();
          Hashtbl.remove building name;
          net
      end
  and build_gate g =
    let fn = gate_fn_of_func (g.target ^ " = " ^ g.func) g.func in
    let fanins = List.map net_of g.args in
    match Circuit.add_gate ~name:g.target c fn fanins with
    | net -> net
    | exception Invalid_argument _ when lenient ->
      (* impossible fanin count (e.g. NOT with two arguments): materialize
         it anyway for the bad-arity lint rule *)
      let net = Circuit.add_undriven ~name:g.target c in
      Circuit.unsafe_set_node c net (Circuit.Gate (fn, Array.of_list fanins));
      net
  in
  List.iter (fun g -> if g.func <> "DFF" then ignore (net_of g.target)) gates;
  (* lenient: materialize the shadowed drivers of duplicated names too;
     [net_of] built at most one gate per name — the one [defs] retained,
     and only when the name was not already an input or DFF *)
  if lenient then
    List.iter
      (fun g ->
        if g.func <> "DFF" then begin
          let is_the_built_one =
            Hashtbl.mem built g.target
            && (match Hashtbl.find_opt defs g.target with
               | Some kept -> kept == g
               | None -> false)
          in
          if not is_the_built_one then ignore (build_gate g)
        end)
      gates;
  List.iter
    (fun (g, lnet) ->
      match g.args with
      | [ d ] ->
        (* lenient: a DFF whose data signal has no definition stays
           unclosed; the unclosed-latch rule reports it *)
        if (not lenient) || Hashtbl.mem env d || Hashtbl.mem defs d then
          Circuit.set_latch_data c lnet ~data:(net_of d)
      | _ -> if not lenient then parse_error "DFF takes one argument: %s" g.target)
    dffs;
  List.iter (fun name -> Circuit.add_output c name (net_of name)) outputs;
  (* close the cycles broken during elaboration through a buffer *)
  List.iter
    (fun (placeholder, name) ->
      match Hashtbl.find_opt env name with
      | Some net ->
        Circuit.unsafe_set_node c placeholder (Circuit.Gate (Circuit.Buf, [| net |]))
      | None -> ())
    !cycle_patches;
  c

let parse_file ?lenient path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  parse_string ~model:(Filename.remove_extension (Filename.basename path)) ?lenient text

let net_label c net =
  match Circuit.name_of c net with Some n -> n | None -> Printf.sprintf "n%d" net

let to_string c =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "# %s\n" (Circuit.model c);
  List.iter (fun net -> pr "INPUT(%s)\n" (net_label c net)) (Circuit.inputs c);
  List.iter (fun (name, _) -> pr "OUTPUT(%s)\n" name) (Circuit.outputs c);
  (* output aliases for named outputs that differ from their net's label *)
  List.iter
    (fun (name, net) ->
      if name <> net_label c net then pr "%s = BUFF(%s)\n" name (net_label c net))
    (Circuit.outputs c);
  List.iter
    (fun latch ->
      if Circuit.latch_init c latch then
        pr "# warning: latch %s has initial value 1, not representable in .bench\n"
          (net_label c latch);
      pr "%s = DFF(%s)\n" (net_label c latch) (net_label c (Circuit.latch_data c latch)))
    (Circuit.latches c);
  for net = 0 to Circuit.num_nets c - 1 do
    match Circuit.node c net with
    | Circuit.Gate (fn, fanins) ->
      let ins = String.concat ", " (Array.to_list (Array.map (net_label c) fanins)) in
      let func =
        match fn with
        | Circuit.And -> "AND"
        | Circuit.Or -> "OR"
        | Circuit.Nand -> "NAND"
        | Circuit.Nor -> "NOR"
        | Circuit.Xor -> "XOR"
        | Circuit.Xnor -> "XNOR"
        | Circuit.Not -> "NOT"
        | Circuit.Buf -> "BUFF"
        | Circuit.Const0 | Circuit.Const1 -> ""
      in
      (match fn with
      | Circuit.Const0 ->
        (* no constants in .bench: x & !x *)
        let label = net_label c net in
        (match Circuit.inputs c with
        | first :: _ ->
          pr "%s_not = NOT(%s)\n" label (net_label c first);
          pr "%s = AND(%s, %s_not)\n" label (net_label c first) label
        | [] -> parse_error "cannot emit constant without inputs")
      | Circuit.Const1 ->
        let label = net_label c net in
        (match Circuit.inputs c with
        | first :: _ ->
          pr "%s_not = NOT(%s)\n" label (net_label c first);
          pr "%s = OR(%s, %s_not)\n" label (net_label c first) label
        | [] -> parse_error "cannot emit constant without inputs")
      | _ -> pr "%s = %s(%s)\n" (net_label c net) func ins)
    | Circuit.Input | Circuit.Latch _ -> ()
  done;
  Buffer.contents buf

let to_file path c =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string c))
