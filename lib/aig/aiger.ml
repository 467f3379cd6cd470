(* ASCII AIGER (aag) reading and writing.  Node ids are renumbered on
   output into the canonical AIGER layout (PIs, then latches, then ANDs),
   so any AIG can be exported. *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let to_string t =
  (* renumber: PIs, latches, then and nodes in topological (id) order *)
  let n = Graph.num_nodes t in
  let new_id = Array.make n (-1) in
  new_id.(0) <- 0;
  let counter = ref 0 in
  let assign id =
    incr counter;
    new_id.(id) <- !counter
  in
  List.iter assign (Graph.pis t);
  List.iter assign (Graph.latch_ids t);
  let ands = ref [] in
  for id = 1 to n - 1 do
    match Graph.node t id with
    | Graph.And _ ->
      assign id;
      ands := id :: !ands
    | Graph.Const | Graph.Pi _ | Graph.Latch _ -> ()
  done;
  let ands = List.rev !ands in
  let tr l = (2 * new_id.(Graph.node_of_lit l)) lor (l land 1) in
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n_pis = Graph.num_pis t
  and n_latches = Graph.num_latches t
  and pos = Graph.pos t in
  pr "aag %d %d %d %d %d\n" !counter n_pis n_latches (List.length pos)
    (List.length ands);
  List.iter (fun id -> pr "%d\n" (2 * new_id.(id))) (Graph.pis t);
  for i = 0 to n_latches - 1 do
    pr "%d %d %d\n"
      (2 * new_id.(Graph.latch_node t i))
      (tr (Graph.latch_next t i))
      (if Graph.latch_init t i then 1 else 0)
  done;
  List.iter (fun (_, l) -> pr "%d\n" (tr l)) pos;
  List.iter
    (fun id ->
      match Graph.node t id with
      | Graph.And (a, b) -> pr "%d %d %d\n" (2 * new_id.(id)) (tr a) (tr b)
      | Graph.Const | Graph.Pi _ | Graph.Latch _ -> assert false)
    ands;
  (* symbol table: output names *)
  List.iteri (fun i (name, _) -> pr "o%d %s\n" i name) pos;
  Buffer.contents buf

(* --- reading ----------------------------------------------------------------- *)

(* Both readers are total: every malformed input is a [Parse_error], and
   nothing is allocated for a header count before the text is known to
   hold that many lines (ASCII) or bytes (binary).  Header fields and
   literals are plain decimals; a literal above 2M+1 is rejected where it
   is read. *)

let nat what s =
  let digits = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s in
  match if digits then int_of_string_opt s else None with
  | Some n -> n
  | None -> parse_error "bad %s %S" what s

let fields line = String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let header magic line =
  match fields line with
  | [ tag; m; i; l; o; a ] when tag = magic ->
    (nat "M" m, nat "I" i, nat "L" l, nat "O" o, nat "A" a)
  | _ -> parse_error "bad %s header: %s" magic line

let literal ~m s =
  let lit = nat "literal" s in
  if lit / 2 > m then parse_error "literal %d exceeds 2M+1 (M = %d)" lit m;
  lit

(* Output names from the symbol table ("o<index> <name>" lines), up to
   the comment section. *)
let output_names lines =
  let names = Hashtbl.create 8 in
  let rec go = function
    | [] -> ()
    | line :: _ when line.[0] = 'c' -> ()
    | line :: rest ->
      (match String.index_opt line ' ' with
      | Some sp when line.[0] = 'o' ->
        let idx = nat "output index" (String.sub line 1 (sp - 1)) in
        Hashtbl.replace names idx (String.sub line (sp + 1) (String.length line - sp - 1))
      | _ -> ());
      go rest
  in
  go (List.filter (fun l -> l <> "") lines);
  fun idx -> Option.value (Hashtbl.find_opt names idx) ~default:(Printf.sprintf "o%d" idx)

let parse_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let header_line, rest =
    match lines with [] -> parse_error "empty aag" | h :: rest -> (h, rest)
  in
  let m, i, l, o, a = header "aag" header_line in
  let present = List.length rest in
  if max (max i l) (max o a) > present || i + l + o + a > present then
    parse_error "truncated aag: the header declares %d lines, %d present" (i + l + o + a)
      present;
  let lit = literal ~m in
  let lits line = List.map lit (fields line) in
  let t = Graph.create () in
  (* graph literal of each defined aag variable; variable 0 is false *)
  let map = Hashtbl.create (i + l + a + 1) in
  Hashtbl.replace map 0 0;
  let define lhs node =
    if lhs land 1 = 1 then parse_error "complemented definition %d" lhs;
    if Hashtbl.mem map (lhs / 2) then parse_error "variable %d defined twice" (lhs / 2);
    Hashtbl.replace map (lhs / 2) node
  in
  let tr l =
    match Hashtbl.find map (l / 2) with
    | node -> node lxor (l land 1)
    | exception Not_found -> parse_error "undefined literal %d" l
  in
  let rec take k acc rest =
    match rest with
    | line :: rest when k > 0 -> take (k - 1) (line :: acc) rest
    | _ -> (List.rev acc, rest)
  in
  let pi_lines, rest = take i [] rest in
  List.iter
    (fun line ->
      match lits line with
      | [ lhs ] -> define lhs (Graph.add_pi t)
      | _ -> parse_error "bad pi line: %s" line)
    pi_lines;
  let latch_lines, rest = take l [] rest in
  let latch_nexts =
    List.map
      (fun line ->
        let lhs, next, init =
          match fields line with
          | [ lhs; next ] -> (lit lhs, lit next, false)
          | [ lhs; next; init ] -> (lit lhs, lit next, nat "latch init" init = 1)
          | _ -> parse_error "bad latch line: %s" line
        in
        let lat = Graph.add_latch t ~init in
        define lhs lat;
        (lat, next))
      latch_lines
  in
  let po_lines, rest = take o [] rest in
  let and_lines, rest = take a [] rest in
  List.iter
    (fun line ->
      match lits line with
      | [ lhs; a; b ] -> define lhs (Graph.mk_and t (tr a) (tr b))
      | _ -> parse_error "bad and line: %s" line)
    and_lines;
  List.iter (fun (lat, next) -> Graph.set_latch_next t lat ~next:(tr next)) latch_nexts;
  let name = output_names rest in
  List.iteri
    (fun idx line ->
      match lits line with
      | [ l ] -> Graph.add_po t (name idx) (tr l)
      | _ -> parse_error "bad output line: %s" line)
    po_lines;
  t

(* --- binary AIGER (aig) ---------------------------------------------------- *)

(* The binary format stores each AND as two 7-bit varints: with the nodes
   renumbered so definitions are topological (PIs, latches, ANDs in
   order), the i-th AND defines literal lhs = 2*(I+L+i+1) and encodes
   lhs - rhs0 and rhs0 - rhs1 with rhs0 >= rhs1 < lhs. *)

let write_varint buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let byte = !n land 0x7f in
    n := !n lsr 7;
    if !n <> 0 then Buffer.add_char buf (Char.chr (byte lor 0x80))
    else begin
      Buffer.add_char buf (Char.chr byte);
      continue := false
    end
  done

let to_binary_string t =
  let n = Graph.num_nodes t in
  let new_id = Array.make n (-1) in
  new_id.(0) <- 0;
  let counter = ref 0 in
  let assign id =
    incr counter;
    new_id.(id) <- !counter
  in
  List.iter assign (Graph.pis t);
  List.iter assign (Graph.latch_ids t);
  let ands = ref [] in
  for id = 1 to n - 1 do
    match Graph.node t id with
    | Graph.And _ ->
      assign id;
      ands := id :: !ands
    | Graph.Const | Graph.Pi _ | Graph.Latch _ -> ()
  done;
  let ands = List.rev !ands in
  let tr l = (2 * new_id.(Graph.node_of_lit l)) lor (l land 1) in
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n_pis = Graph.num_pis t
  and n_latches = Graph.num_latches t
  and pos = Graph.pos t in
  pr "aig %d %d %d %d %d\n" !counter n_pis n_latches (List.length pos)
    (List.length ands);
  for i = 0 to n_latches - 1 do
    pr "%d %d\n" (tr (Graph.latch_next t i)) (if Graph.latch_init t i then 1 else 0)
  done;
  List.iter (fun (_, l) -> pr "%d\n" (tr l)) pos;
  List.iter
    (fun id ->
      match Graph.node t id with
      | Graph.And (a, b) ->
        let lhs = 2 * new_id.(id) in
        let r0 = tr a and r1 = tr b in
        let rhs0 = max r0 r1 and rhs1 = min r0 r1 in
        write_varint buf (lhs - rhs0);
        write_varint buf (rhs0 - rhs1)
      | Graph.Const | Graph.Pi _ | Graph.Latch _ -> assert false)
    ands;
  List.iteri (fun i (name, _) -> pr "o%d %s\n" i name) pos;
  Buffer.contents buf

(* Inputs occupy no bytes in the binary format, so the input count is the
   one header field the text cannot bound; it is capped instead. *)
let max_binary_inputs = 1 lsl 20

let parse_binary_string text =
  let pos = ref 0 in
  let len = String.length text in
  let read_line () =
    match String.index_from_opt text !pos '\n' with
    | Some nl ->
      let line = String.sub text !pos (nl - !pos) in
      pos := nl + 1;
      line
    | None -> parse_error "unexpected end of binary aig"
  in
  let header_line = read_line () in
  let m, i, l, o, a = header "aig" header_line in
  (* each latch and output takes a line, each AND at least two bytes *)
  let left = len - !pos in
  if l > left || o > left || l + o > left || a > left / 2 then
    parse_error "truncated binary aig: the header declares more than its %d bytes hold" left;
  if i > max_binary_inputs then
    parse_error "binary aig declares %d inputs (at most %d supported)" i max_binary_inputs;
  if m <> i + l + a then parse_error "binary aig requires M = I + L + A";
  let lit = literal ~m in
  let t = Graph.create () in
  (* literal (in our graph) for each aiger variable *)
  let lit_of_var = Array.make (m + 1) (-1) in
  lit_of_var.(0) <- 0;
  for v = 1 to i do
    lit_of_var.(v) <- Graph.add_pi t
  done;
  let latch_info =
    List.init l (fun j ->
        let line = read_line () in
        match fields line with
        | [ next ] -> (j, lit next, false)
        | [ next; init ] -> (j, lit next, init = "1")
        | _ -> parse_error "bad binary latch line: %s" line)
  in
  List.iter
    (fun (j, _, init) -> lit_of_var.(i + 1 + j) <- Graph.add_latch t ~init)
    latch_info;
  let po_lits = List.init o (fun _ -> lit (String.trim (read_line ()))) in
  (* binary and section *)
  let read_varint () =
    let shift = ref 0 and value = ref 0 and continue = ref true in
    while !continue do
      if !pos >= len then parse_error "truncated varint";
      if !shift > 56 then parse_error "varint too long";
      let byte = Char.code text.[!pos] in
      incr pos;
      value := !value lor ((byte land 0x7f) lsl !shift);
      shift := !shift + 7;
      if byte land 0x80 = 0 then continue := false
    done;
    !value
  in
  let tr l =
    let v = l / 2 in
    if lit_of_var.(v) < 0 then parse_error "undefined literal %d" l;
    lit_of_var.(v) lxor (l land 1)
  in
  for j = 0 to a - 1 do
    let lhs = 2 * (i + l + 1 + j) in
    let d0 = read_varint () in
    let d1 = read_varint () in
    if d0 > lhs || d1 > lhs - d0 then parse_error "bad deltas for and %d" j;
    let rhs0 = lhs - d0 in
    let rhs1 = rhs0 - d1 in
    lit_of_var.(lhs / 2) <- Graph.mk_and t (tr rhs0) (tr rhs1)
  done;
  List.iter
    (fun (j, next, _) ->
      Graph.set_latch_next t lit_of_var.(i + 1 + j) ~next:(tr next))
    latch_info;
  let name =
    output_names
      (String.split_on_char '\n' (String.sub text !pos (len - !pos)) |> List.map String.trim)
  in
  List.iteri (fun idx lit -> Graph.add_po t (name idx) (tr lit)) po_lits;
  t
