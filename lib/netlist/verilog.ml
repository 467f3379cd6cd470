(* Structural Verilog I/O.

   Writer: one module with wire declarations, continuous assignments for
   the gates, and per-register always-blocks; [to_string] wraps a plain
   circuit with a generated clock/reset (reset loads the initial values,
   the historical format), [design_to_string] keeps a clocked design's
   enables, resets and gated clocks as [if]-nests and sensitivity lists.
   All emitted labels go through one uniquifying table per call, so
   sanitization collisions ([a.b] vs [a_b]), user signals shadowing the
   generated [clock]/[reset] ports, names colliding with the [n<net>]
   fallback of unnamed nets, and Verilog keywords are all suffixed apart.

   Reader: the structural subset the writer emits — input/output/wire/reg
   declarations, assigns over the writer's operator set plus [?:],
   [initial] one-bit constants, and [always @(posedge clk)] /
   [always @(posedge clk or posedge rst)] blocks of non-blocking
   assignments under [if (rst)] / [if (en)] nests.  The result is a
   {!Clocking.t}; writer output round-trips textually.  [~lenient]
   materializes semantic defects (undefined signals become undriven nets,
   registers without an always-block stay unclosed) so the lint rules can
   report them, mirroring {!Blif.parse_string}; syntactic damage
   (unclosed module, non-subset constructs) raises {!Parse_error} in both
   modes. *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* --- identifiers --------------------------------------------------------- *)

let keywords =
  [
    "module"; "endmodule"; "input"; "output"; "inout"; "wire"; "reg";
    "assign"; "always"; "initial"; "posedge"; "negedge"; "or"; "and";
    "nand"; "nor"; "xor"; "xnor"; "not"; "buf"; "if"; "else"; "begin";
    "end"; "case"; "endcase"; "parameter"; "localparam";
  ]

let sanitize name =
  let s =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      name
  in
  if s = "" then "n"
  else match s.[0] with '0' .. '9' -> "n_" ^ s | _ -> s

(* One label table per emitted module: [claim] returns a fresh label,
   appending [_1], [_2], … until it collides with nothing claimed before
   (keywords are pre-claimed). *)
let label_table () =
  let used = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace used k ()) keywords;
  let claim base =
    let base = sanitize base in
    let rec go cand i =
      if Hashtbl.mem used cand then go (Printf.sprintf "%s_%d" base i) (i + 1)
      else begin
        Hashtbl.replace used cand ();
        cand
      end
    in
    go base 1
  in
  claim

(* --- writer -------------------------------------------------------------- *)

let operator = function
  | Circuit.And | Circuit.Nand -> " & "
  | Circuit.Or | Circuit.Nor -> " | "
  | Circuit.Xor | Circuit.Xnor -> " ^ "
  | Circuit.Not | Circuit.Buf | Circuit.Const0 | Circuit.Const1 -> ""

(* [virtual_reset] is the historical plain-circuit format: a generated
   reset input loads every register's initial value; the design must then
   carry only default specs.  Without it, specs drive the sensitivity
   lists and [if]-nests, and initial values unexplained by a reset branch
   are emitted as [initial] statements. *)
let emit d ~virtual_reset =
  let c = Clocking.circuit d in
  let inputs = Circuit.inputs c in
  let outputs = Circuit.outputs c in
  let latches = Circuit.latches c in
  if virtual_reset && not (Clocking.is_plain d) then
    invalid_arg "Verilog: virtual reset requires a plain design";
  let closed = List.filter (fun l -> Circuit.latch_data c l >= 0) latches in
  let uses_primary =
    List.exists (fun l -> (Clocking.spec d l).clock_gate = None) closed
  in
  (* user-visible names claim labels first, so they survive collisions
     with the generated clock/reset ports and with the [n<net>] fallback
     of unnamed nets; only genuinely colliding user names get suffixed *)
  let claim = label_table () in
  let net_labels = Array.make (Circuit.num_nets c) "" in
  for net = 0 to Circuit.num_nets c - 1 do
    match Circuit.name_of c net with
    | Some n -> net_labels.(net) <- claim n
    | None -> ()
  done;
  let out_labels =
    List.map
      (fun (name, net) ->
        if Circuit.name_of c net = Some name then net_labels.(net)
        else claim name)
      outputs
  in
  let clock = if uses_primary then claim (Clocking.clock_name d) else "" in
  let vreset = if virtual_reset && closed <> [] then claim "reset" else "" in
  for net = 0 to Circuit.num_nets c - 1 do
    if net_labels.(net) = "" then
      net_labels.(net) <- claim (Printf.sprintf "n%d" net)
  done;
  let lbl net = net_labels.(net) in
  (* a derived clock driven by a primary input needs a wire alias, or the
     reader could not tell it apart from the primary clock *)
  let gate_alias = Hashtbl.create 4 in
  List.iter
    (fun l ->
      match (Clocking.spec d l).clock_gate with
      | Some g
        when (match Circuit.node c g with
             | Circuit.Input -> true
             | Circuit.Gate _ | Circuit.Latch _ -> false)
             && not (Hashtbl.mem gate_alias g) ->
        Hashtbl.replace gate_alias g (claim (lbl g ^ "_gate"))
      | _ -> ())
    closed;
  let clock_label l =
    match (Clocking.spec d l).clock_gate with
    | None -> clock
    | Some g -> (
      match Hashtbl.find_opt gate_alias g with Some a -> a | None -> lbl g)
  in
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let ports =
    (if uses_primary then [ clock ] else [])
    @ (if vreset <> "" then [ vreset ] else [])
    @ List.map lbl inputs @ out_labels
  in
  pr "// generated by seqver from %s\n" (Circuit.model c);
  let module_name =
    let m = sanitize (Circuit.model c) in
    if List.mem m keywords then "m_" ^ m else m
  in
  pr "module %s(%s);\n" module_name (String.concat ", " ports);
  if uses_primary then pr "  input %s;\n" clock;
  if vreset <> "" then pr "  input %s;\n" vreset;
  List.iter (fun net -> pr "  input %s;\n" (lbl net)) inputs;
  List.iter (fun l -> pr "  output %s;\n" l) out_labels;
  List.iter (fun latch -> pr "  reg %s;\n" (lbl latch)) latches;
  for net = 0 to Circuit.num_nets c - 1 do
    match Circuit.node c net with
    | Circuit.Gate _ -> pr "  wire %s;\n" (lbl net)
    | Circuit.Input | Circuit.Latch _ -> ()
  done;
  Hashtbl.iter (fun _ alias -> pr "  wire %s;\n" alias) gate_alias;
  (* initial values not implied by a reset branch *)
  if not virtual_reset then
    List.iter
      (fun l ->
        let implied =
          match (Clocking.spec d l).reset with
          | Some (_, _, rval) -> rval
          | None -> false
        in
        if Circuit.latch_init c l <> implied then
          pr "  initial %s = 1'b%d;\n" (lbl l)
            (if Circuit.latch_init c l then 1 else 0))
      latches;
  for net = 0 to Circuit.num_nets c - 1 do
    match Circuit.node c net with
    | Circuit.Gate (fn, fanins) -> (
      let ins = Array.to_list (Array.map lbl fanins) in
      let target = lbl net in
      match fn with
      | Circuit.Const0 -> pr "  assign %s = 1'b0;\n" target
      | Circuit.Const1 -> pr "  assign %s = 1'b1;\n" target
      | Circuit.Not -> pr "  assign %s = ~%s;\n" target (List.nth ins 0)
      | Circuit.Buf -> pr "  assign %s = %s;\n" target (List.nth ins 0)
      | Circuit.And | Circuit.Or | Circuit.Xor ->
        pr "  assign %s = %s;\n" target (String.concat (operator fn) ins)
      | Circuit.Nand | Circuit.Nor | Circuit.Xnor -> (
        (* a one-input negated gate is just an inverter; emit the form
           the reader canonicalizes to, keeping round trips textual *)
        match ins with
        | [ x ] -> pr "  assign %s = ~%s;\n" target x
        | _ -> pr "  assign %s = ~(%s);\n" target (String.concat (operator fn) ins)))
    | Circuit.Input | Circuit.Latch _ -> ()
  done;
  Hashtbl.iter (fun g alias -> pr "  assign %s = %s;\n" alias (lbl g)) gate_alias;
  List.iter2
    (fun (_, net) out -> if out <> lbl net then pr "  assign %s = %s;\n" out (lbl net))
    outputs out_labels;
  (* one always block per closed register *)
  List.iter
    (fun l ->
      let q = lbl l in
      let d_lbl = lbl (Circuit.latch_data c l) in
      let s = Clocking.spec d l in
      let reset =
        if virtual_reset then Some (Clocking.Sync, vreset, Circuit.latch_init c l)
        else
          Option.map (fun (kind, net, rval) -> (kind, lbl net, rval)) s.reset
      in
      let sens =
        match reset with
        | Some (Clocking.Async, rst, _) ->
          Printf.sprintf "posedge %s or posedge %s" (clock_label l) rst
        | Some (Clocking.Sync, _, _) | None ->
          Printf.sprintf "posedge %s" (clock_label l)
      in
      pr "  always @(%s) begin\n" sens;
      (match (reset, s.enable) with
      | None, None -> pr "    %s <= %s;\n" q d_lbl
      | None, Some en -> pr "    if (%s) %s <= %s;\n" (lbl en) q d_lbl
      | Some (_, rst, rval), None ->
        pr "    if (%s) %s <= 1'b%d;\n" rst q (if rval then 1 else 0);
        pr "    else %s <= %s;\n" q d_lbl
      | Some (_, rst, rval), Some en ->
        pr "    if (%s) %s <= 1'b%d;\n" rst q (if rval then 1 else 0);
        pr "    else if (%s) %s <= %s;\n" (lbl en) q d_lbl);
      pr "  end\n")
    closed;
  pr "endmodule\n";
  Buffer.contents buf

let design_to_string d = emit d ~virtual_reset:false
let to_string c = emit (Clocking.of_circuit c) ~virtual_reset:true

let to_file path c =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string c))

(* --- tokenizer ----------------------------------------------------------- *)

type tok =
  | Id of string
  | Const of bool
  | Sym of char  (* ( ) , ; = @ ~ & | ^ ? : *)
  | NonBlocking  (* <= *)
  | Eof

let tok_to_string = function
  | Id s -> s
  | Const b -> if b then "1'b1" else "1'b0"
  | Sym c -> String.make 1 c
  | NonBlocking -> "<="
  | Eof -> "<end of input>"

type lexer = {
  text : string;
  mutable pos : int;
  mutable line : int;
  mutable tok : tok;  (* current lookahead *)
}

let is_id_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true
  | _ -> false

let rec lex_raw lx =
  let n = String.length lx.text in
  if lx.pos >= n then Eof
  else
    let c = lx.text.[lx.pos] in
    match c with
    | ' ' | '\t' | '\r' ->
      lx.pos <- lx.pos + 1;
      lex_raw lx
    | '\n' ->
      lx.pos <- lx.pos + 1;
      lx.line <- lx.line + 1;
      lex_raw lx
    | '/' when lx.pos + 1 < n && lx.text.[lx.pos + 1] = '/' ->
      (match String.index_from_opt lx.text lx.pos '\n' with
      | Some i -> lx.pos <- i
      | None -> lx.pos <- n);
      lex_raw lx
    | '/' when lx.pos + 1 < n && lx.text.[lx.pos + 1] = '*' ->
      let rec skip i =
        if i + 1 >= n then parse_error "line %d: unterminated comment" lx.line
        else if lx.text.[i] = '\n' then (
          lx.line <- lx.line + 1;
          skip (i + 1))
        else if lx.text.[i] = '*' && lx.text.[i + 1] = '/' then i + 2
        else skip (i + 1)
      in
      lx.pos <- skip (lx.pos + 2);
      lex_raw lx
    | '<' when lx.pos + 1 < n && lx.text.[lx.pos + 1] = '=' ->
      lx.pos <- lx.pos + 2;
      NonBlocking
    | '(' | ')' | ',' | ';' | '=' | '@' | '~' | '&' | '|' | '^' | '?' | ':' ->
      lx.pos <- lx.pos + 1;
      Sym c
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
      let start = lx.pos in
      while lx.pos < n && is_id_char lx.text.[lx.pos] do
        lx.pos <- lx.pos + 1
      done;
      Id (String.sub lx.text start (lx.pos - start))
    | '0' .. '9' ->
      (* only one-bit binary constants are in the subset *)
      let start = lx.pos in
      while
        lx.pos < n
        && (is_id_char lx.text.[lx.pos] || lx.text.[lx.pos] = '\'')
      do
        lx.pos <- lx.pos + 1
      done;
      (match String.sub lx.text start (lx.pos - start) with
      | "1'b0" -> Const false
      | "1'b1" -> Const true
      | s -> parse_error "line %d: unsupported constant %S" lx.line s)
    | c -> parse_error "line %d: unexpected character %C" lx.line c

let advance lx = lx.tok <- lex_raw lx

let make_lexer text =
  let lx = { text; pos = 0; line = 1; tok = Eof } in
  advance lx;
  lx

let expect lx tok what =
  if lx.tok <> tok then
    parse_error "line %d: expected %s in %s, got %S" lx.line
      (tok_to_string tok) what (tok_to_string lx.tok);
  advance lx

let expect_id lx what =
  match lx.tok with
  | Id s when not (List.mem s keywords) ->
    advance lx;
    s
  | t -> parse_error "line %d: expected identifier in %s, got %S" lx.line what
           (tok_to_string t)

(* --- raw syntax ---------------------------------------------------------- *)

type expr =
  | Eid of string
  | Econst of bool
  | Enot of expr
  | Ebin of Circuit.gate_fn * expr list  (* And / Or / Xor chains *)
  | Emux of expr * expr * expr  (* cond ? t : e *)

type stmt =
  | Sassign of string * expr  (* q <= e *)
  | Sif of expr * stmt list * stmt list

type item =
  | Dinput of string list
  | Doutput of string list
  | Dwire of string list
  | Dreg of string list
  | Dassign of string * expr * int  (* target, rhs, line *)
  | Dinitial of string * bool
  | Dalways of { posedges : string list; body : stmt list; line : int }

(* precedence (tightest first): ~, &, ^, |, ?: — the Verilog order *)
let rec parse_expr lx = parse_mux lx

and parse_mux lx =
  let cond = parse_or lx in
  match lx.tok with
  | Sym '?' ->
    advance lx;
    let t = parse_mux lx in
    expect lx (Sym ':') "conditional expression";
    let e = parse_mux lx in
    Emux (cond, t, e)
  | _ -> cond

and parse_or lx =
  let first = parse_xor lx in
  let rec more acc =
    match lx.tok with
    | Sym '|' ->
      advance lx;
      more (parse_xor lx :: acc)
    | _ -> List.rev acc
  in
  match more [ first ] with [ e ] -> e | es -> Ebin (Circuit.Or, es)

and parse_xor lx =
  let first = parse_and lx in
  let rec more acc =
    match lx.tok with
    | Sym '^' ->
      advance lx;
      more (parse_and lx :: acc)
    | _ -> List.rev acc
  in
  match more [ first ] with [ e ] -> e | es -> Ebin (Circuit.Xor, es)

and parse_and lx =
  let first = parse_unary lx in
  let rec more acc =
    match lx.tok with
    | Sym '&' ->
      advance lx;
      more (parse_unary lx :: acc)
    | _ -> List.rev acc
  in
  match more [ first ] with [ e ] -> e | es -> Ebin (Circuit.And, es)

and parse_unary lx =
  match lx.tok with
  | Sym '~' ->
    advance lx;
    Enot (parse_unary lx)
  | Sym '(' ->
    advance lx;
    let e = parse_expr lx in
    expect lx (Sym ')') "parenthesized expression";
    e
  | Const b ->
    advance lx;
    Econst b
  | Id s when not (List.mem s keywords) ->
    advance lx;
    Eid s
  | t ->
    parse_error "line %d: expected expression, got %S" lx.line (tok_to_string t)

let rec parse_stmt lx =
  match lx.tok with
  | Id "begin" ->
    advance lx;
    let rec body acc =
      match lx.tok with
      | Id "end" ->
        advance lx;
        List.rev acc
      | Eof -> parse_error "line %d: unterminated begin block" lx.line
      | _ -> body (List.rev_append (parse_stmt lx) acc)
    in
    body []
  | Id "if" ->
    advance lx;
    expect lx (Sym '(') "if condition";
    let cond = parse_expr lx in
    expect lx (Sym ')') "if condition";
    let then_ = parse_stmt lx in
    let else_ =
      match lx.tok with
      | Id "else" ->
        advance lx;
        parse_stmt lx
      | _ -> []
    in
    [ Sif (cond, then_, else_) ]
  | _ ->
    let target = expect_id lx "non-blocking assignment" in
    expect lx NonBlocking "non-blocking assignment";
    let e = parse_expr lx in
    expect lx (Sym ';') "non-blocking assignment";
    [ Sassign (target, e) ]

let parse_id_list lx what =
  let rec go acc =
    let id = expect_id lx what in
    match lx.tok with
    | Sym ',' ->
      advance lx;
      go (id :: acc)
    | _ ->
      expect lx (Sym ';') what;
      List.rev (id :: acc)
  in
  go []

let parse_items lx =
  let rec go acc =
    match lx.tok with
    | Id "endmodule" ->
      advance lx;
      List.rev acc
    | Eof -> parse_error "line %d: unclosed module (missing endmodule)" lx.line
    | Id "input" ->
      advance lx;
      go (Dinput (parse_id_list lx "input declaration") :: acc)
    | Id "output" ->
      advance lx;
      go (Doutput (parse_id_list lx "output declaration") :: acc)
    | Id "wire" ->
      advance lx;
      go (Dwire (parse_id_list lx "wire declaration") :: acc)
    | Id "reg" ->
      advance lx;
      go (Dreg (parse_id_list lx "reg declaration") :: acc)
    | Id "assign" ->
      let line = lx.line in
      advance lx;
      let target = expect_id lx "assign" in
      expect lx (Sym '=') "assign";
      let e = parse_expr lx in
      expect lx (Sym ';') "assign";
      go (Dassign (target, e, line) :: acc)
    | Id "initial" ->
      advance lx;
      let target = expect_id lx "initial" in
      expect lx (Sym '=') "initial";
      let v =
        match lx.tok with
        | Const b ->
          advance lx;
          b
        | t ->
          parse_error "line %d: initial value must be 1'b0/1'b1, got %S"
            lx.line (tok_to_string t)
      in
      expect lx (Sym ';') "initial";
      go (Dinitial (target, v) :: acc)
    | Id "always" ->
      let line = lx.line in
      advance lx;
      expect lx (Sym '@') "always block";
      expect lx (Sym '(') "sensitivity list";
      let rec posedges acc =
        (match lx.tok with
        | Id "posedge" -> advance lx
        | Id "negedge" ->
          parse_error "line %d: negedge sensitivity is outside the subset"
            lx.line
        | t ->
          parse_error
            "line %d: expected posedge in sensitivity list, got %S" lx.line
            (tok_to_string t));
        let id = expect_id lx "sensitivity list" in
        match lx.tok with
        | Id "or" ->
          advance lx;
          posedges (id :: acc)
        | _ ->
          expect lx (Sym ')') "sensitivity list";
          List.rev (id :: acc)
      in
      let posedges = posedges [] in
      let body = parse_stmt lx in
      go (Dalways { posedges; body; line } :: acc)
    | Id kw when List.mem kw keywords ->
      parse_error "line %d: construct %S is outside the structural subset"
        lx.line kw
    | t ->
      parse_error "line %d: unexpected %S in module body" lx.line
        (tok_to_string t)
  in
  go []

let parse_module lx =
  (match lx.tok with
  | Id "module" -> advance lx
  | t ->
    parse_error "line %d: expected module, got %S" lx.line (tok_to_string t));
  let name =
    match lx.tok with
    | Id s ->
      advance lx;
      s
    | t ->
      parse_error "line %d: expected module name, got %S" lx.line
        (tok_to_string t)
  in
  (* port list: names are redundant with the declarations, which drive
     elaboration order *)
  (match lx.tok with
  | Sym '(' ->
    advance lx;
    let rec ports () =
      match lx.tok with
      | Sym ')' -> advance lx
      | Id _ ->
        ignore (expect_id lx "port list");
        (match lx.tok with Sym ',' -> advance lx | _ -> ());
        ports ()
      | t ->
        parse_error "line %d: unexpected %S in port list" lx.line
          (tok_to_string t)
    in
    ports ();
    expect lx (Sym ';') "module header"
  | Sym ';' -> advance lx
  | t ->
    parse_error "line %d: expected port list, got %S" lx.line (tok_to_string t));
  let items = parse_items lx in
  (match lx.tok with
  | Eof -> ()
  | t ->
    parse_error "line %d: trailing %S after endmodule" lx.line (tok_to_string t));
  (name, items)

(* --- elaboration --------------------------------------------------------- *)

(* Flatten an always body into (target, path condition, rhs) records in
   textual order; the path condition is the conjunction of if-branches
   taken, innermost last. *)
let flatten_body body =
  let records = ref [] in
  let rec walk conds stmts =
    List.iter
      (fun stmt ->
        match stmt with
        | Sassign (q, e) -> records := (q, List.rev conds, e) :: !records
        | Sif (c, t, f) ->
          walk ((c, true) :: conds) t;
          walk ((c, false) :: conds) f)
      stmts
  in
  walk [] body;
  List.rev !records

(* Does one register's record list start with a reset branch?  With an
   asynchronous sensitivity item the leading [if] must test it; a
   synchronous reset is a leading [if (r) q <= constant] that the other
   paths are guarded against ([else …]) — a plain [if (en) q <= 1'b1]
   with no else stays an enable, not a reset. *)
let recognize_reset async_id mine =
  match (async_id, mine) with
  | Some r, (_, [ (Eid r', true) ], Econst v) :: _ when r' = r ->
    Some (Clocking.Async, r, v)
  | Some _, _ -> None
  | None, (_, [ (Eid r', true) ], Econst v) :: rest
    when List.exists
           (fun (_, conds, _) ->
             match conds with (Eid r'', false) :: _ -> r'' = r' | _ -> false)
           rest ->
    Some (Clocking.Sync, r', v)
  | None, _ -> None

let records_of q records = List.filter (fun (q', _, _) -> q' = q) records

let parse_string ?(lenient = false) text =
  let lx = make_lexer text in
  let model, items = parse_module lx in
  let design = Clocking.create model in
  let c = Clocking.circuit design in
  let mem tbl x = Hashtbl.mem tbl x in
  let inputs_d = Hashtbl.create 16
  and outputs_d = Hashtbl.create 16
  and wires_d = Hashtbl.create 16
  and regs_d = Hashtbl.create 16 in
  let declare tbl what name =
    if mem tbl name then
      if lenient then ()
      else parse_error "duplicate %s declaration of %s" what name
    else Hashtbl.replace tbl name ()
  in
  List.iter
    (function
      | Dinput l -> List.iter (declare inputs_d "input") l
      | Doutput l -> List.iter (declare outputs_d "output") l
      | Dwire l -> List.iter (declare wires_d "wire") l
      | Dreg l -> List.iter (declare regs_d "reg") l
      | Dassign _ | Dinitial _ | Dalways _ -> ())
    items;
  Hashtbl.iter
    (fun name () ->
      if mem wires_d name || mem regs_d name then
        parse_error "%s declared both input and wire/reg" name)
    inputs_d;
  Hashtbl.iter
    (fun name () ->
      if mem regs_d name then parse_error "%s declared both wire and reg" name)
    wires_d;
  (* classify the always blocks: with two posedge items the one tested by
     the leading [if] is the asynchronous reset, the other is the clock *)
  let always_info =
    List.filter_map
      (function
        | Dalways { posedges; body; line } ->
          let clock_id, async_id =
            match posedges with
            | [ clk ] -> (clk, None)
            | [ a; b ] -> (
              let top_cond =
                match body with Sif (Eid r, _, _) :: _ -> Some r | _ -> None
              in
              match top_cond with
              | Some r when r = a -> (b, Some r)
              | Some r when r = b -> (a, Some r)
              | _ ->
                parse_error
                  "line %d: two-edge sensitivity requires a leading if on \
                   one of the edges"
                  line)
            | _ ->
              parse_error "line %d: more than two posedge items" line
          in
          Some (clock_id, async_id, body, line)
        | _ -> None)
      items
  in
  let primary_clocks =
    List.sort_uniq compare
      (List.filter_map
         (fun (clk, _, _, _) -> if mem inputs_d clk then Some clk else None)
         always_info)
  in
  (match primary_clocks with
  | [] | [ _ ] -> ()
  | cs ->
    parse_error "multiple primary clocks are outside the subset: %s"
      (String.concat ", " cs));
  let clock_id =
    match primary_clocks with
    | [ clk ] ->
      Clocking.set_clock_name design clk;
      Some clk
    | _ -> None
  in
  (* registers: initial value must be known before the latch is created,
     so fold reset branches and [initial]s over the raw syntax first *)
  let init_tbl = Hashtbl.create 16 in
  List.iter
    (fun (_, async_id, body, _) ->
      let records = flatten_body body in
      let targets =
        List.sort_uniq compare (List.map (fun (q, _, _) -> q) records)
      in
      List.iter
        (fun q ->
          match recognize_reset async_id (records_of q records) with
          | Some (_, _, v) when not (Hashtbl.mem init_tbl q) ->
            Hashtbl.replace init_tbl q v
          | _ -> ())
        targets)
    always_info;
  List.iter
    (function
      | Dinitial (q, v) ->
        if not (mem regs_d q) then
          if lenient then ()
          else parse_error "initial value for non-reg %s" q
        else Hashtbl.replace init_tbl q v
      | _ -> ())
    items;
  (* net construction: inputs in declaration order (the clock is not a
     net), then registers in declaration order, then gates on demand in
     textual assign order *)
  let env = Hashtbl.create 64 in
  List.iter
    (function
      | Dinput l ->
        List.iter
          (fun name ->
            if Some name <> clock_id && not (Hashtbl.mem env name) then
              Hashtbl.replace env name (Circuit.add_input ~name c))
          l
      | _ -> ())
    items;
  List.iter
    (function
      | Dreg l ->
        List.iter
          (fun name ->
            if not (Hashtbl.mem env name) then
              let init =
                match Hashtbl.find_opt init_tbl name with
                | Some v -> v
                | None -> false
              in
              Hashtbl.replace env name (Circuit.add_latch ~name c ~init))
          l
      | _ -> ())
    items;
  let assign_tbl = Hashtbl.create 64 in
  let out_alias = Hashtbl.create 16 in
  List.iter
    (function
      | Dassign (target, e, line) ->
        if mem regs_d target then
          parse_error "line %d: continuous assignment to reg %s" line target
        else if mem inputs_d target then
          parse_error "line %d: continuous assignment to input %s" line target
        else if
          mem wires_d target
          || (not (mem outputs_d target))
          (* undeclared target: treat as an implicit wire *)
        then begin
          if (not (mem wires_d target)) && not lenient then
            parse_error "line %d: assignment to undeclared signal %s" line
              target;
          if Hashtbl.mem assign_tbl target then (
            if not lenient then
              parse_error "line %d: multiple drivers for %s" line target)
          else Hashtbl.replace assign_tbl target (e, line)
        end
        else if Hashtbl.mem out_alias target then (
          if not lenient then
            parse_error "line %d: multiple drivers for output %s" line target)
        else Hashtbl.replace out_alias target e
      | _ -> ())
    items;
  (* memoized on-demand elaboration; [busy] breaks combinational cycles
     through an undriven net in lenient mode, mirroring BLIF recovery *)
  let busy = Hashtbl.create 16 in
  let rec resolve name =
    match Hashtbl.find_opt env name with
    | Some net -> net
    | None ->
      if Hashtbl.mem busy name then
        if lenient then begin
          let net = Circuit.add_undriven ~name c in
          Hashtbl.replace env name net;
          net
        end
        else parse_error "combinational cycle through %s" name
      else begin
        Hashtbl.replace busy name ();
        let net =
          match Hashtbl.find_opt assign_tbl name with
          | Some (e, _) -> elab_named name e
          | None -> (
            match Hashtbl.find_opt out_alias name with
            | Some (Eid src) -> resolve src
            | Some e -> elab e
            | None ->
              if lenient then Circuit.add_undriven ~name c
              else parse_error "undefined signal %s" name)
        in
        Hashtbl.remove busy name;
        (* a cycle in lenient mode may have bound [name] already *)
        (match Hashtbl.find_opt env name with
        | Some net -> net
        | None ->
          Hashtbl.replace env name net;
          net)
      end
  and elab e =
    match e with
    | Eid name -> resolve name
    | Econst b -> Circuit.add_gate c (if b then Circuit.Const1 else Circuit.Const0) []
    | Enot (Ebin (Circuit.And, es)) -> Circuit.add_gate c Circuit.Nand (List.map elab es)
    | Enot (Ebin (Circuit.Or, es)) -> Circuit.add_gate c Circuit.Nor (List.map elab es)
    | Enot (Ebin (Circuit.Xor, es)) -> Circuit.add_gate c Circuit.Xnor (List.map elab es)
    | Enot e -> Circuit.add_gate c Circuit.Not [ elab e ]
    | Ebin (fn, es) -> Circuit.add_gate c fn (List.map elab es)
    | Emux (s, t, f) ->
      let s = elab s in
      Circuit.bmux c ~sel:s ~t1:(elab t) ~t0:(elab f)
  (* like [elab] but names the top gate after the wire it drives, so the
     writer's one-assign-one-gate shape survives a round trip *)
  and elab_named name e =
    match e with
    | Eid src -> Circuit.add_gate ~name c Circuit.Buf [ resolve src ]
    | Econst b ->
      Circuit.add_gate ~name c (if b then Circuit.Const1 else Circuit.Const0) []
    | Enot (Ebin (Circuit.And, es)) ->
      Circuit.add_gate ~name c Circuit.Nand (List.map elab es)
    | Enot (Ebin (Circuit.Or, es)) ->
      Circuit.add_gate ~name c Circuit.Nor (List.map elab es)
    | Enot (Ebin (Circuit.Xor, es)) ->
      Circuit.add_gate ~name c Circuit.Xnor (List.map elab es)
    | Enot e -> Circuit.add_gate ~name c Circuit.Not [ elab e ]
    | Ebin (fn, es) -> Circuit.add_gate ~name c fn (List.map elab es)
    | Emux _ ->
      let net = elab e in
      Circuit.set_name c net name;
      net
  in
  (* elaborate the assigns in textual order so gate nets get the same
     relative numbering the writer emitted them with *)
  List.iter
    (function
      | Dassign (target, _, _)
        when Hashtbl.mem assign_tbl target && not (Hashtbl.mem env target) ->
        ignore (resolve target)
      | _ -> ())
    items;
  (* always blocks: set register specs and close the feedback *)
  let assigned = Hashtbl.create 16 in
  List.iter
    (fun (clock_lbl, async_id, body, line) ->
      let clock_gate =
        if Some clock_lbl = clock_id then None
        else if mem inputs_d clock_lbl then None (* sole primary clock *)
        else Some (resolve clock_lbl)
      in
      let records = flatten_body body in
      let targets =
        List.sort_uniq compare (List.map (fun (q, _, _) -> q) records)
      in
      List.iter
        (fun q ->
          if not (mem regs_d q) then
            parse_error "line %d: non-blocking assignment to non-reg %s" line q;
          let qnet = resolve q in
          if Hashtbl.mem assigned q then (
            if not lenient then
              parse_error "line %d: register %s driven by several always \
                           blocks" line q)
          else begin
            Hashtbl.replace assigned q ();
            let mine = records_of q records in
            (* recognized register shapes; anything else is synthesized
               as a priority-mux chain holding the register otherwise *)
            let reset_raw = recognize_reset async_id mine in
            (match (async_id, reset_raw) with
            | Some _, None ->
              parse_error
                "line %d: async-reset block must start with if (<reset>) \
                 %s <= constant"
                line q
            | _ -> ());
            let reset =
              Option.map (fun (k, r, v) -> (k, resolve r, v)) reset_raw
            in
            (* strip the satisfied reset prefix from remaining paths *)
            let rest =
              match reset_raw with
              | None -> mine
              | Some _ ->
                List.map
                  (fun (q', conds, e) ->
                    match conds with
                    | (Eid _, false) :: tl -> (q', tl, e)
                    | _ ->
                      parse_error
                        "line %d: register %s mixes reset and non-reset \
                         paths" line q)
                  (List.tl mine)
            in
            let enable, data =
              match rest with
              | [] -> (None, qnet)  (* reset-only: hold otherwise *)
              | [ (_, [], e) ] -> (None, elab e)
              | [ (_, [ (Eid en, true) ], e) ] -> (Some (resolve en), elab e)
              | [ (_, [ (cond, true) ], e) ] -> (Some (elab cond), elab e)
              | _ ->
                (* general fallback: priority-mux chain, later textual
                   assignments winning, holding the register otherwise *)
                let chain =
                  List.fold_left
                    (fun acc (_, conds, e) ->
                      let cond =
                        List.fold_left
                          (fun acc (ce, pos) ->
                            let cnet = elab ce in
                            let cnet =
                              if pos then cnet else Circuit.bnot c cnet
                            in
                            match acc with
                            | None -> Some cnet
                            | Some a -> Some (Circuit.band c a cnet))
                          None conds
                      in
                      match cond with
                      | None -> elab e
                      | Some sel -> Circuit.bmux c ~sel ~t1:(elab e) ~t0:acc)
                    qnet rest
                in
                (None, chain)
            in
            Circuit.set_latch_data c qnet ~data;
            Clocking.set_spec design qnet { clock_gate; enable; reset }
          end)
        targets)
    always_info;
  (* registers never driven by an always block stay unclosed in lenient
     mode (the unclosed-latch lint rule reports them) *)
  if not lenient then
    Hashtbl.iter
      (fun name () ->
        if not (Hashtbl.mem assigned name) then
          parse_error "register %s is never assigned" name)
      regs_d;
  (* outputs, in declaration order *)
  List.iter
    (function
      | Doutput l ->
        List.iter (fun name -> Circuit.add_output c name (resolve name)) l
      | _ -> ())
    items;
  design

let parse_file ?lenient path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  try parse_string ?lenient text
  with Parse_error msg -> raise (Parse_error (Printf.sprintf "%s: %s" path msg))
