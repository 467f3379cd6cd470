(* The one front door for circuits: the CLI, the daemon and lint turn a
   file or inline AIGER text into a circuit here.  [parse] picks the
   reader by suffix, or by the "aig " magic for inline text, and reads
   netlists leniently so the preflight sees every defect at once; [load]
   goes on to preflight, lower clocked Verilog to plain latches and
   convert to an AIG.  Every failure is a typed [error]. *)

type source = Path of string | Text of string  (** inline AIGER, ASCII or binary *)

type circuit =
  | Netlist of Netlist.t
  | Design of Netlist.Clocking.t  (** structural Verilog, register specs kept *)
  | Aig of Aig.t

type error =
  | Parse of string * string  (** subject, message *)
  | Rejected of string * Netlist.Diag.t list  (** subject, error-level findings *)
  | Lowering of string * string  (** subject, message *)
  | Io of string

let explain = function
  | Parse (subject, msg) -> Printf.sprintf "%s: parse error: %s" subject msg
  | Lowering (subject, msg) -> Printf.sprintf "%s: clocking error: %s" subject msg
  | Rejected (subject, diags) ->
    (* the rendered report, without its final newline *)
    let report = Report.render ~subject diags in
    String.sub report 0 (String.length report - 1)
  | Io msg -> msg

let subject_of ?subject source =
  Option.value subject ~default:(match source with Path p -> p | Text _ -> "inline circuit")

let read path = In_channel.with_open_bin path In_channel.input_all

let parse ?subject source =
  let circuit () =
    match source with
    | Text text when String.starts_with ~prefix:"aig " text ->
      Aig (Aig.Aiger.parse_binary_string text)
    | Text text -> Aig (Aig.Aiger.parse_string text)
    | Path path -> (
      match Filename.extension path with
      | ".aag" -> Aig (Aig.Aiger.parse_string (read path))
      | ".aig" -> Aig (Aig.Aiger.parse_binary_string (read path))
      | ".v" -> Design (Netlist.Verilog.parse_file ~lenient:true path)
      | ".bench" -> Netlist (Netlist.Bench.parse_file ~lenient:true path)
      | _ -> Netlist (Netlist.Blif.parse_file ~lenient:true path))
  in
  match circuit () with
  | c -> Ok c
  | exception
      ( Netlist.Blif.Parse_error msg
      | Netlist.Bench.Parse_error msg
      | Netlist.Verilog.Parse_error msg
      | Aig.Aiger.Parse_error msg ) ->
    Error (Parse (subject_of ?subject source, msg))
  | exception Sys_error msg ->
    (* an open error names the file, a read error (a directory) does not *)
    let subject = subject_of ?subject source in
    Error (Io (if String.starts_with ~prefix:subject msg then msg else subject ^ ": " ^ msg))

let load ?subject source =
  let subject = subject_of ?subject source in
  let preflight errs x = if errs = [] then Ok x else Error (Rejected (subject, errs)) in
  let of_netlist c =
    Result.map (fun c -> fst (Aig.of_netlist c)) (preflight (Netlist.Check.errors c) c)
  in
  match parse ~subject source with
  | Error _ as e -> e
  | Ok (Aig aig) -> preflight (Aig_check.errors aig) aig
  | Ok (Netlist c) -> of_netlist c
  | Ok (Design d) -> (
    (* the raw circuit carries the lenient-parse defects; the lowered one
       is what the prover sees *)
    match preflight (Netlist.Check.errors (Netlist.Clocking.circuit d)) d with
    | Error _ as e -> e
    | Ok d -> (
      match Netlist.Clocking.lower d with
      | lowered -> of_netlist lowered
      | exception Netlist.Clocking.Lower_error msg -> Error (Lowering (subject, msg))))
