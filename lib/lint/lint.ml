(* Circuit lint: diagnostics, renderers and preflight gating.

   The rules live next to the representations they inspect —
   [Netlist.Check] for gate-level circuits, [Aig_check] here for AIGs —
   and share the [Netlist.Diag] data model.  This facade adds the
   user-facing surface: human and JSON reports, the exit-code policy of
   `seqver lint`, the preflight hook the verification pipeline uses to
   reject structurally broken circuits before spending SAT effort on
   them, and [Intake], the one front door that turns a circuit file or
   inline AIGER text into a preflighted [Aig.t]. *)

module Diag = Netlist.Diag
module Aig_check = Aig_check
module Aig_ternary = Aig_ternary
module Analysis_rules = Analysis_rules
module Intake = Intake

(* --- running the rules ----------------------------------------------------- *)

let check_netlist ?ternary_steps c = Netlist.Check.run ?ternary_steps c

(* [analysis] adds the [Analysis_rules] catalog (unobservable-latch,
   reducible-logic).  Opt-in: reducible-logic runs the SAT-discharged
   reduction, and both rules assume a structurally sound graph, so they
   only run when the error-level rules all passed. *)
let check_aig ?ternary_steps ?(analysis = false) aig =
  let diags = Aig_check.run ?ternary_steps aig in
  if analysis && Diag.errors diags = [] then
    Aig_check.sort_report (Analysis_rules.run aig @ diags)
  else diags

(* --- human report ----------------------------------------------------------- *)

include Report

(* --- JSON report ------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | ch when Char.code ch < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.contents buf

let json_of_diag d =
  let nets =
    String.concat ","
      (List.map
         (fun (net, name) ->
           match name with
           | Some n -> Printf.sprintf {|{"net":%d,"name":"%s"}|} net (json_escape n)
           | None -> Printf.sprintf {|{"net":%d,"name":null}|} net)
         d.Diag.nets)
  in
  Printf.sprintf {|{"rule":"%s","severity":"%s","message":"%s","nets":[%s]}|}
    (json_escape d.Diag.rule)
    (Diag.severity_name d.Diag.severity)
    (json_escape d.Diag.message)
    nets

(* Schema: {"subject": string, "diagnostics": [{"rule": string,
   "severity": "error"|"warning"|"info", "message": string,
   "nets": [{"net": int, "name": string|null}]}]} *)
let to_json ~subject diags =
  Printf.sprintf {|{"subject":"%s","diagnostics":[%s]}|} (json_escape subject)
    (String.concat "," (List.map json_of_diag diags))

(* --- exit-code policy ------------------------------------------------------- *)

(* `seqver lint`: 0 clean (or only advisory findings without [--strict]),
   1 worst finding is a warning under [--strict], 2 errors under
   [--strict].  Parse failures are always exit 2 (handled by the CLI). *)
let exit_code ~strict diags =
  if not strict then 0
  else
    match Diag.worst diags with
    | Some Diag.Error -> 2
    | Some Diag.Warning -> 1
    | Some Diag.Info | None -> 0

(* --- preflight --------------------------------------------------------------- *)

exception Rejected of string
(** Raised by the preflight checks with a rendered multi-diagnostic
    report; the verification pipeline refuses to run on circuits with
    error-level defects. *)

let preflight_aig ~subject aig =
  match Aig_check.errors aig with
  | [] -> ()
  | errs -> raise (Rejected (render ~subject errs))
