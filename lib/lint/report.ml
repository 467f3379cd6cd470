(* The human-readable diagnostics report shared by `seqver lint`, the
   preflight rejections and {!Intake}. *)

let summary_line ~subject diags =
  if diags = [] then Printf.sprintf "%s: clean" subject
  else
    Printf.sprintf "%s: %d error(s), %d warning(s), %d info" subject
      (Netlist.Diag.count Netlist.Diag.Error diags)
      (Netlist.Diag.count Netlist.Diag.Warning diags)
      (Netlist.Diag.count Netlist.Diag.Info diags)

let render ~subject diags =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (summary_line ~subject diags);
  Buffer.add_char buf '\n';
  List.iter
    (fun d ->
      Buffer.add_string buf "  ";
      Buffer.add_string buf (Netlist.Diag.to_string d);
      Buffer.add_char buf '\n')
    diags;
  Buffer.contents buf

