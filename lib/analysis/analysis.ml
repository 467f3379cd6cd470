(* Public API of the static-analysis library; see analysis.mli. *)

module Metrics = Metrics
module Reduce = Reduce
module Diag = Diag
module Steer = Steer

type report = {
  name : string;
  metrics : Metrics.summary;
  reduce : Reduce.stats option;
  diag : Diag.t;
}

let report ?(reduce = true) ~name aig =
  let metrics = Metrics.summary aig in
  let diag = Diag.run aig in
  let reduce =
    if not reduce then None
    else
      let _, stats = Reduce.run aig in
      Some stats
  in
  { name; metrics; reduce; diag }

(* --- human rendering ---------------------------------------------------------- *)

let render r =
  let buf = Buffer.create 512 in
  let m = r.metrics in
  Buffer.add_string buf
    (Printf.sprintf "%s: %d pis, %d latches, %d ands, %d pos\n" r.name m.Metrics.pis
       m.Metrics.latches m.Metrics.ands m.Metrics.pos);
  Buffer.add_string buf
    (Printf.sprintf
       "  shape: %d levels, max cone %d, max fanout %d, max latch distance %d, %d \
        autonomous node(s), %d distinct signatures\n"
       m.Metrics.levels m.Metrics.max_cone m.Metrics.max_fanout m.Metrics.max_latch_dist
       m.Metrics.autonomous m.Metrics.distinct_signatures);
  (match r.reduce with
  | None -> ()
  | Some s ->
    Buffer.add_string buf
      (Printf.sprintf
         "  reduction: %d -> %d ands (%d rewrites, %d fraig merges; %d sat calls, %d \
          refuted, %d rounds)\n"
         s.Reduce.ands_before s.Reduce.ands_after s.Reduce.rewrites s.Reduce.fraig_merges
         s.Reduce.sat_calls s.Reduce.refuted s.Reduce.rounds));
  let d = r.diag in
  if Diag.clean d then Buffer.add_string buf "  diagnostics: clean\n"
  else begin
    (match d.Diag.structure_error with
    | Some msg -> Buffer.add_string buf (Printf.sprintf "  structure error: %s\n" msg)
    | None -> ());
    if not d.Diag.acyclic then
      Buffer.add_string buf "  combinational-cycle/topological invariant VIOLATED\n";
    if d.Diag.undriven_latches <> [] then
      Buffer.add_string buf
        (Printf.sprintf "  undriven latches: %s\n"
           (String.concat ", " (List.map string_of_int d.Diag.undriven_latches)));
    if d.Diag.dead_nodes <> [] then
      Buffer.add_string buf
        (Printf.sprintf "  dead nodes (no PO depends on them): %d\n"
           (List.length d.Diag.dead_nodes));
    if d.Diag.unobservable_latches <> [] then
      Buffer.add_string buf
        (Printf.sprintf "  unobservable latches: %s\n"
           (String.concat ", " (List.map string_of_int d.Diag.unobservable_latches)));
    List.iter
      (fun (po, v) ->
        Buffer.add_string buf
          (Printf.sprintf "  constant output: %s stuck at %d\n" po (if v then 0 else 1)))
      d.Diag.constant_pos
  end;
  Buffer.contents buf

(* --- JSON rendering ------------------------------------------------------------ *)

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
      | ch when Char.code ch < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.contents buf

let json_int_list l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

(* Schema: {"name": string, "metrics": {...}, "reduction": {...}|null,
   "diagnostics": {...}} *)
let to_json r =
  let m = r.metrics in
  let metrics =
    Printf.sprintf
      {|{"pis":%d,"latches":%d,"ands":%d,"pos":%d,"levels":%d,"max_cone":%d,"max_fanout":%d,"max_latch_dist":%d,"autonomous":%d,"distinct_signatures":%d}|}
      m.Metrics.pis m.Metrics.latches m.Metrics.ands m.Metrics.pos m.Metrics.levels
      m.Metrics.max_cone m.Metrics.max_fanout m.Metrics.max_latch_dist m.Metrics.autonomous
      m.Metrics.distinct_signatures
  in
  let reduction =
    match r.reduce with
    | None -> "null"
    | Some s ->
      Printf.sprintf
        {|{"ands_before":%d,"ands_after":%d,"rewrites":%d,"fraig_merges":%d,"sat_calls":%d,"refuted":%d,"rounds":%d,"obligations":%d}|}
        s.Reduce.ands_before s.Reduce.ands_after s.Reduce.rewrites s.Reduce.fraig_merges
        s.Reduce.sat_calls s.Reduce.refuted s.Reduce.rounds
        (List.length s.Reduce.obligations)
  in
  let d = r.diag in
  let diagnostics =
    Printf.sprintf
      {|{"clean":%b,"acyclic":%b,"structure_error":%s,"undriven_latches":%s,"dead_nodes":%d,"unobservable_latches":%s,"constant_pos":%d}|}
      (Diag.clean d) d.Diag.acyclic
      (match d.Diag.structure_error with
      | Some e -> Printf.sprintf {|"%s"|} (json_escape e)
      | None -> "null")
      (json_int_list d.Diag.undriven_latches)
      (List.length d.Diag.dead_nodes)
      (json_int_list d.Diag.unobservable_latches)
      (List.length d.Diag.constant_pos)
  in
  Printf.sprintf {|{"name":"%s","metrics":%s,"reduction":%s,"diagnostics":%s}|}
    (json_escape r.name) metrics reduction diagnostics
