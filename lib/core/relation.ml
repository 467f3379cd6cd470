(* The signal-correspondence relation as a file: the one artifact behind
   checkpoints and certificates (paper Theorem 1: a partition between the
   initial one and the greatest fixed point is a lossless resume point,
   and the fixed point itself is the proof).  One line format serves both
   kinds; each adds a few integer fields of its own among the shared ones
   and a tail after the classes (grammar in DESIGN.md §4e).  This module
   prints, parses and validates the file and replays the product it
   names; it solves nothing, so the certificate checker stays independent
   of every engine. *)

type t = {
  spec_digest : string; (* MD5 of the canonical AIGER text *)
  impl_digest : string;
  engine : string; (* informational: which engine computed the relation *)
  candidates : string; (* "all" | "registers" *)
  induction : int; (* k: 1 = the paper's Equation (3) *)
  retime_rounds : int; (* augmentation rounds to replay on the product *)
  product_nodes : int; (* product size after the replay (shape check) *)
  classes : int list list; (* normalized literals, each class sorted *)
}

exception Parse_error of string

let fingerprint aig = Digest.to_hex (Digest.string (Aig.Aiger.to_string aig))

let n_classes r = List.length r.classes

let n_constraints r =
  List.fold_left (fun acc cls -> acc + max 0 (List.length cls - 1)) 0 r.classes

(* The multi-member classes of a partition, as normalized literals. *)
let classes_of partition =
  List.map
    (fun cls ->
      List.sort compare
        (List.map (Partition.norm_lit partition) (Partition.members partition cls)))
    (Partition.multi_member_classes partition)

(* --- what a relation may claim ------------------------------------------------ *)

type flaw = Retime_rounds of int | Literal of int

let max_retime_rounds = 64

(* Checked on every file read and again on records built in memory
   before anything is indexed by them: a literal past the recorded
   product size would otherwise escape as an array bound error. *)
let flaw r =
  if r.retime_rounds < 0 || r.retime_rounds > max_retime_rounds then
    Some (Retime_rounds r.retime_rounds)
  else
    List.find_map
      (List.find_map (fun l ->
           if l < 0 || Aig.node_of_lit l >= r.product_nodes then Some (Literal l) else None))
      r.classes

let explain_flaw = function
  | Retime_rounds n -> Printf.sprintf "implausible retime rounds %d" n
  | Literal l -> Printf.sprintf "literal %d outside the product machine" l

(* Replay the recorded retiming augmentations on a freshly built product
   (construction and augmentation are both deterministic) and compare its
   size with the recorded one; [Error n] carries the rebuilt size. *)
let replay r product =
  for _ = 1 to r.retime_rounds do
    ignore (Retime_aug.augment product)
  done;
  let n = Aig.num_nodes product.Product.aig in
  if n = r.product_nodes then Ok () else Error n

(* --- the file --------------------------------------------------------------------- *)

type kind = {
  name : string; (* names the file in parse errors *)
  magic : string; (* the header keyword *)
  own : (string * string * bool) list;
      (* the kind's integer fields: key, the shared field it follows, required *)
  last : string; (* the section a trailing-content error names *)
}

let to_string kind ~own r tail =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  let field key value =
    line "%s %s" key value;
    List.iter
      (fun (k, after, _) ->
        if after = key then Option.iter (fun v -> line "%s %d" k v) (List.assoc_opt k own))
      kind.own
  in
  line "%s 1" kind.magic;
  field "spec-md5" r.spec_digest;
  field "impl-md5" r.impl_digest;
  field "engine" r.engine;
  field "candidates" r.candidates;
  field "induction" (string_of_int r.induction);
  field "retime-rounds" (string_of_int r.retime_rounds);
  field "product-nodes" (string_of_int r.product_nodes);
  line "classes %d" (List.length r.classes);
  List.iter
    (fun cls ->
      Buffer.add_string buf "class";
      List.iter
        (fun l ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int l))
        cls;
      Buffer.add_char buf '\n')
    r.classes;
  tail buf;
  line "end";
  Buffer.contents buf

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

let starts key line = String.starts_with ~prefix:(key ^ " ") line

let field kind key = function
  | [] -> fail "unexpected end of %s (expected %s)" kind.name key
  | line :: rest ->
    let n = String.length key + 1 in
    if starts key line then (String.sub line n (String.length line - n), rest)
    else fail "expected field %s, got %S" key line

let int_field kind key lines =
  let v, lines = field kind key lines in
  match int_of_string_opt (String.trim v) with
  | Some n -> (n, lines)
  | None -> fail "field %s: expected an integer, got %S" key v

(* A [key N] count line, then [N] items, each parsed by [item] from its
   first line and the lines after it.  Nothing is allocated for a count
   the text cannot hold: a short file fails on its last line. *)
let section kind ~key ~noun ~items item lines =
  let n, lines = int_field kind key lines in
  if n < 0 then fail "negative %s count %d" noun n;
  let rec go i acc lines =
    if i = n then (List.rev acc, lines)
    else
      match lines with
      | [] -> fail "unexpected end of %s (expected %d more %s)" kind.name (n - i) items
      | line :: rest ->
        let x, lines = item line rest in
        go (i + 1) (x :: acc) lines
  in
  go 0 [] lines

let class_line line rest =
  if line <> "class" && not (starts "class" line) then
    fail "expected a class line, got %S" line;
  ( String.split_on_char ' ' (String.sub line 5 (String.length line - 5))
    |> List.filter (fun s -> s <> "")
    |> List.map (fun s ->
           match int_of_string_opt s with
           | Some l -> l
           | None -> fail "class member: expected a literal, got %S" s),
    rest )

let lines_of text =
  String.split_on_char '\n' text |> List.map String.trim |> List.filter (fun l -> l <> "")

let has_header kind text = starts kind.magic (String.trim text)

(* The one reader: header, shared fields with the kind's own ones among
   them, classes, then [tail] on the lines that follow, up to the end
   marker.  Returns the relation, the kind's own fields as (key, value)
   and the tail's result.  A relation with a {!flaw} is a parse error. *)
let parse kind ~tail text =
  let lines = lines_of text in
  let version, lines = int_field kind kind.magic lines in
  if version <> 1 then fail "unsupported %s version %d" kind.name version;
  let own = ref [] in
  let next key read lines =
    let v, lines = read kind key lines in
    let lines =
      List.fold_left
        (fun lines (k, after, required) ->
          let present = match lines with l :: _ -> starts k l | [] -> false in
          if after = key && (required || present) then begin
            let n, lines = int_field kind k lines in
            own := (k, n) :: !own;
            lines
          end
          else lines)
        lines kind.own
    in
    (v, lines)
  in
  let spec_digest, lines = next "spec-md5" field lines in
  let impl_digest, lines = next "impl-md5" field lines in
  let engine, lines = next "engine" field lines in
  let candidates, lines = next "candidates" field lines in
  let induction, lines = next "induction" int_field lines in
  let retime_rounds, lines = next "retime-rounds" int_field lines in
  let product_nodes, lines = next "product-nodes" int_field lines in
  let classes, lines =
    section kind ~key:"classes" ~noun:"class" ~items:"class(es)" class_line lines
  in
  let r =
    { spec_digest; impl_digest; engine; candidates; induction; retime_rounds; product_nodes;
      classes }
  in
  Option.iter (fun f -> fail "%s" (explain_flaw f)) (flaw r);
  let rest, lines = tail lines in
  (match lines with
  | [ "end" ] -> ()
  | [] -> fail "missing end marker"
  | line :: _ -> fail "trailing content after %s: %S" kind.last line);
  (r, List.rev !own, rest)
