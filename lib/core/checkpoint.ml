(* Resumable checkpoints of the greatest fixed-point iteration.

   Van Eijk's refinement is monotone: every round only splits classes,
   and every split is justified against the correspondence condition of
   a partition coarser than (or equal to) the current one, so no split
   ever separates two signals equal in the greatest fixed point.  A
   partially refined partition therefore sits between the initial
   partition and the (unique) greatest fixed point, and re-running the
   iteration from it converges to exactly the same fixed point as an
   uninterrupted run — a checkpoint is a sound, lossless resume point.

   A checkpoint is a {!Relation} file (fingerprints, options, product
   shape, classes) plus what re-entry needs beyond it: the seed (class
   members are normalized literals, so the reference valuation must be
   reproducible), the iterations done, and the counterexample patterns
   still buffered in the {!Simpool}, so no witnessed split is lost.

   A checkpoint with induction depth [kc] may seed any run with
   effective depth [k <= kc]: the k-inductive fixed points grow with k
   (gfp(k) is contained in gfp(kc)), so every recorded split separates
   signals unequal in gfp(kc) and a fortiori in gfp(k) — the seeded run
   still converges to its own gfp exactly. *)

type t = {
  relation : Relation.t; (* fingerprints, options, shape, classes *)
  seed : int; (* polarity-normalization / simulation seed *)
  iterations : int; (* refinement iterations completed before the cut *)
  patterns : (bool array * bool array) list; (* pending pool lanes: (pis, latches) *)
}

exception Incompatible of string
(** Raised by resume validation: fingerprint/shape/option mismatch. *)

let n_patterns cp = List.length cp.patterns

(* --- resume ------------------------------------------------------------------- *)

(* Fingerprint and option compatibility, phrased over digests so callers
   that already hold fingerprints — the serve daemon's warm-start cache
   probing many stored checkpoints against one submission — need not
   re-canonicalize the circuits per probe.  [induction] is the resuming
   run's effective depth; a checkpoint of a deeper run is accepted (see
   the module comment), a shallower one is not — its splits need not hold
   at the deeper fixed point. *)
let compatible ~spec_digest ~impl_digest ~candidates ~induction ~seed cp =
  let r = cp.relation in
  let refuse fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  let expect subject expected got k =
    if got <> expected then
      refuse "%s fingerprint mismatch: checkpoint has %s, circuit is %s" subject expected
        got
    else k ()
  in
  expect "specification" r.spec_digest spec_digest @@ fun () ->
  expect "implementation" r.impl_digest impl_digest @@ fun () ->
  if r.candidates <> candidates then
    refuse "candidate-set mismatch: checkpoint has %s, run uses %s" r.candidates
      candidates
  else if r.induction < induction then
    refuse
      "induction mismatch: a depth-%d checkpoint cannot seed a depth-%d run (its splits \
       are only sound at depth <= %d)"
      r.induction induction r.induction
  else if cp.seed <> seed then
    refuse "seed mismatch: checkpoint normalized with seed %d, run uses %d" cp.seed seed
  else
    match Relation.flaw r with
    | Some f -> Error (Relation.explain_flaw f)
    | None -> Ok ()

(* Raising variant, before any engine work is spent on a resume. *)
let validate ~spec ~impl ~candidates ~induction ~seed cp =
  match
    compatible ~spec_digest:(Relation.fingerprint spec)
      ~impl_digest:(Relation.fingerprint impl)
      ~candidates ~induction ~seed cp
  with
  | Ok () -> ()
  | Error msg -> raise (Incompatible msg)

let refuse fmt = Printf.ksprintf (fun msg -> raise (Incompatible msg)) fmt

(* Refine [partition] to the checkpointed classes.  Nodes sharing a
   checkpoint class stay together; every node the checkpoint left in a
   singleton class is isolated.  The checkpointed partition is a
   refinement of the partition at this point of the pipeline (both were
   produced by the same deterministic seeding), so this only ever
   splits — [refine_by_key] never merges — and the polarity check below
   catches any divergence. *)
let seed_partition cp partition =
  let cls_of = Hashtbl.create 256 in
  List.iteri
    (fun i cls ->
      List.iter
        (fun lit ->
          let id = Aig.node_of_lit lit in
          if Partition.is_candidate partition id && Partition.norm_lit partition id <> lit
          then refuse "literal %d: polarity differs from the resumed run" lit;
          if not (Partition.is_candidate partition id) then
            refuse "literal %d is not a candidate of the resumed run" lit;
          Hashtbl.replace cls_of id i)
        cls)
    cp.relation.classes;
  Partition.refine_by_key partition (fun id ->
      match Hashtbl.find_opt cls_of id with
      | Some i -> i
      | None -> -id - 1 (* checkpoint singleton: isolate the node *))

(* --- serialization ------------------------------------------------------------ *)

(* The relation file with the seed after [induction], the iterations
   after [product-nodes], and the pending pool lanes as its tail:

     patterns 1
     pattern 0110 10010

   A pattern line carries the input bits then the state bits of one
   pending pool lane; "-" stands for an empty vector. *)
let kind =
  {
    Relation.name = "checkpoint";
    magic = "seqver-checkpoint";
    own = [ ("seed", "induction", true); ("iterations", "product-nodes", true) ];
    last = "patterns";
  }

let bits_to_string bits =
  if Array.length bits = 0 then "-"
  else String.init (Array.length bits) (fun i -> if bits.(i) then '1' else '0')

let to_string cp =
  Relation.to_string kind
    ~own:[ ("seed", cp.seed); ("iterations", cp.iterations) ]
    cp.relation
    (fun buf ->
      Printf.bprintf buf "patterns %d\n" (List.length cp.patterns);
      List.iter
        (fun (pi, latch) ->
          Printf.bprintf buf "pattern %s %s\n" (bits_to_string pi) (bits_to_string latch))
        cp.patterns)

let bits_of_string s =
  if s = "-" then [||]
  else
    Array.init (String.length s) (fun i ->
        match s.[i] with
        | '0' -> false
        | '1' -> true
        | c -> Relation.fail "pattern: expected 0/1, got %C" c)

let pattern_line line rest =
  if not (String.starts_with ~prefix:"pattern " line) then
    Relation.fail "expected a pattern line, got %S" line;
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | [ _; pi; latch ] -> ((bits_of_string pi, bits_of_string latch), rest)
  | _ ->
    Relation.fail "pattern line: expected two bit vectors, got %S"
      (String.sub line 8 (String.length line - 8))

let parse_string text =
  let relation, own, patterns =
    Relation.parse kind text
      ~tail:
        (Relation.section kind ~key:"patterns" ~noun:"pattern" ~items:"pattern(s)"
           pattern_line)
  in
  let own key = List.assoc key own in
  { relation; seed = own "seed"; iterations = own "iterations"; patterns }

let to_file path cp =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_string cp))

let parse_file path = parse_string (In_channel.with_open_bin path In_channel.input_all)
