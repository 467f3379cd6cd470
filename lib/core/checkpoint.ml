(* Resumable checkpoints of the greatest fixed-point iteration.

   Van Eijk's refinement is monotone: every round only splits classes,
   and every split is justified against the correspondence condition of
   a partition coarser than (or equal to) the current one, so no split
   ever separates two signals equal in the greatest fixed point.  A
   partially refined partition therefore sits between the initial
   partition and the (unique) greatest fixed point, and re-running the
   iteration from it converges to exactly the same fixed point as an
   uninterrupted run — a checkpoint is a sound, lossless resume point.

   A checkpoint records what that argument needs to hold on re-entry:

   - MD5 fingerprints of both circuits (the partition is meaningless on
     any other pair — a resume against a mutated AIG must be refused);
   - the options that shape the iteration's semantics: candidate set,
     induction depth k, and the polarity-normalization seed (class
     members are stored as normalized literals, so the reference
     valuation must be reproducible);
   - the deterministic product-machine state: retiming augmentation
     rounds to replay and the resulting node count (shape check);
   - the partition itself, as one line of sorted normalized literals
     per multi-member class (singleton classes are implied);
   - the counterexample patterns still buffered in the {!Simpool} when
     the run was interrupted, so no witnessed split is lost.

   A checkpoint with induction depth [kc] may seed any run with
   effective depth [k <= kc]: the k-inductive fixed points grow with k
   (gfp(k) is contained in gfp(kc)), so every recorded split separates
   signals unequal in gfp(kc) and a fortiori in gfp(k) — the seeded run
   still converges to its own gfp exactly.

   The text format follows {!Cert.Certificate}: line-oriented,
   versioned header, [end] marker. *)

type t = {
  spec_digest : string; (* MD5 of the canonical AIGER text *)
  impl_digest : string;
  engine : string; (* informational: which engine was interrupted *)
  candidates : string; (* "all" | "registers" *)
  induction : int; (* k of the interrupted run; 1 = the paper *)
  seed : int; (* polarity-normalization / simulation seed *)
  retime_rounds : int; (* augmentation rounds to replay on the product *)
  product_nodes : int; (* product size after replay (shape check) *)
  iterations : int; (* refinement iterations completed before the cut *)
  classes : int list list; (* normalized literals, each class sorted *)
  patterns : (bool array * bool array) list; (* pending pool lanes: (pis, latches) *)
}

exception Parse_error of string

exception Incompatible of string
(** Raised by resume validation: fingerprint/shape/option mismatch. *)

let fingerprint aig = Digest.to_hex (Digest.string (Aig.Aiger.to_string aig))

let n_classes cp = List.length cp.classes

let n_constraints cp =
  List.fold_left (fun acc cls -> acc + max 0 (List.length cls - 1)) 0 cp.classes

let n_patterns cp = List.length cp.patterns

(* --- construction ------------------------------------------------------------- *)

(* Snapshot a partition (and the engine's pending pool lanes) mid-run.
   [product_aig] is the product machine *after* [retime_rounds]
   augmentations — the machine the normalized literals live on. *)
let of_partition ~spec_digest ~impl_digest ~engine ~candidates ~induction ~seed
    ~retime_rounds ~iterations ~patterns product_aig partition =
  {
    spec_digest;
    impl_digest;
    engine;
    candidates;
    induction;
    seed;
    retime_rounds;
    product_nodes = Aig.num_nodes product_aig;
    iterations;
    classes =
      List.map
        (fun cls ->
          List.sort compare
            (List.map (Partition.norm_lit partition) (Partition.members partition cls)))
        (Partition.multi_member_classes partition);
    patterns;
  }

(* --- resume ------------------------------------------------------------------- *)

(* Fingerprint and option compatibility, phrased over digests so callers
   that already hold fingerprints — the serve daemon's warm-start cache
   probing many stored checkpoints against one submission — need not
   re-canonicalize the circuits per probe.  [induction] is the resuming
   run's effective depth; a checkpoint of a deeper run is accepted (see
   the module comment), a shallower one is not — its splits need not hold
   at the deeper fixed point. *)
let compatible ~spec_digest ~impl_digest ~candidates ~induction ~seed cp =
  let refuse fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  let expect subject expected got k =
    if got <> expected then
      refuse "%s fingerprint mismatch: checkpoint has %s, circuit is %s" subject expected
        got
    else k ()
  in
  expect "specification" cp.spec_digest spec_digest @@ fun () ->
  expect "implementation" cp.impl_digest impl_digest @@ fun () ->
  if cp.candidates <> candidates then
    refuse "candidate-set mismatch: checkpoint has %s, run uses %s" cp.candidates
      candidates
  else if cp.induction < induction then
    refuse
      "induction mismatch: a depth-%d checkpoint cannot seed a depth-%d run (its splits \
       are only sound at depth <= %d)"
      cp.induction induction cp.induction
  else if cp.seed <> seed then
    refuse "seed mismatch: checkpoint normalized with seed %d, run uses %d" cp.seed seed
  else if cp.retime_rounds < 0 || cp.retime_rounds > 64 then
    refuse "implausible retime rounds %d" cp.retime_rounds
  else Ok ()

(* Raising variant, before any engine work is spent on a resume. *)
let validate ~spec ~impl ~candidates ~induction ~seed cp =
  match
    compatible ~spec_digest:(fingerprint spec) ~impl_digest:(fingerprint impl)
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
    cp.classes;
  Partition.refine_by_key partition (fun id ->
      match Hashtbl.find_opt cls_of id with
      | Some i -> i
      | None -> -id - 1 (* checkpoint singleton: isolate the node *))

(* --- serialization ------------------------------------------------------------ *)

(* Text format (in the style of the certificate format):

     seqver-checkpoint 1
     spec-md5 <32 hex chars>
     impl-md5 <32 hex chars>
     engine sat
     candidates all
     induction 1
     seed 17
     retime-rounds 0
     product-nodes 420
     iterations 3
     classes 2
     class 4 6 12
     class 9 13
     patterns 1
     pattern 0110 10010
     end

   A pattern line carries the input bits then the state bits of one
   pending pool lane; "-" stands for an empty vector.                     *)

let bits_to_string bits =
  if Array.length bits = 0 then "-"
  else String.init (Array.length bits) (fun i -> if bits.(i) then '1' else '0')

let to_string cp =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "seqver-checkpoint 1\n";
  Buffer.add_string buf (Printf.sprintf "spec-md5 %s\n" cp.spec_digest);
  Buffer.add_string buf (Printf.sprintf "impl-md5 %s\n" cp.impl_digest);
  Buffer.add_string buf (Printf.sprintf "engine %s\n" cp.engine);
  Buffer.add_string buf (Printf.sprintf "candidates %s\n" cp.candidates);
  Buffer.add_string buf (Printf.sprintf "induction %d\n" cp.induction);
  Buffer.add_string buf (Printf.sprintf "seed %d\n" cp.seed);
  Buffer.add_string buf (Printf.sprintf "retime-rounds %d\n" cp.retime_rounds);
  Buffer.add_string buf (Printf.sprintf "product-nodes %d\n" cp.product_nodes);
  Buffer.add_string buf (Printf.sprintf "iterations %d\n" cp.iterations);
  Buffer.add_string buf (Printf.sprintf "classes %d\n" (List.length cp.classes));
  List.iter
    (fun cls ->
      Buffer.add_string buf "class";
      List.iter (fun l -> Buffer.add_string buf (Printf.sprintf " %d" l)) cls;
      Buffer.add_char buf '\n')
    cp.classes;
  Buffer.add_string buf (Printf.sprintf "patterns %d\n" (List.length cp.patterns));
  List.iter
    (fun (pi, latch) ->
      Buffer.add_string buf
        (Printf.sprintf "pattern %s %s\n" (bits_to_string pi) (bits_to_string latch)))
    cp.patterns;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

let bits_of_string s =
  if s = "-" then [||]
  else
    Array.init (String.length s) (fun i ->
        match s.[i] with
        | '0' -> false
        | '1' -> true
        | c -> fail "pattern: expected 0/1, got %C" c)

let parse_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let field key = function
    | [] -> fail "unexpected end of checkpoint (expected %s)" key
    | line :: rest -> (
      match String.index_opt line ' ' with
      | Some sp when String.sub line 0 sp = key ->
        (String.sub line (sp + 1) (String.length line - sp - 1), rest)
      | _ -> fail "expected field %s, got %S" key line)
  in
  let int_field key lines =
    let v, lines = field key lines in
    match int_of_string_opt (String.trim v) with
    | Some n -> (n, lines)
    | None -> fail "field %s: expected an integer, got %S" key v
  in
  let version, lines = int_field "seqver-checkpoint" lines in
  if version <> 1 then fail "unsupported checkpoint version %d" version;
  let spec_digest, lines = field "spec-md5" lines in
  let impl_digest, lines = field "impl-md5" lines in
  let engine, lines = field "engine" lines in
  let candidates, lines = field "candidates" lines in
  let induction, lines = int_field "induction" lines in
  let seed, lines = int_field "seed" lines in
  let retime_rounds, lines = int_field "retime-rounds" lines in
  let product_nodes, lines = int_field "product-nodes" lines in
  let iterations, lines = int_field "iterations" lines in
  let n, lines = int_field "classes" lines in
  if n < 0 then fail "negative class count %d" n;
  let parse_class line =
    String.split_on_char ' ' line
    |> List.filter (fun s -> s <> "")
    |> List.map (fun s ->
           match int_of_string_opt s with
           | Some l -> l
           | None -> fail "class member: expected a literal, got %S" s)
  in
  let rec read_classes i acc lines =
    if i = n then (List.rev acc, lines)
    else
      match lines with
      | [] -> fail "unexpected end of checkpoint (expected %d more class(es))" (n - i)
      | line :: rest ->
        if String.length line > 6 && String.sub line 0 6 = "class " then
          read_classes (i + 1)
            (parse_class (String.sub line 6 (String.length line - 6)) :: acc)
            rest
        else fail "expected a class line, got %S" line
  in
  let classes, lines = read_classes 0 [] lines in
  let np, lines = int_field "patterns" lines in
  if np < 0 then fail "negative pattern count %d" np;
  let parse_pattern line =
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | [ pi; latch ] -> (bits_of_string pi, bits_of_string latch)
    | _ -> fail "pattern line: expected two bit vectors, got %S" line
  in
  let rec read_patterns i acc lines =
    if i = np then (List.rev acc, lines)
    else
      match lines with
      | [] -> fail "unexpected end of checkpoint (expected %d more pattern(s))" (np - i)
      | line :: rest ->
        if String.length line > 8 && String.sub line 0 8 = "pattern " then
          read_patterns (i + 1)
            (parse_pattern (String.sub line 8 (String.length line - 8)) :: acc)
            rest
        else fail "expected a pattern line, got %S" line
  in
  let patterns, lines = read_patterns 0 [] lines in
  (match lines with
  | [ "end" ] -> ()
  | [] -> fail "missing end marker"
  | line :: _ -> fail "trailing content after patterns: %S" line);
  {
    spec_digest;
    impl_digest;
    engine;
    candidates;
    induction;
    seed;
    retime_rounds;
    product_nodes;
    iterations;
    classes;
    patterns;
  }

let to_file path cp =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string cp))

let parse_file path = parse_string (In_channel.with_open_bin path In_channel.input_all)
