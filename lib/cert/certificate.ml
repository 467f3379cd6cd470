(* Equivalence certificates: the exportable, independently checkable form
   of an "Equivalent" verdict.

   Van Eijk's maximum signal correspondence relation is an inductive
   invariant of the product machine: it holds in the initial state and is
   preserved by one step of the transition function (k steps for the
   k-inductive SAT engine).  A certificate records exactly that relation —
   the equivalence classes of polarity-normalized product-machine
   literals — plus fingerprints of the two circuits and the shape of the
   product it was computed on.  The checker re-validates all three
   conditions of the proof with cheap combinational queries in a fresh
   SAT solver, never reusing the fixed-point engine that produced the
   relation:

     (a) every class equality holds in the first k frames from the
         initial state, for all inputs;
     (b) the conjunction Q of all class equalities over k consecutive
         frames forces them in the next frame (k-step induction);
     (c) every output pair is equal on all states satisfying Q.

   (a) + (b) make Q an invariant of every reachable state; (c) then gives
   sequential equivalence (paper Theorem 1, generalized to the
   register-correspondence tying check of [5]/[9]). *)

type t = {
  spec_digest : string; (* MD5 of the canonical AIGER text *)
  impl_digest : string;
  engine : string; (* informational: which engine computed the relation *)
  candidates : string; (* "all" | "registers" *)
  induction : int; (* k: 1 = the paper's Equation (3) *)
  retime_rounds : int; (* augmentation rounds to replay on the product *)
  prereduce : int option;
      (* reduction seed when the relation is over the FRAIG-reduced pair:
         checking replays the (deterministic) reduction on the originals,
         re-proving its merge obligations, before rebuilding the product *)
  product_nodes : int; (* product size after augmentation (shape check) *)
  classes : int list list; (* normalized literals, each class sorted *)
  proof : Sat.Dimacs.drat_step list list option;
      (* optional DRAT trace: one segment per non-trivial checker
         obligation, in the checker's deterministic traversal order, so
         a proof-mode check can replay the refutations by reverse unit
         propagation instead of trusting a SAT solver *)
}

exception Parse_error of string

let fingerprint aig = Digest.to_hex (Digest.string (Aig.Aiger.to_string aig))

(* Digest-only identity test, for callers (the serve result cache) that
   hold fingerprints but not the circuits; [check] remains the soundness
   gate for anything beyond identity. *)
let matches_digests ~spec_digest ~impl_digest cert =
  String.equal cert.spec_digest spec_digest && String.equal cert.impl_digest impl_digest

let n_classes cert = List.length cert.classes

let n_constraints cert =
  List.fold_left (fun acc cls -> acc + max 0 (List.length cls - 1)) 0 cert.classes

(* --- emission ----------------------------------------------------------------- *)

type emit_error =
  | Not_proved of string (* the verdict was not Equivalent *)
  | Unsupported of string (* the relation is not self-certifying *)

let explain_emit_error = function
  | Not_proved what -> Printf.sprintf "no certificate: verdict was %s" what
  | Unsupported why -> Printf.sprintf "relation is not self-certifying: %s" why

(* Build a certificate from the result of [Scorr.Verify.run_with_relation]
   under the options that produced it. *)
let of_run ~(options : Scorr.Verify.options) ~spec ~impl (verdict, product, relation) =
  match (verdict, relation) with
  | Scorr.Equivalent stats, Some partition ->
    if options.Scorr.Verify.use_reach_dontcare then
      (* with reachability don't-cares the class equalities may hold only
         inside the reachable care set, so Q alone need not be inductive *)
      Error (Unsupported "computed under reachability don't-cares")
    else
      Ok
        {
          spec_digest = fingerprint spec;
          impl_digest = fingerprint impl;
          engine =
            (match options.Scorr.Verify.engine with
            | Scorr.Verify.Bdd_engine -> "bdd"
            | Scorr.Verify.Sat_engine -> "sat");
          candidates =
            (match options.Scorr.Verify.candidates with
            | Scorr.Verify.All_signals -> "all"
            | Scorr.Verify.Registers_only -> "registers");
          induction =
            (match options.Scorr.Verify.engine with
            | Scorr.Verify.Bdd_engine -> 1
            | Scorr.Verify.Sat_engine -> options.Scorr.Verify.sat_unroll);
          retime_rounds = stats.Scorr.Verify.retime_rounds;
          prereduce =
            (if Scorr.Verify.prereduces options then Some options.Scorr.Verify.seed
             else None);
          product_nodes = Aig.num_nodes product.Scorr.Product.aig;
          classes =
            List.map
              (fun cls ->
                List.sort compare
                  (List.map
                     (Scorr.Partition.norm_lit partition)
                     (Scorr.Partition.members partition cls)))
              (Scorr.Partition.multi_member_classes partition);
          proof = None;
        }
  | Scorr.Not_equivalent _, _ -> Error (Not_proved "Not_equivalent")
  | Scorr.Unknown _, _ -> Error (Not_proved "Unknown")
  | Scorr.Equivalent _, None -> Error (Not_proved "Equivalent without a relation")

(* --- independent checking ------------------------------------------------------- *)

type check_error =
  | Fingerprint_mismatch of { subject : string; expected : string; got : string }
  | Shape_mismatch of { expected : int; got : int }
  | Bad_literal of int
  | Bad_header of string
  | Not_initial of { lit_a : int; lit_b : int; frame : int }
  | Not_inductive of { lit_a : int; lit_b : int }
  | Output_unproved of string
  | Reduction_invalid of { subject : string; failed : int }
  | Proof_missing
  | Proof_invalid of string

let explain_check_error = function
  | Fingerprint_mismatch { subject; expected; got } ->
    Printf.sprintf "%s fingerprint mismatch: certificate has %s, circuit is %s" subject
      expected got
  | Shape_mismatch { expected; got } ->
    Printf.sprintf "product-machine shape mismatch: certificate says %d nodes, rebuilt %d"
      expected got
  | Bad_literal l -> Printf.sprintf "literal %d outside the product machine" l
  | Bad_header what -> Printf.sprintf "malformed certificate: %s" what
  | Not_initial { lit_a; lit_b; frame } ->
    Printf.sprintf "class equality %d = %d does not hold at frame %d from the initial state"
      lit_a lit_b frame
  | Not_inductive { lit_a; lit_b } ->
    Printf.sprintf "class equality %d = %d is not %s" lit_a lit_b "preserved by the relation (induction fails)"
  | Output_unproved name ->
    Printf.sprintf "output pair %s is not proved equal under the relation" name
  | Reduction_invalid { subject; failed } ->
    Printf.sprintf "pre-reduction replay on the %s left %d merge obligation(s) unproved"
      subject failed
  | Proof_missing -> "proof-mode check requested but the certificate carries no proof"
  | Proof_invalid why -> Printf.sprintf "proof trace rejected: %s" why

exception Check_failed of check_error

(* Chain [n] time frames of [aig] in [solver]; [first_latch_var] supplies
   the frame-0 state variables, later frames capture the previous frame's
   next-state values.  Deliberately re-implemented here rather than
   calling [Aig.Cnf.unroll], the unroller every engine shares, so the
   checker shares no state with any engine and an encoding bug there
   cannot also hide in the check. *)
let unroll solver aig ~n ~first_latch_var =
  let n_latches = Aig.num_latches aig in
  let frames = Array.make n (fun _ -> 0) in
  let latch_vars = ref first_latch_var in
  for i = 0 to n - 1 do
    let this_latch = !latch_vars in
    let x_vars = Array.init (Aig.num_pis aig) (fun _ -> Sat.new_var solver) in
    let lit_of =
      Aig.Cnf.encode solver aig ~pi_var:(fun j -> x_vars.(j)) ~latch_var:this_latch
    in
    frames.(i) <- lit_of;
    let next_latch =
      Array.init n_latches (fun j ->
          let v = Sat.new_var solver in
          let next = lit_of (Aig.latch_next aig j) in
          Sat.add_clause solver [ Sat.Lit.neg v; next ];
          Sat.add_clause solver [ Sat.Lit.pos v; Sat.Lit.negate next ];
          v)
    in
    latch_vars := (fun j -> next_latch.(j))
  done;
  frames

(* The (representative, member) literal pairs whose equalities form Q. *)
let constraint_pairs cert =
  List.concat_map
    (function [] | [ _ ] -> [] | rep :: rest -> List.map (fun l -> (rep, l)) rest)
    cert.classes

(* The checker's obligation walk, shared by all three discharge modes.
   [on_solver] sees each of the two fresh solvers as it is created (to
   attach proof or input loggers); [discharge solver sl] must decide
   whether the staged selector literal [sl] — whose two guard clauses
   [~sl \/ a \/ b] and [~sl \/ ~a \/ ~b] are already installed — is
   refutable, i.e. whether a <-> b is valid.  The walk is deterministic:
   a proof produced by one run is replayable by any later run over the
   same certificate and circuits, obligation by obligation. *)
let run_check ~spec ~impl ~on_solver ~discharge cert =
  try
    let expect subject expected aig =
      let got = fingerprint aig in
      if got <> expected then
        raise (Check_failed (Fingerprint_mismatch { subject; expected; got }))
    in
    expect "specification" cert.spec_digest spec;
    expect "implementation" cert.impl_digest impl;
    if cert.induction < 1 then
      raise (Check_failed (Bad_header (Printf.sprintf "induction depth %d" cert.induction)));
    if cert.retime_rounds < 0 || cert.retime_rounds > 64 then
      raise
        (Check_failed (Bad_header (Printf.sprintf "retime rounds %d" cert.retime_rounds)));
    (* pre-reduced relations: replay the deterministic reduction on the
       originals, but do not trust it — every merge it performed is
       re-proved on the original circuit with a fresh solver *)
    let spec, impl =
      match cert.prereduce with
      | None -> (spec, impl)
      | Some seed ->
        let reduce subject aig =
          let reduced, rstats = Analysis.Reduce.run ~seed aig in
          (match
             Analysis.Reduce.check_obligations aig rstats.Analysis.Reduce.obligations
           with
          | [] -> ()
          | bad ->
            raise
              (Check_failed (Reduction_invalid { subject; failed = List.length bad })));
          reduced
        in
        (reduce "specification" spec, reduce "implementation" impl)
    in
    (* rebuild the product the relation was computed on: the construction
       and the augmentation are both deterministic *)
    let product = Scorr.Product.make spec impl in
    for _ = 1 to cert.retime_rounds do
      ignore (Scorr.Retime_aug.augment product)
    done;
    let aig = product.Scorr.Product.aig in
    if Aig.num_nodes aig <> cert.product_nodes then
      raise
        (Check_failed
           (Shape_mismatch { expected = cert.product_nodes; got = Aig.num_nodes aig }));
    List.iter
      (fun l ->
        if l < 0 || Aig.node_of_lit l >= Aig.num_nodes aig then
          raise (Check_failed (Bad_literal l)))
      (List.concat cert.classes);
    (* Is [a <-> b] valid under the solver's clauses?  One staged
       obligation; the selector is retired afterwards so the clause set
       stays clean. *)
    let equality_valid solver a b =
      a = b
      ||
      let s = Sat.new_var solver in
      let sl = Sat.Lit.pos s and ns = Sat.Lit.neg s in
      Sat.add_clause solver [ ns; a; b ];
      Sat.add_clause solver [ ns; Sat.Lit.negate a; Sat.Lit.negate b ];
      let r = discharge solver sl in
      Sat.add_clause solver [ ns ];
      r
    in
    let k = cert.induction in
    let pairs = constraint_pairs cert in
    (* (a) base case: every equality holds in the first k frames from the
       initial state, for all input sequences *)
    let solver0 = Sat.create () in
    on_solver solver0;
    let s0 =
      Array.init (Aig.num_latches aig) (fun i ->
          let v = Sat.new_var solver0 in
          Sat.add_clause solver0 [ Sat.Lit.make v (Aig.latch_init aig i) ];
          v)
    in
    let frames0 = unroll solver0 aig ~n:k ~first_latch_var:(fun i -> s0.(i)) in
    for t = 0 to k - 1 do
      List.iter
        (fun (la, lb) ->
          if not (equality_valid solver0 (frames0.(t) la) (frames0.(t) lb)) then
            raise (Check_failed (Not_initial { lit_a = la; lit_b = lb; frame = t })))
        pairs
    done;
    (* (b) induction: from a free state, Q over frames 0..k-1 forces every
       equality in frame k *)
    let solver = Sat.create () in
    on_solver solver;
    let s =
      Array.init (Aig.num_latches aig) (fun _ -> Sat.new_var solver)
    in
    let frames = unroll solver aig ~n:(k + 1) ~first_latch_var:(fun i -> s.(i)) in
    for t = 0 to k - 1 do
      List.iter
        (fun (la, lb) ->
          let a = frames.(t) la and b = frames.(t) lb in
          if a <> b then begin
            Sat.add_clause solver [ Sat.Lit.negate a; b ];
            Sat.add_clause solver [ a; Sat.Lit.negate b ]
          end)
        pairs
    done;
    List.iter
      (fun (la, lb) ->
        if not (equality_valid solver (frames.(k) la) (frames.(k) lb)) then
          raise (Check_failed (Not_inductive { lit_a = la; lit_b = lb })))
      pairs;
    (* (c) Theorem 1: each output pair is equal on all Q-states — membership
       in a common class for all-signals relations, the combinational tying
       check for register-correspondence ones; both reduce to a query in
       the Q-constrained frame 0 *)
    List.iter
      (fun (name, ls, li) ->
        if not (equality_valid solver (frames.(0) ls) (frames.(0) li)) then
          raise (Check_failed (Output_unproved name)))
      product.Scorr.Product.outputs;
    Ok ()
  with Check_failed e -> Error e

(* Plain mode: each obligation is one assumption-guarded SAT query. *)
let check_solving ~spec ~impl cert =
  run_check ~spec ~impl ~on_solver:(fun _ -> ())
    ~discharge:(fun solver sl -> Sat.solve ~assumptions:[ sl ] solver = Sat.Unsat)
    cert

let drat_of_step = function
  | Sat.Step_add lits -> Sat.Dimacs.Add (List.map Sat.Lit.to_int lits)
  | Sat.Step_delete lits -> Sat.Dimacs.Delete (List.map Sat.Lit.to_int lits)

(* Proof-replay mode: no SAT solving at all.  Each checker solver is
   shadowed by an independent reverse-unit-propagation engine fed every
   problem clause through the input logger (the solvers are used purely
   as deterministic CNF encoders).  Per obligation, the next trace
   segment is replayed — every addition verified RUP against the
   accumulated clauses — and the obligation is discharged iff the
   negated selector is then forced by unit propagation. *)
let check_replaying ~spec ~impl cert segments =
  let rups = ref [] in
  let remaining = ref segments in
  let on_solver s =
    let rup = Sat.Dimacs.Rup.create () in
    rups := (s, rup) :: !rups;
    Sat.set_input_logger s
      (Some (fun lits -> Sat.Dimacs.Rup.add_input rup (List.map Sat.Lit.to_int lits)))
  in
  let discharge s sl =
    let rup = List.assq s !rups in
    match !remaining with
    | [] -> raise (Check_failed (Proof_invalid "fewer proof segments than obligations"))
    | seg :: rest ->
      remaining := rest;
      (match Sat.Dimacs.Rup.replay rup seg with
      | Error msg -> raise (Check_failed (Proof_invalid msg))
      | Ok () -> ());
      Sat.Dimacs.Rup.holds rup [ -Sat.Lit.to_int sl ]
  in
  match run_check ~spec ~impl ~on_solver ~discharge cert with
  | Error _ as e -> e
  | Ok () ->
    if !remaining <> [] then
      Error (Proof_invalid "more proof segments than obligations")
    else Ok ()

let check ?(use_proof = false) ~spec ~impl cert =
  if not use_proof then check_solving ~spec ~impl cert
  else
    match cert.proof with
    | None -> Error Proof_missing
    | Some segments -> check_replaying ~spec ~impl cert segments

(* Run the solving checker while streaming each solver's DRAT events,
   cutting one segment per discharged obligation; the returned
   certificate embeds the trace.  Solvers persist across the obligations
   of one phase, so a segment's refutation may resolve with learned
   clauses recorded in earlier segments — replay feeds the segments to
   the same accumulating engine in the same order, which is exactly why
   the traversal order is part of the format. *)
let prove ~spec ~impl cert =
  let segments = ref [] in
  let current = ref [] in
  let on_solver s =
    Sat.set_proof_logger s (Some (fun step -> current := drat_of_step step :: !current))
  in
  let discharge solver sl =
    current := [];
    let r = Sat.solve ~assumptions:[ sl ] solver = Sat.Unsat in
    if r then segments := List.rev !current :: !segments;
    r
  in
  match run_check ~spec ~impl ~on_solver ~discharge cert with
  | Error _ as e -> e
  | Ok () -> Ok { cert with proof = Some (List.rev !segments) }

(* --- serialization -------------------------------------------------------------- *)

(* Text format:

     seqver-cert 1
     spec-md5 <32 hex chars>
     impl-md5 <32 hex chars>
     engine bdd
     candidates all
     induction 1
     retime-rounds 0
     prereduced 42        (optional: FRAIG pre-reduction seed)
     product-nodes 420
     classes 2
     class 4 6 12
     class 9 13
     end

   A trace-backed certificate inserts, between the class lines and the
   end marker, a proof section — one [segment] per checker obligation,
   each followed by its DRAT lines (DIMACS literals, "d"-prefixed
   deletions):

     proof 2
     segment 3
     5 -2 0
     d 5 -2 0
     -9 0
     segment 1
     -12 0
     end                                                                 *)

let to_string cert =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "seqver-cert 1\n";
  Buffer.add_string buf (Printf.sprintf "spec-md5 %s\n" cert.spec_digest);
  Buffer.add_string buf (Printf.sprintf "impl-md5 %s\n" cert.impl_digest);
  Buffer.add_string buf (Printf.sprintf "engine %s\n" cert.engine);
  Buffer.add_string buf (Printf.sprintf "candidates %s\n" cert.candidates);
  Buffer.add_string buf (Printf.sprintf "induction %d\n" cert.induction);
  Buffer.add_string buf (Printf.sprintf "retime-rounds %d\n" cert.retime_rounds);
  (match cert.prereduce with
  | None -> ()
  | Some seed -> Buffer.add_string buf (Printf.sprintf "prereduced %d\n" seed));
  Buffer.add_string buf (Printf.sprintf "product-nodes %d\n" cert.product_nodes);
  Buffer.add_string buf (Printf.sprintf "classes %d\n" (List.length cert.classes));
  List.iter
    (fun cls ->
      Buffer.add_string buf "class";
      List.iter (fun l -> Buffer.add_string buf (Printf.sprintf " %d" l)) cls;
      Buffer.add_char buf '\n')
    cert.classes;
  (match cert.proof with
  | None -> ()
  | Some segments ->
    Buffer.add_string buf (Printf.sprintf "proof %d\n" (List.length segments));
    List.iter
      (fun seg ->
        Buffer.add_string buf (Printf.sprintf "segment %d\n" (List.length seg));
        Buffer.add_string buf (Sat.Dimacs.drat_to_string seg))
      segments);
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

let parse_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let field key = function
    | [] -> fail "unexpected end of certificate (expected %s)" key
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
  let version, lines = int_field "seqver-cert" lines in
  if version <> 1 then fail "unsupported certificate version %d" version;
  let spec_digest, lines = field "spec-md5" lines in
  let impl_digest, lines = field "impl-md5" lines in
  let engine, lines = field "engine" lines in
  let candidates, lines = field "candidates" lines in
  let induction, lines = int_field "induction" lines in
  let retime_rounds, lines = int_field "retime-rounds" lines in
  let prereduce, lines =
    match lines with
    | line :: _ when String.length line > 11 && String.sub line 0 11 = "prereduced " ->
      let seed, lines = int_field "prereduced" lines in
      (Some seed, lines)
    | _ -> (None, lines)
  in
  let product_nodes, lines = int_field "product-nodes" lines in
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
      | [] -> fail "unexpected end of certificate (expected %d more class(es))" (n - i)
      | line :: rest ->
        if line = "class" then read_classes (i + 1) ([] :: acc) rest
        else if String.length line > 6 && String.sub line 0 6 = "class " then
          read_classes (i + 1)
            (parse_class (String.sub line 6 (String.length line - 6)) :: acc)
            rest
        else fail "expected a class line, got %S" line
  in
  let classes, lines = read_classes 0 [] lines in
  (* optional proof section (certificates without one parse as before) *)
  let proof, lines =
    match lines with
    | line :: _ when String.length line >= 6 && String.sub line 0 6 = "proof " ->
      let nseg, lines = int_field "proof" lines in
      if nseg < 0 then fail "negative proof segment count %d" nseg;
      let rec read_steps j acc lines =
        if j = 0 then (List.rev acc, lines)
        else
          match lines with
          | [] -> fail "unexpected end of certificate (expected %d more proof line(s))" j
          | line :: rest -> (
            match Sat.Dimacs.drat_parse_string line with
            | [ step ] -> read_steps (j - 1) (step :: acc) rest
            | _ -> fail "expected one DRAT step per line, got %S" line
            | exception Failure msg -> fail "bad DRAT line %S: %s" line msg)
      in
      let rec read_segments i acc lines =
        if i = 0 then (List.rev acc, lines)
        else
          match lines with
          | [] -> fail "unexpected end of certificate (expected %d more segment(s))" i
          | _ ->
            let nsteps, lines = int_field "segment" lines in
            if nsteps < 0 then fail "negative proof step count %d" nsteps;
            let steps, lines = read_steps nsteps [] lines in
            read_segments (i - 1) (steps :: acc) lines
      in
      let segments, lines = read_segments nseg [] lines in
      (Some segments, lines)
    | _ -> (None, lines)
  in
  (match lines with
  | [ "end" ] -> ()
  | [] -> fail "missing end marker"
  | line :: _ -> fail "trailing content after classes: %S" line);
  {
    spec_digest;
    impl_digest;
    engine;
    candidates;
    induction;
    retime_rounds;
    prereduce;
    product_nodes;
    classes;
    proof;
  }

let to_file path cert =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string cert))

let parse_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  parse_string text
