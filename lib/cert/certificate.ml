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
  relation : Scorr.Relation.t; (* fingerprints, options, shape, classes *)
  prereduce : int option;
      (* reduction seed when the relation is over the FRAIG-reduced pair:
         checking replays the (deterministic) reduction on the originals,
         re-proving its merge obligations, before rebuilding the product *)
  proof : Sat.Dimacs.drat_step list list option;
      (* optional DRAT trace: one segment per non-trivial checker
         obligation, in the checker's deterministic traversal order, so
         a proof-mode check can replay the refutations by reverse unit
         propagation instead of trusting a SAT solver *)
}

(* Digest-only identity test, for callers (the serve result cache) that
   hold fingerprints but not the circuits; [check] remains the soundness
   gate for anything beyond identity. *)
let matches_digests ~spec_digest ~impl_digest cert =
  String.equal cert.relation.spec_digest spec_digest
  && String.equal cert.relation.impl_digest impl_digest

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
  | Scorr.Equivalent _, Some partition ->
    if options.Scorr.Verify.use_reach_dontcare then
      (* with reachability don't-cares the class equalities may hold only
         inside the reachable care set, so Q alone need not be inductive *)
      Error (Unsupported "computed under reachability don't-cares")
    else
      Ok
        {
          relation =
            Scorr.Verify.relation_of_run ~options ~spec ~impl (verdict, product, partition);
          prereduce =
            (if Scorr.Verify.prereduces options then Some options.Scorr.Verify.seed
             else None);
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
    cert.relation.classes

(* The checker's obligation walk, shared by all three discharge modes.
   [on_solver] sees each of the two fresh solvers as it is created (to
   attach proof or input loggers); [discharge solver sl] must decide
   whether the staged selector literal [sl] — whose two guard clauses
   [~sl \/ a \/ b] and [~sl \/ ~a \/ ~b] are already installed — is
   refutable, i.e. whether a <-> b is valid.  The walk is deterministic:
   a proof produced by one run is replayable by any later run over the
   same certificate and circuits, obligation by obligation. *)
let run_check ~spec ~impl ~on_solver ~discharge cert =
  let r = cert.relation in
  try
    let expect subject expected aig =
      let got = Scorr.Relation.fingerprint aig in
      if got <> expected then
        raise (Check_failed (Fingerprint_mismatch { subject; expected; got }))
    in
    expect "specification" r.spec_digest spec;
    expect "implementation" r.impl_digest impl;
    if r.induction < 1 || r.induction > Scorr.Verify.max_induction then
      raise (Check_failed (Bad_header (Printf.sprintf "induction depth %d" r.induction)));
    (match Scorr.Relation.flaw r with
    | None -> ()
    | Some (Scorr.Relation.Retime_rounds n) ->
      raise (Check_failed (Bad_header (Printf.sprintf "retime rounds %d" n)))
    | Some (Scorr.Relation.Literal l) -> raise (Check_failed (Bad_literal l)));
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
    (* rebuild the product the relation was computed on *)
    let product = Scorr.Product.make spec impl in
    (match Scorr.Relation.replay r product with
    | Ok () -> ()
    | Error got -> raise (Check_failed (Shape_mismatch { expected = r.product_nodes; got })));
    let aig = product.Scorr.Product.aig in
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
    let k = r.induction in
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

(* The relation file with an optional [prereduced] seed after
   [retime-rounds] and an optional proof section as its tail: one
   [segment] per checker obligation, each followed by its DRAT lines
   (DIMACS literals, "d"-prefixed deletions):

     proof 2
     segment 3
     5 -2 0
     d 5 -2 0
     -9 0
     segment 1
     -12 0                                                               *)
let kind =
  {
    Scorr.Relation.name = "certificate";
    magic = "seqver-cert";
    own = [ ("prereduced", "retime-rounds", false) ];
    last = "classes";
  }

let to_string cert =
  Scorr.Relation.to_string kind
    ~own:(Option.fold ~none:[] ~some:(fun seed -> [ ("prereduced", seed) ]) cert.prereduce)
    cert.relation
    (fun buf ->
      Option.iter
        (fun segments ->
          Printf.bprintf buf "proof %d\n" (List.length segments);
          List.iter
            (fun seg ->
              Printf.bprintf buf "segment %d\n" (List.length seg);
              Buffer.add_string buf (Sat.Dimacs.drat_to_string seg))
            segments)
        cert.proof)

let drat_line line rest =
  match Sat.Dimacs.drat_parse_string line with
  | [ step ] -> (step, rest)
  | _ -> Scorr.Relation.fail "expected one DRAT step per line, got %S" line
  | exception Failure msg -> Scorr.Relation.fail "bad DRAT line %S: %s" line msg

(* the proof section is optional: certificates without one parse as before *)
let proof_section = function
  | line :: _ as lines when String.starts_with ~prefix:"proof " line ->
    let segment line rest =
      Scorr.Relation.section kind ~key:"segment" ~noun:"proof step" ~items:"proof line(s)"
        drat_line (line :: rest)
    in
    let segments, lines =
      Scorr.Relation.section kind ~key:"proof" ~noun:"proof segment" ~items:"segment(s)"
        segment lines
    in
    (Some segments, lines)
  | lines -> (None, lines)

let parse_string text =
  let relation, own, proof = Scorr.Relation.parse kind ~tail:proof_section text in
  { relation; prereduce = List.assoc_opt "prereduced" own; proof }

let to_file path cert =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_string cert))

let parse_file path = parse_string (In_channel.with_open_bin path In_channel.input_all)

(* --- resuming from a certificate ------------------------------------------------ *)

(* Either relation file as a resume point (see the interface): a
   certificate seeds a run like a checkpoint taken after zero iterations,
   under the resuming run's seed. *)
let resume_of_file ~seed path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  if not (Scorr.Relation.has_header kind text) then Scorr.Checkpoint.parse_string text
  else
    let cert = parse_string text in
    match cert.prereduce with
    | Some seed ->
      raise
        (Scorr.Checkpoint.Incompatible
           (Printf.sprintf
              "the certificate's relation is over the circuits pre-reduced with seed %d, \
               and a certificate seeds only a run over the circuits as given; resume from \
               a checkpoint of the run instead"
              seed))
    | None -> { Scorr.Checkpoint.relation = cert.relation; seed; iterations = 0; patterns = [] }
