(* SAT solver tests: random CNF instances are cross-checked against a
   brute-force enumerator; classic crafted families exercise learning. *)

let brute_force nvars clauses =
  (* clauses as DIMACS int lists *)
  let sat_under bits =
    List.for_all
      (List.exists (fun l ->
           let v = abs l - 1 in
           let value = bits land (1 lsl v) <> 0 in
           if l > 0 then value else not value))
      clauses
  in
  let rec go bits = bits < 1 lsl nvars && (sat_under bits || go (bits + 1)) in
  go 0

let solve_clauses nvars clauses =
  let s = Sat.create () in
  Sat.ensure_vars s nvars;
  List.iter (fun c -> Sat.add_clause s (List.map Sat.Lit.of_int c)) clauses;
  (s, Sat.solve s)

let cnf_gen =
  let open QCheck.Gen in
  let nvars = 6 in
  let lit = map2 (fun v s -> if s then v + 1 else -(v + 1)) (int_bound (nvars - 1)) bool in
  let clause = list_size (int_range 1 4) lit in
  map (fun cs -> (nvars, cs)) (list_size (int_range 1 30) clause)

let arbitrary_cnf =
  QCheck.make cnf_gen ~print:(fun (_, cs) ->
      String.concat " ; "
        (List.map (fun c -> String.concat " " (List.map string_of_int c)) cs))

let prop_matches_brute_force (nvars, clauses) =
  let _, r = solve_clauses nvars clauses in
  let expect = brute_force nvars clauses in
  (r = Sat.Sat) = expect

let prop_model_satisfies (nvars, clauses) =
  let s, r = solve_clauses nvars clauses in
  match r with
  | Sat.Unsat -> true
  | Sat.Sat ->
    List.for_all
      (List.exists (fun l ->
           let v = abs l - 1 in
           let value = Sat.value s v in
           if l > 0 then value else not value))
      clauses

let prop_assumptions_sound (nvars, clauses) =
  (* solving under assumption [a] must match solving with unit clause [a] *)
  let s, _ = solve_clauses nvars clauses in
  let a = Sat.Lit.pos 0 in
  let r_assume = Sat.solve ~assumptions:[ a ] s in
  let expect = brute_force nvars ([ 1 ] :: clauses) in
  (r_assume = Sat.Sat) = expect

let prop_assumptions_dont_stick (nvars, clauses) =
  (* an assumption must not constrain later solve calls *)
  let s, r0 = solve_clauses nvars clauses in
  let _ = Sat.solve ~assumptions:[ Sat.Lit.pos 0 ] s in
  let _ = Sat.solve ~assumptions:[ Sat.Lit.neg 0 ] s in
  let r1 = Sat.solve s in
  r0 = r1

(* pigeonhole principle PHP(n+1, n): always unsat, needs real learning *)
let pigeonhole n =
  let var p h = (p * n) + h + 1 in
  let clauses = ref [] in
  for p = 0 to n do
    clauses := List.init n (fun h -> var p h) :: !clauses
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        clauses := [ -var p1 h; -var p2 h ] :: !clauses
      done
    done
  done;
  ((n + 1) * n, !clauses)

let test_pigeonhole () =
  List.iter
    (fun n ->
      let nvars, clauses = pigeonhole n in
      let _, r = solve_clauses nvars clauses in
      Alcotest.(check bool) (Printf.sprintf "php %d unsat" n) true (r = Sat.Unsat))
    [ 2; 3; 4; 5 ]

let test_empty_clause () =
  let s = Sat.create () in
  Sat.add_clause s [];
  Alcotest.(check bool) "inconsistent" false (Sat.is_consistent s);
  Alcotest.(check bool) "unsat" true (Sat.solve s = Sat.Unsat)

let test_unit_propagation_chain () =
  let s = Sat.create () in
  Sat.ensure_vars s 50;
  (* x0 and a chain x_i -> x_{i+1}; finally !x49: unsat *)
  Sat.add_clause s [ Sat.Lit.pos 0 ];
  for i = 0 to 48 do
    Sat.add_clause s [ Sat.Lit.neg i; Sat.Lit.pos (i + 1) ]
  done;
  Sat.add_clause s [ Sat.Lit.neg 49 ];
  Alcotest.(check bool) "chain unsat" true (Sat.solve s = Sat.Unsat)

let test_xor_chain () =
  (* parity constraints: x0 ^ x1 = 1, x1 ^ x2 = 1, ..., x0 ^ xn = parity *)
  let n = 12 in
  let s = Sat.create () in
  Sat.ensure_vars s (n + 1);
  let xor_clauses a b value =
    (* a ^ b = value *)
    if value then
      [ [ Sat.Lit.pos a; Sat.Lit.pos b ]; [ Sat.Lit.neg a; Sat.Lit.neg b ] ]
    else [ [ Sat.Lit.pos a; Sat.Lit.neg b ]; [ Sat.Lit.neg a; Sat.Lit.pos b ] ]
  in
  for i = 0 to n - 1 do
    List.iter (Sat.add_clause s) (xor_clauses i (i + 1) true)
  done;
  (* x0 ^ xn should equal n mod 2; assert the wrong value: unsat *)
  let wrong = n mod 2 = 0 in
  List.iter (Sat.add_clause s) (xor_clauses 0 n wrong);
  Alcotest.(check bool) "xor chain unsat" true (Sat.solve s = Sat.Unsat)

let test_tautology_dropped () =
  let s = Sat.create () in
  Sat.ensure_vars s 2;
  Sat.add_clause s [ Sat.Lit.pos 0; Sat.Lit.neg 0 ];
  Alcotest.(check int) "no clause stored" 0 (Sat.num_clauses s);
  Alcotest.(check bool) "sat" true (Sat.solve s = Sat.Sat)

let test_dimacs_roundtrip () =
  let text = "c comment\np cnf 3 3\n1 -2 0\n2 3 0\n-1 0\n" in
  let cnf = Sat.Dimacs.parse_string text in
  Alcotest.(check int) "nvars" 3 cnf.Sat.Dimacs.nvars;
  Alcotest.(check int) "nclauses" 3 (List.length cnf.Sat.Dimacs.clauses);
  let cnf2 = Sat.Dimacs.parse_string (Sat.Dimacs.to_string cnf) in
  Alcotest.(check bool) "roundtrip" true (cnf = cnf2);
  let s = Sat.create () in
  Sat.Dimacs.load_into s cnf;
  Alcotest.(check bool) "sat" true (Sat.solve s = Sat.Sat);
  (* -1 forces x1 false, then 1 -2 forces x2 false, then 2 3 forces x3 *)
  Alcotest.(check bool) "x3 true" true (Sat.value s 2)

let test_incremental_growth () =
  let s = Sat.create () in
  Sat.ensure_vars s 3;
  Sat.add_clause s [ Sat.Lit.pos 0; Sat.Lit.pos 1 ];
  Alcotest.(check bool) "sat 1" true (Sat.solve s = Sat.Sat);
  Sat.add_clause s [ Sat.Lit.neg 0 ];
  Alcotest.(check bool) "sat 2" true (Sat.solve s = Sat.Sat);
  Alcotest.(check bool) "x1 forced" true (Sat.value s 1);
  Sat.add_clause s [ Sat.Lit.neg 1 ];
  Alcotest.(check bool) "unsat" true (Sat.solve s = Sat.Unsat)

let test_dimacs_edge_cases () =
  (* clauses spread over lines, comments between, missing problem line *)
  let cnf = Sat.Dimacs.parse_string "c no p-line\n1 2\n0\nc mid comment\n-1\n-2 0\n" in
  Alcotest.(check int) "inferred nvars" 2 cnf.Sat.Dimacs.nvars;
  Alcotest.(check int) "clauses" 2 (List.length cnf.Sat.Dimacs.clauses);
  let s = Sat.create () in
  Sat.Dimacs.load_into s cnf;
  (* (1 or 2) and (!1 and-implicit !2): wait, second clause is [-1; -2] *)
  Alcotest.(check bool) "sat" true (Sat.solve s = Sat.Sat)

let test_solver_statistics_progress () =
  let nvars, clauses = pigeonhole 5 in
  let s, r = solve_clauses nvars clauses in
  Alcotest.(check bool) "unsat" true (r = Sat.Unsat);
  Alcotest.(check bool) "conflicts counted" true (Sat.num_conflicts s > 0);
  Alcotest.(check bool) "decisions counted" true (Sat.num_decisions s > 0);
  Alcotest.(check bool) "propagations counted" true (Sat.num_propagations s > 0);
  Alcotest.(check bool) "learned clauses" true (Sat.num_learnts s > 0)

let test_large_random_3sat () =
  (* an easy satisfiable 3-SAT instance at low clause ratio *)
  let rng = Random.State.make [| 2024 |] in
  let nvars = 200 in
  let s = Sat.create () in
  Sat.ensure_vars s nvars;
  for _ = 1 to 500 do
    let clause =
      List.init 3 (fun _ ->
          Sat.Lit.make (Random.State.int rng nvars) (Random.State.bool rng))
    in
    Sat.add_clause s clause
  done;
  match Sat.solve s with
  | Sat.Sat -> ()
  | Sat.Unsat -> Alcotest.fail "low-ratio 3-sat should be satisfiable"

let test_failed_assumption_core () =
  let s = Sat.create () in
  Sat.ensure_vars s 4;
  (* a and b cannot hold together; c, d are free *)
  Sat.add_clause s [ Sat.Lit.neg 0; Sat.Lit.neg 1 ];
  let assumptions = [ Sat.Lit.pos 0; Sat.Lit.pos 1; Sat.Lit.pos 2; Sat.Lit.pos 3 ] in
  Alcotest.(check bool) "unsat under a,b" true (Sat.solve ~assumptions s = Sat.Unsat);
  let core = Sat.failed_assumptions s in
  Alcotest.(check bool) "core nonempty" true (core <> []);
  Alcotest.(check bool)
    "core within assumptions" true
    (List.for_all (fun l -> List.mem l assumptions) core);
  Alcotest.(check bool)
    "core avoids free vars" true
    (List.for_all (fun l -> Sat.Lit.var l < 2) core);
  (* the core really is refuted on its own *)
  Alcotest.(check bool) "core refutes" true (Sat.solve ~assumptions:core s = Sat.Unsat);
  (* cores are per-solve: a satisfiable call clears them *)
  Alcotest.(check bool) "sat without assumptions" true (Sat.solve s = Sat.Sat);
  Alcotest.(check bool) "core reset" true (Sat.failed_assumptions s = [])

let test_activation_release () =
  let s = Sat.create () in
  Sat.ensure_vars s 2;
  Sat.add_clause s [ Sat.Lit.neg 0; Sat.Lit.neg 1 ];
  let g = Sat.new_var s in
  Sat.add_clause ~act:g s [ Sat.Lit.pos 0 ];
  Sat.add_clause ~act:g s [ Sat.Lit.pos 1 ];
  let guarded = Sat.num_clauses s in
  (* the guarded clause only bites while g is assumed *)
  Alcotest.(check bool) "unsat under g" true (Sat.solve ~assumptions:[ Sat.Lit.pos g ] s = Sat.Unsat);
  Alcotest.(check bool)
    "core is g" true
    (Sat.failed_assumptions s = [ Sat.Lit.pos g ]);
  Alcotest.(check bool) "sat without g" true (Sat.solve s = Sat.Sat);
  Sat.release s g;
  Alcotest.(check bool) "guarded clause dropped" true (Sat.num_clauses s < guarded);
  Alcotest.(check bool) "still sat" true (Sat.solve s = Sat.Sat);
  (* a released activation variable is pinned false *)
  Alcotest.(check bool)
    "released g refuted" true
    (Sat.solve ~assumptions:[ Sat.Lit.pos g ] s = Sat.Unsat)

let test_restarts_counted () =
  let nvars, clauses = pigeonhole 6 in
  let s, r = solve_clauses nvars clauses in
  Alcotest.(check bool) "unsat" true (r = Sat.Unsat);
  Alcotest.(check bool) "restarts happened" true (Sat.num_restarts s > 0)

let test_drat_text_roundtrip () =
  let open Sat.Dimacs in
  let trace =
    [ Add [ 1; -2; 3 ]; Delete [ 1; -2; 3 ]; Add [ -4 ]; Delete [ 7; 8 ]; Add [] ]
  in
  let text = drat_to_string trace in
  Alcotest.(check bool) "roundtrip" true (drat_parse_string text = trace);
  (* whitespace and comments are tolerated *)
  let trace2 = drat_parse_string "c comment\n1 2 0\nd 1 2 0\n\n0\n" in
  Alcotest.(check bool)
    "parsed forms" true
    (trace2 = [ Add [ 1; 2 ]; Delete [ 1; 2 ]; Add [] ])

let test_rup_checker () =
  let open Sat.Dimacs in
  (* (1 or 2) and (1 or -2): resolving gives 1, so Add [1] is RUP *)
  let r = Rup.create () in
  Rup.add_input r [ 1; 2 ];
  Rup.add_input r [ 1; -2 ];
  Alcotest.(check bool) "unit not yet forced" false (Rup.holds r [ 2 ]);
  Alcotest.(check bool) "resolvent is RUP" true (Rup.holds r [ 1 ]);
  Alcotest.(check bool) "replay accepts" true (Rup.replay r [ Add [ 1 ] ] = Ok ());
  Alcotest.(check bool) "now forced" true (Rup.holds r [ 1 ]);
  (* a top-level conflict makes everything implied *)
  let r2 = Rup.create () in
  Rup.add_input r2 [ 1 ];
  Rup.add_input r2 [ -1; 2 ];
  Rup.add_input r2 [ -2 ];
  Alcotest.(check bool) "contradiction implies empty" true (Rup.holds r2 [])

let test_rup_rejects_non_rup () =
  let open Sat.Dimacs in
  let fresh () =
    let r = Rup.create () in
    Rup.add_input r [ 1; 2 ];
    Rup.add_input r [ 1; -2 ];
    r
  in
  (* 2 alone is not implied *)
  (match Rup.replay (fresh ()) [ Add [ 2 ] ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "non-RUP addition accepted");
  (* an unconstrained fresh variable is certainly not implied *)
  (match Rup.replay (fresh ()) [ Add [ 999_999 ] ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unseen variable accepted");
  (* deleting the clauses breaks a previously valid derivation *)
  match Rup.replay (fresh ()) [ Delete [ 1; 2 ]; Add [ 1 ] ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "deletion-invalidated addition accepted"

let test_solver_trace_replays () =
  (* end to end: the solver's own proof log, replayed through the
     independent checker, re-derives unsatisfiability *)
  let s = Sat.create () in
  let rup = Sat.Dimacs.Rup.create () in
  let trace = ref [] in
  Sat.set_input_logger s
    (Some (fun lits -> Sat.Dimacs.Rup.add_input rup (List.map Sat.Lit.to_int lits)));
  Sat.set_proof_logger s
    (Some
       (fun step ->
         trace :=
           (match step with
           | Sat.Step_add lits -> Sat.Dimacs.Add (List.map Sat.Lit.to_int lits)
           | Sat.Step_delete lits -> Sat.Dimacs.Delete (List.map Sat.Lit.to_int lits))
           :: !trace));
  let nvars, clauses = pigeonhole 4 in
  Sat.ensure_vars s nvars;
  List.iter (fun c -> Sat.add_clause s (List.map Sat.Lit.of_int c)) clauses;
  Alcotest.(check bool) "unsat" true (Sat.solve s = Sat.Unsat);
  (match Sat.Dimacs.Rup.replay rup (List.rev !trace) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("trace rejected: " ^ msg));
  Alcotest.(check bool) "empty clause derived" true (Sat.Dimacs.Rup.holds rup [])

(* Staged solves on one persistent solver, as the sweep engines issue
   them: each round guards a few extra clauses with a fresh activation
   variable and solves under it.  Guards are released two rounds late, so
   a release drops clauses from the middle of the clause list as well as
   from its head, and learnt clauses outlive the guards they mention.
   Every answer must match brute force on the base plus that round's
   clauses, and once every guard is released only the base clauses
   remain. *)
let prop_staged_releases ((nvars, base), rounds) =
  let s, _ = solve_clauses nvars base in
  let n_base = Sat.num_clauses s in
  let lit l = Sat.Lit.of_int l in
  let pending = Queue.create () in
  let answers =
    List.for_all
      (fun extra ->
        let g = Sat.new_var s in
        List.iter (fun c -> Sat.add_clause ~act:g s (List.map lit c)) extra;
        let r = Sat.solve ~assumptions:[ Sat.Lit.pos g ] s in
        Queue.add g pending;
        if Queue.length pending > 2 then Sat.release s (Queue.pop pending);
        (r = Sat.Sat) = brute_force nvars (extra @ base))
      rounds
  in
  Queue.iter (Sat.release s) pending;
  answers
  && Sat.num_clauses s = n_base
  && (Sat.solve s = Sat.Sat) = brute_force nvars base

let arbitrary_staged =
  let open QCheck.Gen in
  let rounds (nvars, _) =
    let lit = map2 (fun v s -> if s then v + 1 else -(v + 1)) (int_bound (nvars - 1)) bool in
    list_size (int_range 1 8) (list_size (int_range 1 3) (list_size (int_range 1 3) lit))
  in
  QCheck.make (cnf_gen >>= fun cnf -> map (fun r -> (cnf, r)) (rounds cnf))

let qprop name count arb p = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb p)

let suite =
  [ Alcotest.test_case "empty clause" `Quick test_empty_clause;
    Alcotest.test_case "unit chain" `Quick test_unit_propagation_chain;
    Alcotest.test_case "xor chain" `Quick test_xor_chain;
    Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
    Alcotest.test_case "tautology dropped" `Quick test_tautology_dropped;
    Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
    Alcotest.test_case "incremental" `Quick test_incremental_growth;
    Alcotest.test_case "dimacs edge cases" `Quick test_dimacs_edge_cases;
    Alcotest.test_case "statistics progress" `Quick test_solver_statistics_progress;
    Alcotest.test_case "random 3-sat" `Quick test_large_random_3sat;
    Alcotest.test_case "failed-assumption core" `Quick test_failed_assumption_core;
    Alcotest.test_case "activation release" `Quick test_activation_release;
    Alcotest.test_case "restarts counted" `Quick test_restarts_counted;
    Alcotest.test_case "drat text roundtrip" `Quick test_drat_text_roundtrip;
    Alcotest.test_case "rup checker" `Quick test_rup_checker;
    Alcotest.test_case "rup rejects non-rup" `Quick test_rup_rejects_non_rup;
    Alcotest.test_case "solver trace replays" `Quick test_solver_trace_replays;
    qprop "matches brute force" 500 arbitrary_cnf prop_matches_brute_force;
    qprop "model satisfies" 500 arbitrary_cnf prop_model_satisfies;
    qprop "assumptions sound" 300 arbitrary_cnf prop_assumptions_sound;
    qprop "assumptions are temporary" 200 arbitrary_cnf prop_assumptions_dont_stick;
    qprop "staged solves with late releases" 300 arbitrary_staged prop_staged_releases;
  ]

let () = Alcotest.run "sat" [ ("sat", suite) ]
