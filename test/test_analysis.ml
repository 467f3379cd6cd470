(* Static-analysis layer tests: shape metrics, diagnostics, the
   structural reduction's semantics preservation / idempotence / proof
   obligations, the engine-steering policy, and the analysis-backed lint
   rules. *)

let small_aig seed =
  let c = Test_util.random_circuit ~n_inputs:3 ~n_latches:4 ~n_gates:18 seed in
  let a, _ = Aig.of_netlist c in
  a

let suite_aig name = Circuits.Suite.aig_of (Option.get (Circuits.Suite.find name))

(* --- metrics ---------------------------------------------------------------- *)

(* x, y PIs; g = x & y; latch q (next g) feeding the single PO. *)
let mk_small () =
  let t = Aig.create () in
  let x = Aig.add_pi t in
  let y = Aig.add_pi t in
  let q = Aig.add_latch t ~init:false in
  let g = Aig.mk_and t x y in
  Aig.set_latch_next t q ~next:g;
  Aig.add_po t "o" q;
  (t, Aig.node_of_lit x, Aig.node_of_lit y, Aig.node_of_lit q, Aig.node_of_lit g)

let test_metrics_small () =
  let t, nx, _, nq, ng = mk_small () in
  let m = Analysis.Metrics.make t in
  Alcotest.(check int) "pi level" 0 m.Analysis.Metrics.level.(nx);
  Alcotest.(check int) "latch level" 0 m.Analysis.Metrics.level.(nq);
  Alcotest.(check int) "and level" 1 m.Analysis.Metrics.level.(ng);
  Alcotest.(check int) "and cone (g,x,y)" 3 m.Analysis.Metrics.cone.(ng);
  Alcotest.(check int) "and fanout (latch next)" 1 m.Analysis.Metrics.fanout.(ng);
  let s = Analysis.Metrics.summary t in
  Alcotest.(check int) "ands" 1 s.Analysis.Metrics.ands;
  Alcotest.(check int) "latches" 1 s.Analysis.Metrics.latches;
  Alcotest.(check int) "levels" 1 s.Analysis.Metrics.levels;
  Alcotest.(check int) "no autonomous nodes" 0 s.Analysis.Metrics.autonomous

(* --- diagnostics ------------------------------------------------------------- *)

let test_diag_clean () =
  let t, _, _, _, _ = mk_small () in
  let d = Analysis.Diag.run t in
  Alcotest.(check bool) "clean" true (Analysis.Diag.clean d);
  Alcotest.(check bool) "acyclic" true d.Analysis.Diag.acyclic

let test_diag_findings () =
  let t = Aig.create () in
  let x = Aig.add_pi t in
  let y = Aig.add_pi t in
  (* dead: an AND no PO can reach *)
  let dead = Aig.mk_and t x (Aig.lit_not y) in
  (* unobservable: a latch feeding nothing *)
  let r = Aig.add_latch t ~init:false in
  Aig.set_latch_next t r ~next:x;
  Aig.add_po t "o" x;
  Aig.add_po t "stuck" Aig.lit_true;
  let d = Analysis.Diag.run t in
  Alcotest.(check bool) "not clean" false (Analysis.Diag.clean d);
  Alcotest.(check (list int)) "dead and node" [ Aig.node_of_lit dead ]
    d.Analysis.Diag.dead_nodes;
  Alcotest.(check (list int)) "unobservable latch" [ 0 ]
    d.Analysis.Diag.unobservable_latches;
  Alcotest.(check int) "constant po" 1 (List.length d.Analysis.Diag.constant_pos)

(* --- reduction --------------------------------------------------------------- *)

(* Semantics preservation: the reduced circuit simulates identically on
   random frames, and every recorded merge obligation independently
   re-proves on the original with a fresh solver. *)
let prop_reduce_preserves_semantics =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"reduction is semantics-preserving" ~count:40
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let a =
           Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed
             (small_aig seed)
         in
         let reduced, s = Analysis.Reduce.run ~seed a in
         Aig.num_pis reduced = Aig.num_pis a
         (* unobservable latches may be garbage collected, never added *)
         && Aig.num_latches reduced <= Aig.num_latches a
         && List.map fst (Aig.pos reduced) = List.map fst (Aig.pos a)
         && Test_util.aig_seq_differ ~n_frames:48 a reduced = None
         && Analysis.Reduce.check_obligations a s.Analysis.Reduce.obligations = []))

let prop_reduce_idempotent =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"reduction is idempotent" ~count:40
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let a =
           Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed
             (small_aig seed)
         in
         let reduced, _ = Analysis.Reduce.run ~seed a in
         let _, s2 = Analysis.Reduce.run ~seed reduced in
         s2.Analysis.Reduce.ands_after = s2.Analysis.Reduce.ands_before
         && s2.Analysis.Reduce.fraig_merges = 0))

(* Reduction feeds both engines in the steered portfolio; the verdict on
   the pre-reduced pair must match the verdict on the originals. *)
let prop_reduced_verdict_agrees =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"engines agree on reduced circuits" ~count:15
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let a = small_aig seed in
         let a' = Transform.Opt.rewrite ~seed a in
         let ra, _ = Analysis.Reduce.run ~seed a in
         let ra', _ = Analysis.Reduce.run ~seed a' in
         let verdict options x y =
           match Scorr.check ~options x y with
           | Scorr.Equivalent _ -> `Eq
           | Scorr.Not_equivalent _ -> `Neq
           | Scorr.Unknown _ -> `Unknown
         in
         List.for_all
           (fun engine ->
             let options = { Scorr.default_options with Scorr.Verify.engine } in
             verdict options a a' = verdict options ra ra')
           [ Scorr.Verify.Bdd_engine; Scorr.Verify.Sat_engine ]))

(* --- steering ---------------------------------------------------------------- *)

let test_steer_bdd_first () =
  let bdd_first = Analysis.Steer.bdd_first in
  Alcotest.(check bool) "small product goes bdd-first" true
    (bdd_first ~product_latches:24 ~levels:20);
  Alcotest.(check bool) "at the thresholds still bdd-first" true
    (bdd_first ~product_latches:Analysis.Steer.bdd_latch_limit
       ~levels:Analysis.Steer.bdd_level_limit);
  Alcotest.(check bool) "many state vars go sat-first" false
    (bdd_first ~product_latches:128 ~levels:20);
  Alcotest.(check bool) "deep logic goes sat-first" false
    (bdd_first ~product_latches:24 ~levels:200)

(* The analysis-steered portfolio stays sound and conclusive on suite
   pairs (pre-reduction + the steered k = 1 engine end to end). *)
let test_steered_portfolio_proves_suite () =
  List.iter
    (fun name ->
      let spec = suite_aig name in
      let impl =
        Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed:11 spec
      in
      let options = { Scorr.default_options with Scorr.Verify.use_analysis = true } in
      match Scorr.portfolio ~options spec impl with
      | Scorr.Equivalent _ -> ()
      | Scorr.Not_equivalent _ | Scorr.Unknown _ ->
        Alcotest.fail (name ^ ": steered portfolio failed to prove"))
    [ "ctr8"; "mod10"; "traffic"; "arb4" ]

(* --- analysis report / lint rules --------------------------------------------- *)

let test_report_json_shape () =
  let t, _, _, _, _ = mk_small () in
  let r = Analysis.report ~name:"tiny" t in
  let j = Analysis.to_json r in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " present") true
        (try
           ignore (Str.search_forward (Str.regexp_string key) j 0);
           true
         with Not_found -> false))
    [ {|"name":"tiny"|}; {|"metrics"|}; {|"reduction"|}; {|"diagnostics"|}; {|"clean":true|} ];
  let r' = Analysis.report ~reduce:false ~name:"tiny" t in
  Alcotest.(check bool) "reduction null without reduce" true
    (try
       ignore (Str.search_forward (Str.regexp_string {|"reduction":null|}) (Analysis.to_json r') 0);
       true
     with Not_found -> false)

let rules ds = List.sort_uniq compare (List.map (fun d -> d.Netlist.Diag.rule) ds)

let test_lint_analysis_rules () =
  (* a clean, irreducible circuit stays clean with the analysis rules on *)
  let ctr8 = suite_aig "ctr8" in
  Alcotest.(check (list string)) "ctr8 clean under --analysis" []
    (rules (Lint.check_aig ~analysis:true ctr8));
  (* an unobservable latch fires the warning *)
  let t = Aig.create () in
  let x = Aig.add_pi t in
  let r = Aig.add_latch t ~init:false in
  Aig.set_latch_next t r ~next:x;
  Aig.add_po t "o" x;
  Alcotest.(check (list string)) "unobservable latch fires" [ "unobservable-latch" ]
    (rules (Lint.check_aig ~analysis:true t));
  Alcotest.(check (list string)) "analysis rules are opt-in" []
    (rules (Lint.check_aig t));
  (* reducible logic fires on a circuit with a provably mergeable cone:
     (a & b) & a is a distinct node strashing keeps but FRAIG proves
     equal to a & b *)
  let t2 = Aig.create () in
  let a = Aig.add_pi t2 in
  let b = Aig.add_pi t2 in
  let g1 = Aig.mk_and t2 a b in
  let g2 = Aig.mk_and t2 g1 a in
  Aig.add_po t2 "o" g2;
  let ds = Lint.check_aig ~analysis:true t2 in
  Alcotest.(check bool) "reducible-logic fires" true
    (List.mem "reducible-logic" (rules ds))

let suite =
  [ Alcotest.test_case "metrics on a tiny aig" `Quick test_metrics_small;
    Alcotest.test_case "diagnostics clean" `Quick test_diag_clean;
    Alcotest.test_case "diagnostics findings" `Quick test_diag_findings;
    prop_reduce_preserves_semantics;
    prop_reduce_idempotent;
    prop_reduced_verdict_agrees;
    Alcotest.test_case "steering bdd-first predicate" `Quick test_steer_bdd_first;
    Alcotest.test_case "steered portfolio proves suite" `Quick
      test_steered_portfolio_proves_suite;
    Alcotest.test_case "report json shape" `Quick test_report_json_shape;
    Alcotest.test_case "analysis-backed lint rules" `Quick test_lint_analysis_rules;
  ]

let () = Alcotest.run "analysis" [ ("analysis", suite) ]
