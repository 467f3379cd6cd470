(* The per-class engine dispatcher of speculative reduction: routing
   thresholds, cost-model overrides, exhaustion fallbacks.  The routing
   rule is pure policy — exercised here directly through [Dispatch.route]
   on a tiny product — while the end-to-end fallback (a preferred engine
   whose budget is exhausted mid-round) is checked against the plain
   sweep at the [Verify] level: budgets may move obligations between
   engines, never change the fixed point. *)

let product_of seed =
  let c = Test_util.random_circuit ~n_inputs:3 ~n_latches:4 ~n_gates:18 seed in
  let a, _ = Aig.of_netlist c in
  let a' = Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed a in
  Scorr.Product.make a a'

let make_dispatch ?(prefer = Scorr.Dispatch.Bdd) ?config () =
  let product = product_of 42 in
  let config =
    match config with
    | Some c -> c
    | None -> Scorr.Dispatch.default_config ~prefer
  in
  let pool = Scorr.Simpool.create product.Scorr.Product.aig in
  Scorr.Dispatch.create ~config ~product ~pool ~deadline:Scorr.Deadline.none ()

let check_route d ~what ~cls ~cone ~level expected =
  Alcotest.(check string)
    what
    (Scorr.Dispatch.engine_name expected)
    (Scorr.Dispatch.engine_name (Scorr.Dispatch.route d ~cls ~cone ~level))

(* --- static thresholds ------------------------------------------------------- *)

let test_sim_screens_first () =
  (* a class that never survived a screen goes to simulation while
     certified walk states exist (the initial state always does) *)
  let d = make_dispatch () in
  check_route d ~what:"fresh class simulates" ~cls:7 ~cone:10 ~level:3 Scorr.Dispatch.Sim;
  Scorr.Dispatch.mark_sim_survivor d ~cls:7;
  Alcotest.(check bool) "marked" true (Scorr.Dispatch.sim_survivor d ~cls:7);
  check_route d ~what:"survivor escalates" ~cls:7 ~cone:10 ~level:3 Scorr.Dispatch.Bdd

let test_bdd_threshold_boundaries () =
  let cfg = Scorr.Dispatch.default_config ~prefer:Scorr.Dispatch.Bdd in
  let d = make_dispatch ~config:cfg () in
  let cone_max = cfg.Scorr.Dispatch.bdd_cone_limit in
  let level_max = cfg.Scorr.Dispatch.bdd_level_limit in
  Scorr.Dispatch.mark_sim_survivor d ~cls:1;
  check_route d ~what:"at both limits -> bdd" ~cls:1 ~cone:cone_max ~level:level_max
    Scorr.Dispatch.Bdd;
  check_route d ~what:"cone past limit -> sat" ~cls:1 ~cone:(cone_max + 1)
    ~level:level_max Scorr.Dispatch.Sat;
  check_route d ~what:"level past limit -> sat" ~cls:1 ~cone:cone_max
    ~level:(level_max + 1) Scorr.Dispatch.Sat

let test_sat_preference_shrinks_bdd_region () =
  (* a SAT-preferring run still sends small shallow cones to BDD, but the
     thresholds shrink to a quarter of the cone / half of the level *)
  let cfg = Scorr.Dispatch.default_config ~prefer:Scorr.Dispatch.Sat in
  let d = make_dispatch ~config:cfg () in
  let cone_max = cfg.Scorr.Dispatch.bdd_cone_limit / 4 in
  let level_max = cfg.Scorr.Dispatch.bdd_level_limit / 2 in
  Scorr.Dispatch.mark_sim_survivor d ~cls:1;
  check_route d ~what:"small cone -> bdd despite sat preference" ~cls:1 ~cone:cone_max
    ~level:level_max Scorr.Dispatch.Bdd;
  check_route d ~what:"past shrunk cone limit -> sat" ~cls:1 ~cone:(cone_max + 1)
    ~level:level_max Scorr.Dispatch.Sat;
  check_route d ~what:"past shrunk level limit -> sat" ~cls:1 ~cone:cone_max
    ~level:(level_max + 1) Scorr.Dispatch.Sat

(* --- cost model ---------------------------------------------------------------- *)

let test_cost_model_overrides_static () =
  (* once both engines have data on a class, the cheaper EMA wins over
     the static default, in either direction *)
  let d = make_dispatch ~prefer:Scorr.Dispatch.Bdd () in
  Scorr.Dispatch.mark_sim_survivor d ~cls:3;
  Scorr.Dispatch.observe d ~cls:3 ~engine:Scorr.Dispatch.Bdd 2.0;
  Scorr.Dispatch.observe d ~cls:3 ~engine:Scorr.Dispatch.Sat 0.01;
  check_route d ~what:"cheap sat beats static bdd" ~cls:3 ~cone:10 ~level:3
    Scorr.Dispatch.Sat;
  Scorr.Dispatch.mark_sim_survivor d ~cls:4;
  Scorr.Dispatch.observe d ~cls:4 ~engine:Scorr.Dispatch.Bdd 0.01;
  Scorr.Dispatch.observe d ~cls:4 ~engine:Scorr.Dispatch.Sat 2.0;
  check_route d ~what:"cheap bdd beats big cone" ~cls:4 ~cone:1_000_000 ~level:500
    Scorr.Dispatch.Bdd

let test_cost_model_ema () =
  (* estimate' = alpha*sample + (1-alpha)*estimate, alpha = 0.5 *)
  let open Analysis.Steer in
  let c = Cost.create () in
  Alcotest.(check (option (float 1e-9)))
    "no data" None
    (Cost.estimate c ~cls:0 ~engine:Bdd);
  Cost.observe c ~cls:0 ~engine:Bdd 1.0;
  Alcotest.(check (option (float 1e-9)))
    "first sample taken verbatim" (Some 1.0)
    (Cost.estimate c ~cls:0 ~engine:Bdd);
  Cost.observe c ~cls:0 ~engine:Bdd 3.0;
  Alcotest.(check (option (float 1e-9)))
    "EMA halves toward the sample" (Some 2.0)
    (Cost.estimate c ~cls:0 ~engine:Bdd);
  Alcotest.(check (option (float 1e-9)))
    "keys are per (class, engine)" None
    (Cost.estimate c ~cls:0 ~engine:Sat)

(* --- exhaustion fallback -------------------------------------------------------- *)

let test_ban_falls_back_to_sat () =
  (* a banned engine never routes again for that class; SAT, the
     fallback terminus, is never banned *)
  let d = make_dispatch ~prefer:Scorr.Dispatch.Bdd () in
  Scorr.Dispatch.mark_sim_survivor d ~cls:5;
  check_route d ~what:"small cone -> bdd" ~cls:5 ~cone:10 ~level:3 Scorr.Dispatch.Bdd;
  Scorr.Dispatch.ban d ~cls:5 ~engine:Scorr.Dispatch.Bdd;
  check_route d ~what:"banned bdd -> sat" ~cls:5 ~cone:10 ~level:3 Scorr.Dispatch.Sat;
  (* the ban is per class: a sibling still routes to BDD *)
  Scorr.Dispatch.mark_sim_survivor d ~cls:6;
  check_route d ~what:"sibling class unaffected" ~cls:6 ~cone:10 ~level:3
    Scorr.Dispatch.Bdd;
  (* a favorable EMA cannot resurrect a banned engine *)
  Scorr.Dispatch.observe d ~cls:5 ~engine:Scorr.Dispatch.Bdd 0.001;
  Scorr.Dispatch.observe d ~cls:5 ~engine:Scorr.Dispatch.Sat 9.0;
  check_route d ~what:"ban is sticky" ~cls:5 ~cone:10 ~level:3 Scorr.Dispatch.Sat

let test_sim_ban_is_survivor_mark () =
  let d = make_dispatch () in
  Scorr.Dispatch.ban d ~cls:9 ~engine:Scorr.Dispatch.Sim;
  Alcotest.(check bool) "sim ban marks survivor" true (Scorr.Dispatch.sim_survivor d ~cls:9)

let test_exhausted_bdd_budget_preserves_fixpoint () =
  (* end to end: a BDD node budget too small for any obligation forces
     every discharge through the SAT fallback mid-round, and the
     speculative fixed point still matches the plain sweep *)
  let c = Test_util.random_circuit ~n_inputs:3 ~n_latches:4 ~n_gates:18 7 in
  let a, _ = Aig.of_netlist c in
  let a' = Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed:7 a in
  let run spec =
    Scorr.Verify.run_with_relation
      ~options:{ Scorr.default_options with Scorr.Verify.node_limit = 2; use_speculation = spec }
      a a'
  in
  let classes = function
    | _, _, Some p ->
      Some
        (List.sort compare
           (List.map
              (fun cls -> List.sort compare (Scorr.Partition.members p cls))
              (Scorr.Partition.multi_member_classes p)))
    | _, _, None -> None
  in
  let ((vs, _, _) as rs) = run true and ((vp, _, _) as rp) = run false in
  Alcotest.(check bool)
    "same verdict under starved bdd budget" true
    ((match vs with Scorr.Equivalent _ -> 0 | Scorr.Not_equivalent _ -> 1 | Scorr.Unknown _ -> 2)
    = (match vp with Scorr.Equivalent _ -> 0 | Scorr.Not_equivalent _ -> 1 | Scorr.Unknown _ -> 2));
  Alcotest.(check bool) "same partition" true (classes rs = classes rp)

(* The cost model is charged in work units, so at one job a speculative
   run's routing, and every work counter with it, repeats exactly. *)
let test_speculative_counters_repeat () =
  let spec = Circuits.Suite.aig_of (Option.get (Circuits.Suite.find "ctr8")) in
  let impl = Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_only ~seed:7 spec in
  let options = { Scorr.default_options with Scorr.Verify.use_speculation = true; jobs = 1 } in
  let work () =
    let s = Scorr.verdict_stats (Scorr.check ~options spec impl) in
    Scorr.Verify.
      [ s.iterations; s.spec_rounds; s.spec_merges; s.refuted_assumptions; s.spec_by_bdd;
        s.spec_by_sat; s.sat_calls; s.conflicts; s.propagations ]
  in
  let first = work () in
  Alcotest.(check bool) "speculation ran" true (List.nth first 1 > 0);
  Alcotest.(check (list int)) "same work counters" first (work ())

let suite =
  [
    Alcotest.test_case "sim screens first" `Quick test_sim_screens_first;
    Alcotest.test_case "bdd threshold boundaries" `Quick test_bdd_threshold_boundaries;
    Alcotest.test_case "sat preference shrinks bdd region" `Quick
      test_sat_preference_shrinks_bdd_region;
    Alcotest.test_case "cost model overrides static route" `Quick
      test_cost_model_overrides_static;
    Alcotest.test_case "cost model EMA" `Quick test_cost_model_ema;
    Alcotest.test_case "ban falls back to sat" `Quick test_ban_falls_back_to_sat;
    Alcotest.test_case "sim ban marks survivor" `Quick test_sim_ban_is_survivor_mark;
    Alcotest.test_case "exhausted bdd budget preserves fixpoint" `Quick
      test_exhausted_bdd_budget_preserves_fixpoint;
    Alcotest.test_case "speculative counters repeat at one job" `Quick
      test_speculative_counters_repeat;
  ]

let () = Alcotest.run "dispatch" [ ("dispatch", suite) ]
