(* The BDD screen of speculative reduction: a class whose check blew the
   node budget is banned from the screen and left to the SAT sweep, a
   starved screen leaves the fixed point alone, and the sweep behind the
   screen is [Engine_sat]'s own, core pruning included. *)

let small_pair seed =
  let c = Test_util.random_circuit ~n_inputs:3 ~n_latches:3 ~n_gates:14 seed in
  let a, _ = Aig.of_netlist c in
  (a, Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed a)

let sorted_classes p =
  List.sort compare
    (List.map
       (fun cls -> List.sort compare (Scorr.Partition.members p cls))
       (Scorr.Partition.multi_member_classes p))

(* --- exhaustion fallback -------------------------------------------------------- *)

let test_ban_falls_back_to_sat () =
  let a, a' = small_pair 0 in
  let product = Scorr.Product.make a a' in
  let aig = product.Scorr.Product.aig in
  let partition =
    Scorr.Partition.create ~n_nodes:(Aig.num_nodes aig)
      ~candidates:(Scorr.Product.candidate_nodes product)
      ~pol:(Scorr.Product.reference_values ~seed:1 product)
  in
  ignore (Scorr.Simseed.refine ~seed:1 product partition);
  let ctx = Scorr.Engine_sat.make product in
  Scorr.Engine_sat.refine_initial ctx partition;
  let screen node_limit =
    Scorr.Specreduce.screen_create ~node_limit
      ~latch_order:(Array.init (Aig.num_latches aig) Fun.id)
      ~deadline:Scorr.Deadline.none
  in
  (* with an ample budget the screen proves the class of the first
     obligation outright *)
  let first = (Scorr.Specreduce.build product partition).Scorr.Specreduce.obligations.(0) in
  let cls = first.Scorr.Specreduce.ob_class in
  Alcotest.(check bool)
    "an ample screen proves the class" true
    (List.mem cls (Scorr.Specreduce.screen (screen 1_000_000) product partition));
  (* a budget of no nodes blows on that first check: the class is banned
     and left to the sweep *)
  let starved = screen 0 in
  Alcotest.(check bool)
    "a blown check proves nothing" false
    (List.mem cls (Scorr.Specreduce.screen starved product partition));
  Alcotest.(check (list int))
    "the class is banned" [ cls ]
    (List.of_seq (Hashtbl.to_seq_keys starved.Scorr.Specreduce.banned));
  (* the ban outlives the budget: the same screen with an ample budget
     no longer checks the class *)
  let relieved = { starved with Scorr.Specreduce.node_limit = 1_000_000 } in
  let members = List.sort compare (Scorr.Partition.members partition cls) in
  let proven = Scorr.Specreduce.screen relieved product partition in
  Alcotest.(check bool) "a banned class is not screened again" false (List.mem cls proven);
  (* the sweep proves it: the screened fixed point is the oracle's, and
     the banned class's members stay together *)
  Scorr.Engine_sat.mark_proved ctx partition proven;
  while Scorr.Engine_sat.refine_once ctx partition do
    Scorr.Engine_sat.mark_proved ctx partition
      (Scorr.Specreduce.screen relieved product partition)
  done;
  Alcotest.(check (list (list int)))
    "the oracle's classes"
    (List.map (List.map fst) (Test_util.scorr_gfp ~k:1 product))
    (sorted_classes partition);
  Alcotest.(check bool)
    "the banned class was proved by the sweep" true
    (List.exists (fun c -> List.sort compare (Scorr.Partition.members partition c) = members)
       (Scorr.Partition.multi_member_classes partition))

let test_exhausted_bdd_budget_preserves_fixpoint () =
  (* end to end: a BDD node budget too small for any obligation leaves
     every class to the sweep, and the speculative fixed point still
     matches a plain run of the engine speculation uses, SAT at k = 1 *)
  let c = Test_util.random_circuit ~n_inputs:3 ~n_latches:4 ~n_gates:18 7 in
  let a, _ = Aig.of_netlist c in
  let a' = Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed:7 a in
  let run options =
    Scorr.Verify.run_with_relation ~options:{ options with Scorr.Verify.node_limit = 2 } a a'
  in
  let classes = function _, _, Some p -> Some (sorted_classes p) | _, _, None -> None in
  let kind = function
    | Scorr.Equivalent _ -> 0
    | Scorr.Not_equivalent _ -> 1
    | Scorr.Unknown _ -> 2
  in
  let ((vs, _, _) as rs) = run { Scorr.default_options with Scorr.Verify.use_speculation = true }
  and ((vp, _, _) as rp) =
    run
      { Scorr.default_options with
        Scorr.Verify.engine = Scorr.Verify.Sat_engine;
        sat_unroll = 1;
        use_speculation = false
      }
  in
  Alcotest.(check int) "same verdict under starved bdd budget" (kind vp) (kind vs);
  Alcotest.(check bool) "same partition" true (classes rs = classes rp)

(* At induction depth 2 a two-frame BDD counterexample shows only that
   the obligation fails one step after a Q-state; the run it needs must
   satisfy Q on two frames.  Refuting on it split a pair of this machine
   that the plain depth-2 sweep (and the explicit-state oracle) keeps
   together. *)
let test_bdd_route_respects_depth () =
  let seed = 411801 in
  let a, _ =
    Aig.of_netlist (Test_util.random_circuit ~n_inputs:3 ~n_latches:3 ~n_gates:14 seed)
  in
  let a' = Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed a in
  let run use_speculation =
    Scorr.Verify.run_with_relation
      ~options:
        { Scorr.default_options with
          Scorr.Verify.engine = Scorr.Verify.Sat_engine;
          sat_unroll = 2;
          use_speculation;
          use_retime = false;
          use_sim_seed = false;
          use_ternary_seed = false;
          jobs = 1
        }
      a a'
  in
  let classes = function
    | _, _, Some p ->
      List.sort compare
        (List.map
           (fun cls -> List.sort compare (Scorr.Partition.members p cls))
           (Scorr.Partition.multi_member_classes p))
    | _, _, None -> []
  in
  let spec = run true and plain = run false in
  Alcotest.(check (list (list int))) "same partition at depth 2" (classes plain) (classes spec);
  let _, product, _ = plain in
  Alcotest.(check (list (list int)))
    "the oracle's classes"
    (List.map (List.map fst) (Test_util.scorr_gfp ~k:2 product))
    (classes plain)

(* At one job the screen and the sweep are deterministic, so a
   speculative run's work counters repeat exactly. *)
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

(* Speculation's exact engine is the plain sweep, so its UNSAT proofs
   transfer across versions by failed-core pruning like any other run's;
   the dispatcher's private SAT lanes had no such transfer. *)
let test_speculative_core_prunes () =
  let spec = Circuits.Suite.aig_of (Option.get (Circuits.Suite.find "shift24")) in
  let impl = Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed:1 spec in
  let options =
    { Scorr.default_options with
      Scorr.Verify.engine = Scorr.Verify.Sat_engine;
      sat_unroll = 2;
      use_analysis = true;
      use_speculation = true
    }
  in
  let s = Scorr.verdict_stats (Scorr.check ~options spec impl) in
  Alcotest.(check bool) "speculation ran" true (s.Scorr.Verify.spec_rounds > 0);
  Alcotest.(check bool) "core prunes" true (s.Scorr.Verify.core_prunes > 0)

let suite =
  [
    Alcotest.test_case "ban falls back to sat" `Quick test_ban_falls_back_to_sat;
    Alcotest.test_case "exhausted bdd budget preserves fixpoint" `Quick
      test_exhausted_bdd_budget_preserves_fixpoint;
    Alcotest.test_case "bdd route respects the induction depth" `Quick
      test_bdd_route_respects_depth;
    Alcotest.test_case "speculative counters repeat at one job" `Quick
      test_speculative_counters_repeat;
    Alcotest.test_case "speculation prunes by failed cores" `Quick test_speculative_core_prunes;
  ]

let () = Alcotest.run "dispatch" [ ("dispatch", suite) ]
