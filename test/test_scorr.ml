(* Signal-correspondence checker tests: the paper's method must prove
   every behaviour-preserving transformation of the library, must never
   claim equivalence of circuits that differ (soundness, cross-checked
   against exhaustive product-machine exploration on tiny circuits), and
   its data structures must respect the fixed-point invariants. *)

let bdd_opts = Scorr.default_options
let sat_opts = { Scorr.default_options with Scorr.Verify.engine = Scorr.Verify.Sat_engine }

let is_equiv = function Scorr.Equivalent _ -> true | Scorr.Not_equivalent _ | Scorr.Unknown _ -> false
let is_refuted = function Scorr.Not_equivalent _ -> true | Scorr.Equivalent _ | Scorr.Unknown _ -> false

let small_aig seed =
  let c = Test_util.random_circuit ~n_inputs:3 ~n_latches:4 ~n_gates:18 seed in
  let a, _ = Aig.of_netlist c in
  a

(* --- positive cases ------------------------------------------------------- *)

let test_self_equivalence () =
  List.iter
    (fun e ->
      let a = Circuits.Suite.aig_of e in
      if Aig.num_latches a <= 40 then
        Alcotest.(check bool) (e.Circuits.Suite.name ^ " self") true
          (is_equiv (Scorr.check a a)))
    (List.filteri (fun i _ -> i < 6) Circuits.Suite.suite)

let test_fig2 () =
  let spec, impl = Circuits.Fig2.pair () in
  List.iter
    (fun (name, opts) ->
      Alcotest.(check bool) name true (is_equiv (Scorr.check ~options:opts spec impl)))
    [ ("bdd", bdd_opts); ("sat", sat_opts) ]

let check_pipeline name transform =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:25
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let a = small_aig seed in
         let a' = transform seed a in
         is_equiv (Scorr.check a a') && is_equiv (Scorr.check ~options:sat_opts a a')))

let prop_rewrite_proved =
  check_pipeline "proves cut rewriting" (fun seed a -> Transform.Opt.rewrite ~seed a)

let prop_retime_fwd_proved =
  check_pipeline "proves forward retiming" (fun _ a -> Transform.Retime.forward ~max_steps:2 a)

let prop_retime_bwd_proved =
  check_pipeline "proves backward retiming" (fun _ a -> Transform.Retime.backward ~max_steps:1 a)

(* The full pipeline can retime past what depth-1 correspondence closes
   (rarely: e.g. seed 68234), so the k=1 engines are only required to be
   inconclusive-or-better here; the portfolio must finish the proof. *)
let prop_full_pipeline_proved =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"proves retime+rewrite+fraig+sweep" ~count:25
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let a = small_aig seed in
         let a' = Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed a in
         (not (is_refuted (Scorr.check a a')))
         && (not (is_refuted (Scorr.check ~options:sat_opts a a')))
         && is_equiv (Scorr.Verify.portfolio ~options:bdd_opts a a')))

let test_suite_retimed_proved () =
  List.iter
    (fun name ->
      match Circuits.Suite.find name with
      | None -> Alcotest.fail ("missing suite entry " ^ name)
      | Some e ->
        let spec = Circuits.Suite.aig_of e in
        let impl =
          Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_only ~seed:7 spec
        in
        Alcotest.(check bool) (name ^ " retimed") true (is_equiv (Scorr.check spec impl)))
    [ "ctr8"; "traffic"; "mod10"; "lfsr16"; "det-bin" ]

let test_reencoded_counters () =
  (* mod-k binary counter vs one-hot ring with the same phase outputs *)
  let spec, _ = Aig.of_netlist (Circuits.Counter.modulo 5) in
  let impl, _ = Aig.of_netlist (Circuits.Counter.ring 5) in
  Alcotest.(check bool) "mod5 vs ring5 (bdd)" true (is_equiv (Scorr.check spec impl));
  Alcotest.(check bool) "mod5 vs ring5 (sat)" true
    (is_equiv (Scorr.check ~options:sat_opts spec impl))

(* --- negative cases (soundness) -------------------------------------------- *)

let prop_mutants_never_proved =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"mutants are never proven equivalent" ~count:40
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let a = small_aig seed in
         match Transform.Mutate.observable_mutant ~seed a with
         | None -> QCheck.assume_fail ()
         | Some (mutant, _) ->
           (not (is_equiv (Scorr.check a mutant)))
           && not (is_equiv (Scorr.check ~options:sat_opts a mutant))))

let prop_soundness_vs_exhaustive =
  (* on tiny machines, an Equivalent verdict must agree with exhaustive
     product exploration; Not_equivalent must too *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"verdicts agree with exhaustive exploration" ~count:30
       QCheck.(pair (int_range 0 100_000) (int_range 0 100_000))
       (fun (seed1, seed2) ->
         let mk seed =
           let c = Test_util.random_circuit ~n_inputs:2 ~n_latches:3 ~n_gates:10 seed in
           let a, _ = Aig.of_netlist c in
           a
         in
         let a1 = mk seed1 and a2 = mk seed2 in
         let ground_truth = Test_util.bounded_seq_equiv a1 a2 in
         (match Scorr.check a1 a2 with
         | Scorr.Equivalent _ -> ground_truth
         | Scorr.Not_equivalent _ -> not ground_truth
         | Scorr.Unknown _ -> true)
         &&
         match Scorr.check ~options:sat_opts a1 a2 with
         | Scorr.Equivalent _ -> ground_truth
         | Scorr.Not_equivalent _ -> not ground_truth
         | Scorr.Unknown _ -> true))

let test_latch_init_fault_detected () =
  (* a flipped initial value is invisible combinationally but changes the
     sequential behaviour of a counter *)
  let spec, _ = Aig.of_netlist (Circuits.Counter.binary 4) in
  let mutant = Transform.Mutate.apply spec (Transform.Mutate.Flip_latch_init 0) in
  Alcotest.(check bool) "init fault refuted" true (is_refuted (Scorr.check spec mutant))

let test_deep_counterexample_not_proved () =
  (* two counters differing only in the carry-out of the top bit: the
     difference appears after 2^n steps, far beyond simulation; the
     checker must not claim equivalence (Unknown or refuted are fine) *)
  let spec, _ = Aig.of_netlist (Circuits.Counter.binary 10) in
  let mutant = Transform.Mutate.apply spec (Transform.Mutate.Stuck_output "carry") in
  Alcotest.(check bool) "stuck carry not proven" false (is_equiv (Scorr.check spec mutant))

(* --- invariants -------------------------------------------------------------- *)

let prop_classes_monotone =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"refinement only splits classes" ~count:25
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let a = small_aig seed in
         let a' = Transform.Opt.rewrite ~seed a in
         let product = Scorr.Product.make a a' in
         let pol = Scorr.Product.reference_values product in
         let partition =
           Scorr.Partition.create
             ~n_nodes:(Aig.num_nodes product.Scorr.Product.aig)
             ~candidates:(Scorr.Product.candidate_nodes product)
             ~pol
         in
         ignore (Scorr.Simseed.refine product partition);
         let ctx = Scorr.Engine_bdd.make product in
         Scorr.Engine_bdd.refine_initial ctx partition;
         let ok = ref true in
         let last = ref (Scorr.Partition.n_classes partition) in
         let iters = ref 0 in
         while Scorr.Engine_bdd.refine_once ctx partition do
           incr iters;
           let now = Scorr.Partition.n_classes partition in
           if now < !last then ok := false;
           last := now
         done;
         (* Theorem 2: iteration count is bounded by |F| + 1 *)
         !ok && !iters <= Aig.num_nodes product.Scorr.Product.aig + 1))

let prop_fixpoint_is_correspondence =
  (* at the fixed point, one more refinement pass must not split, and all
     class members must be pairwise equal at the initial state *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"fixed point satisfies Definition 2" ~count:20
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let a = small_aig seed in
         let product = Scorr.Product.make a a in
         let pol = Scorr.Product.reference_values product in
         let partition =
           Scorr.Partition.create
             ~n_nodes:(Aig.num_nodes product.Scorr.Product.aig)
             ~candidates:(Scorr.Product.candidate_nodes product)
             ~pol
         in
         ignore (Scorr.Simseed.refine product partition);
         let ctx = Scorr.Engine_bdd.make product in
         Scorr.Engine_bdd.refine_initial ctx partition;
         while Scorr.Engine_bdd.refine_once ctx partition do () done;
         (* stability *)
         (not (Scorr.Engine_bdd.refine_once ctx partition))
         &&
         (* condition 1 of Definition 2: equal at s0 for all inputs *)
         List.for_all
           (fun (rep, id) ->
             Bdd.equal
               (Scorr.Engine_bdd.norm_ini ctx partition rep)
               (Scorr.Engine_bdd.norm_ini ctx partition id))
           (Scorr.Partition.constraint_pairs partition)))

(* --- k-induction (SAT unrolling extension) ---------------------------------------- *)

let sat_k k = { sat_opts with Scorr.Verify.sat_unroll = k }

let prop_k_induction_sound =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"k=2 SAT engine is sound" ~count:25
       QCheck.(pair (int_range 0 100_000) (int_range 0 100_000))
       (fun (seed1, seed2) ->
         let mk seed =
           let c = Test_util.random_circuit ~n_inputs:2 ~n_latches:3 ~n_gates:10 seed in
           let a, _ = Aig.of_netlist c in
           a
         in
         let a1 = mk seed1 and a2 = mk seed2 in
         match Scorr.check ~options:(sat_k 2) a1 a2 with
         | Scorr.Equivalent _ -> Test_util.bounded_seq_equiv a1 a2
         | Scorr.Not_equivalent _ -> not (Test_util.bounded_seq_equiv a1 a2)
         | Scorr.Unknown _ -> true))

let prop_k2_extends_k1 =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"k=2 proves whatever k=1 proves" ~count:20
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let a = small_aig seed in
         let a' = Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed a in
         (not (is_equiv (Scorr.check ~options:(sat_k 1) a a')))
         || is_equiv (Scorr.check ~options:(sat_k 2) a a')))

let test_k_induction_on_suite () =
  List.iter
    (fun name ->
      match Circuits.Suite.find name with
      | None -> ()
      | Some e ->
        let spec = Circuits.Suite.aig_of e in
        let impl =
          Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_only ~seed:5 spec
        in
        Alcotest.(check bool) (name ^ " k=2") true
          (is_equiv (Scorr.check ~options:(sat_k 2) spec impl)))
    [ "ctr8"; "traffic"; "mod10" ]

let test_portfolio_closes_k1_gaps () =
  (* crc32 retime+opt is the documented k=1-incomplete case: the portfolio
     must close it by escalating to k=2 *)
  let spec = Circuits.Suite.aig_of (Option.get (Circuits.Suite.find "crc32")) in
  let impl = Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed:11 spec in
  Alcotest.(check bool) "k=1 bdd does not prove" false
    (is_equiv (Scorr.check ~options:{ bdd_opts with Scorr.Verify.node_limit = 500_000 } spec impl));
  Alcotest.(check bool) "portfolio proves" true (is_equiv (Scorr.portfolio spec impl))

let prop_portfolio_sound =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"portfolio is sound" ~count:20
       QCheck.(pair (int_range 0 100_000) (int_range 0 100_000))
       (fun (seed1, seed2) ->
         let mk seed =
           let c = Test_util.random_circuit ~n_inputs:2 ~n_latches:3 ~n_gates:10 seed in
           let a, _ = Aig.of_netlist c in
           a
         in
         let a1 = mk seed1 and a2 = mk seed2 in
         match Scorr.portfolio a1 a2 with
         | Scorr.Equivalent _ -> Test_util.bounded_seq_equiv a1 a2
         | Scorr.Not_equivalent _ -> not (Test_util.bounded_seq_equiv a1 a2)
         | Scorr.Unknown _ -> true))

(* --- engine agreement ---------------------------------------------------------- *)

let prop_engines_agree =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"bdd and sat engines give the same verdict" ~count:20
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let a = small_aig seed in
         let a' = Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed a in
         is_equiv (Scorr.check a a') = is_equiv (Scorr.check ~options:sat_opts a a')))

let prop_engines_compute_same_relation =
  (* Theorem 2: the maximum signal correspondence relation is unique, so
     both engines — BDD refinement and SAT with counterexample-driven bulk
     splits (a different chaotic iteration order) — must converge to the
     same partition *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"bdd and sat engines reach the same fixed point" ~count:15
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let a = small_aig seed in
         let a' = Transform.Opt.rewrite ~seed a in
         let relation opts =
           match Scorr.Verify.run_with_relation ~options:opts a a' with
           | Scorr.Equivalent _, _, Some p -> Some p
           | _ -> None
         in
         let no_retime o = { o with Scorr.Verify.use_retime = false } in
         match (relation (no_retime bdd_opts), relation (no_retime sat_opts)) with
         | Some pb, Some ps ->
           Scorr.Partition.n_classes pb = Scorr.Partition.n_classes ps
           && List.sort compare
                (List.map (List.sort compare)
                   (List.map (Scorr.Partition.members pb)
                      (Scorr.Partition.multi_member_classes pb)))
              = List.sort compare
                  (List.map (List.sort compare)
                     (List.map (Scorr.Partition.members ps)
                        (Scorr.Partition.multi_member_classes ps)))
         | _ -> true))

(* The mode matrix: every surviving combination of engine, induction
   depth, speculation, static analysis and worker count computes the one
   greatest fixed point of Eq. (3).  Each run that reached a fixed point
   must match the explicit-state oracle class for class, relative
   polarities included, and every conclusive verdict must match
   exhaustive exploration.  Retiming is off, so the relation lives over
   the product as built (of the pre-reduced circuits when speculation
   and analysis are both on).  Seeding is off: on machines this small,
   simulation alone reaches the fixed point, and Eq. (3) would have
   nothing left to split.  The machines mix retimed pairs, rewrites,
   and mutants that may or may not be observable; a retiming that leaves
   more than 12 product latches falls back to a rewrite, so the oracle
   enumerates at most 2^15 points. *)
let matrix_pair seed =
  let c = Test_util.random_circuit ~n_inputs:3 ~n_latches:3 ~n_gates:14 seed in
  let a, _ = Aig.of_netlist c in
  let small r = Aig.num_latches a + Aig.num_latches r <= 12 in
  let retimed recipe =
    let r = Circuits.Suite.implementation ~recipe ~seed a in
    if small r then r else Transform.Opt.rewrite ~seed a
  in
  let a' =
    match seed mod 3 with
    | 0 -> retimed Circuits.Suite.Retime_opt
    | 1 -> Transform.Opt.rewrite ~seed a
    | _ -> (
      let r = retimed Circuits.Suite.Retime_only in
      match Transform.Mutate.pick_fault ~seed r with
      | Some f -> Transform.Mutate.apply r f
      | None -> r)
  in
  (a, a')

let canonical_classes p =
  List.sort compare
    (List.map
       (fun c ->
         match List.sort compare (Scorr.Partition.members p c) with
         | [] -> []
         | first :: _ as ids ->
           List.map
             (fun id -> (id, Scorr.Partition.polarity p id <> Scorr.Partition.polarity p first))
             ids)
       (Scorr.Partition.multi_member_classes p))

let mode_matrix_ok seed ~use_sat ~k ~use_speculation ~use_analysis ~jobs =
  let a, a' = matrix_pair seed in
  let options =
    {
      Scorr.default_options with
      Scorr.Verify.engine = (if use_sat then Scorr.Verify.Sat_engine else Scorr.Verify.Bdd_engine);
      sat_unroll = k;
      use_speculation;
      use_analysis;
      jobs;
      use_retime = false;
      use_sim_seed = false;
      use_ternary_seed = false;
    }
  in
  let verdict, product, relation = Scorr.Verify.run_with_relation ~options a a' in
  let fixpoint_ok =
    match (verdict, relation) with
    | (Scorr.Equivalent _ | Scorr.Unknown { Scorr.Verify.exhausted = None; _ }), Some p ->
      canonical_classes p = Test_util.scorr_gfp ~k:(if use_sat then k else 1) product
    | _ -> true
  in
  let verdict_ok =
    match verdict with
    | Scorr.Equivalent _ -> Test_util.bounded_seq_equiv a a'
    | Scorr.Not_equivalent _ -> not (Test_util.bounded_seq_equiv a a')
    | Scorr.Unknown _ -> true
  in
  fixpoint_ok && verdict_ok

let prop_mode_matrix =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"all modes reach the oracle fixed point" ~count:120
       QCheck.(
         pair (int_range 0 100_000) (quad bool (int_range 1 2) (pair bool bool) (int_range 1 2)))
       (fun (seed, (use_sat, k, (use_speculation, use_analysis), jobs)) ->
         mode_matrix_ok seed ~use_sat ~k ~use_speculation ~use_analysis ~jobs))

let prop_incremental_sat_matrix =
  (* the SAT engine's persistent incremental lanes are its only path; this
     draws the SAT half of the matrix alone, at one and two workers, so
     the lanes' merge points are hit as often as the single-lane path *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"incremental sat matches the oracle" ~count:80
       QCheck.(
         pair (int_range 0 100_000) (triple (int_range 1 2) (pair bool bool) (int_range 1 2)))
       (fun (seed, (k, (use_speculation, use_analysis), jobs)) ->
         mode_matrix_ok seed ~use_sat:true ~k ~use_speculation ~use_analysis ~jobs))

let prop_parallel_matches_sequential =
  (* the domain-parallel scheduler freezes the partition per round, solves
     classes in worker lanes and merges the verdicts serially in canonical
     class order, so for any worker count the fixed point must be exactly
     the sequential one: same verdict, same equivalence score, same final
     partition (the greatest fixed point is unique; only the schedule of
     sound splits differs) *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"parallel sweeps reach the sequential fixed point" ~count:8
       QCheck.(pair (int_range 0 100_000) bool)
       (fun (seed, use_sat) ->
         let a = small_aig seed in
         let a' = Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed a in
         let base = if use_sat then sat_opts else bdd_opts in
         let run jobs =
           Scorr.Verify.run_with_relation ~options:{ base with Scorr.Verify.jobs } a a'
         in
         let classes = function
           | _, _, Some p ->
             Some
               (List.sort compare
                  (List.map
                     (fun c -> List.sort compare (Scorr.Partition.members p c))
                     (Scorr.Partition.multi_member_classes p)))
           | _, _, None -> None
         in
         let tag = function
           | Scorr.Equivalent _ -> 0
           | Scorr.Not_equivalent _ -> 1
           | Scorr.Unknown _ -> 2
         in
         let ((v1, _, _) as r1) = run 1 in
         List.for_all
           (fun jobs ->
             let ((v, _, _) as r) = run jobs in
             tag v = tag v1
             && (Scorr.Verify.verdict_stats v).Scorr.Verify.eq_pct
                = (Scorr.Verify.verdict_stats v1).Scorr.Verify.eq_pct
             && classes r = classes r1)
           [ 2; 4 ]))

let prop_speculation_matches_plain =
  (* speculative reduction — merge all candidates, discharge assumption
     obligations on the reduced product through the per-class dispatcher,
     refine on refutation — reaches the same greatest fixed point as the
     plain per-class sweep (the exactness lemma in specreduce.ml): under
     either engine and any worker count, verdict, equivalence score and
     final partition must match exactly.  Analysis is off so neither arm
     pre-reduces and the partitions live over the same product. *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"speculation matches plain sweeps" ~count:8
       QCheck.(pair (int_range 0 100_000) (oneofl [ `Bdd; `Sat ]))
       (fun (seed, eng) ->
         let a = small_aig seed in
         let a' = Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed a in
         let base = match eng with `Bdd -> bdd_opts | `Sat -> sat_opts in
         let run ~jobs ~spec =
           Scorr.Verify.run_with_relation
             ~options:{ base with Scorr.Verify.jobs; use_speculation = spec }
             a a'
         in
         let classes = function
           | _, _, Some p ->
             Some
               (List.sort compare
                  (List.map
                     (fun c -> List.sort compare (Scorr.Partition.members p c))
                     (Scorr.Partition.multi_member_classes p)))
           | _, _, None -> None
         in
         let tag = function
           | Scorr.Equivalent _ -> 0
           | Scorr.Not_equivalent _ -> 1
           | Scorr.Unknown _ -> 2
         in
         List.for_all
           (fun jobs ->
             let ((vs, _, _) as rs) = run ~jobs ~spec:true
             and ((vp, _, _) as rp) = run ~jobs ~spec:false in
             tag vs = tag vp
             && (Scorr.Verify.verdict_stats vs).Scorr.Verify.eq_pct
                = (Scorr.Verify.verdict_stats vp).Scorr.Verify.eq_pct
             && classes rs = classes rp)
           [ 1; 2; 4 ]))

(* --- register correspondence ----------------------------------------------------- *)

let test_regcorr_proves_comb_opt () =
  (* combinational optimization preserves registers: provable by the
     restricted method of [5]/[9] *)
  let spec, _ = Aig.of_netlist (Circuits.Counter.modulo 10) in
  let impl = Transform.Opt.rewrite ~seed:3 spec in
  Alcotest.(check bool) "regcorr proves rewrite" true
    (is_equiv (Scorr.register_correspondence spec impl))

let test_regcorr_fails_on_retiming () =
  (* the motivating gap: register correspondence cannot relate retimed
     registers, while full signal correspondence can *)
  let spec, _ = Aig.of_netlist (Circuits.Counter.binary 6) in
  let impl = Transform.Retime.backward ~max_steps:1 spec in
  let regcorr =
    Scorr.register_correspondence
      ~options:{ bdd_opts with Scorr.Verify.use_retime = false }
      spec impl
  in
  let full = Scorr.check spec impl in
  Alcotest.(check bool) "signal correspondence proves" true (is_equiv full);
  Alcotest.(check bool) "register correspondence alone does not" false (is_equiv regcorr)

let prop_regcorr_sound =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"register correspondence is sound" ~count:25
       QCheck.(pair (int_range 0 100_000) (int_range 0 100_000))
       (fun (seed1, seed2) ->
         let mk seed =
           let c = Test_util.random_circuit ~n_inputs:2 ~n_latches:3 ~n_gates:10 seed in
           let a, _ = Aig.of_netlist c in
           a
         in
         let a1 = mk seed1 and a2 = mk seed2 in
         match Scorr.register_correspondence a1 a2 with
         | Scorr.Equivalent _ -> Test_util.bounded_seq_equiv a1 a2
         | Scorr.Not_equivalent _ -> not (Test_util.bounded_seq_equiv a1 a2)
         | Scorr.Unknown _ -> true))

(* --- options / ablations ------------------------------------------------------------ *)

let test_no_simseed_still_works () =
  let spec, _ = Aig.of_netlist (Circuits.Counter.binary 6) in
  let impl = Transform.Opt.rewrite ~seed:9 spec in
  let opts = { bdd_opts with Scorr.Verify.use_sim_seed = false } in
  Alcotest.(check bool) "proved without seeding" true
    (is_equiv (Scorr.check ~options:opts spec impl))

let test_no_fundep_still_works () =
  let spec, _ = Aig.of_netlist (Circuits.Counter.binary 6) in
  let impl = Transform.Retime.backward ~max_steps:1 spec in
  let opts = { bdd_opts with Scorr.Verify.use_fundep = false } in
  Alcotest.(check bool) "proved without fundep" true
    (is_equiv (Scorr.check ~options:opts spec impl))

let test_dontcare_option () =
  let spec, _ = Aig.of_netlist (Circuits.Counter.modulo 5) in
  let impl, _ = Aig.of_netlist (Circuits.Counter.ring 5) in
  let opts = { bdd_opts with Scorr.Verify.use_reach_dontcare = true } in
  Alcotest.(check bool) "proved with reachable don't-cares" true
    (is_equiv (Scorr.check ~options:opts spec impl))

let test_retime_augmentation_adds_signals () =
  (* a gate fed by two latches must produce an augmentation signal *)
  let a = Aig.create () in
  let x = Aig.add_pi a and y = Aig.add_pi a in
  let q1 = Aig.add_latch a ~init:false and q2 = Aig.add_latch a ~init:false in
  Aig.set_latch_next a q1 ~next:x;
  Aig.set_latch_next a q2 ~next:y;
  Aig.add_po a "o" (Aig.mk_and a q1 q2);
  let p = Scorr.Product.make a a in
  let before = Aig.num_nodes p.Scorr.Product.aig in
  let added = Scorr.Retime_aug.augment p in
  Alcotest.(check bool) "signals added" true (added > 0);
  Alcotest.(check int) "node count grew" (before + added) (Aig.num_nodes p.Scorr.Product.aig);
  (* idempotent second round: the same logic is hashed, nothing new *)
  Alcotest.(check int) "second round adds nothing" 0 (Scorr.Retime_aug.augment p)

let suite =
  [ Alcotest.test_case "self equivalence" `Quick test_self_equivalence;
    Alcotest.test_case "fig2 example" `Quick test_fig2;
    Alcotest.test_case "suite retimed proved" `Quick test_suite_retimed_proved;
    Alcotest.test_case "re-encoded counters" `Quick test_reencoded_counters;
    Alcotest.test_case "latch init fault" `Quick test_latch_init_fault_detected;
    Alcotest.test_case "deep fault not proven" `Quick test_deep_counterexample_not_proved;
    Alcotest.test_case "regcorr proves comb opt" `Quick test_regcorr_proves_comb_opt;
    Alcotest.test_case "regcorr fails on retiming" `Quick test_regcorr_fails_on_retiming;
    Alcotest.test_case "works without simseed" `Quick test_no_simseed_still_works;
    Alcotest.test_case "works without fundep" `Quick test_no_fundep_still_works;
    Alcotest.test_case "reachable dontcare option" `Quick test_dontcare_option;
    Alcotest.test_case "retime augmentation" `Quick test_retime_augmentation_adds_signals;
    prop_rewrite_proved;
    prop_retime_fwd_proved;
    prop_retime_bwd_proved;
    prop_full_pipeline_proved;
    prop_mutants_never_proved;
    prop_soundness_vs_exhaustive;
    prop_classes_monotone;
    prop_fixpoint_is_correspondence;
    prop_engines_agree;
    prop_engines_compute_same_relation;
    prop_mode_matrix;
    prop_incremental_sat_matrix;
    prop_parallel_matches_sequential;
    prop_speculation_matches_plain;
    prop_regcorr_sound;
    prop_k_induction_sound;
    prop_k2_extends_k1;
    Alcotest.test_case "k-induction on suite" `Quick test_k_induction_on_suite;
    Alcotest.test_case "portfolio closes k=1 gaps" `Quick test_portfolio_closes_k1_gaps;
    prop_portfolio_sound;
  ]

let () = Alcotest.run "scorr" [ ("scorr", suite) ]
