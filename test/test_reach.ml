(* Symbolic traversal tests: exact reachability counts on known machines,
   equivalence checking on products, functional dependencies, and the
   soundness of the approximate upper bound. *)

let trans_of_netlist c =
  let a, _ = Aig.of_netlist c in
  Reach.Trans.make a

let run_reachable ?budget ?use_fundep trans =
  match (Reach.Traversal.run ?budget ?use_fundep trans).Reach.Traversal.outcome with
  | Reach.Traversal.Fixpoint r -> r
  | Reach.Traversal.Property_violation _ -> Alcotest.fail "unexpected violation"
  | Reach.Traversal.Budget_exceeded what -> Alcotest.fail ("budget: " ^ what)

let test_counter_states () =
  (* n-bit counter reaches all 2^n states *)
  List.iter
    (fun n ->
      let trans = trans_of_netlist (Circuits.Counter.binary n) in
      let reached = run_reachable trans in
      Alcotest.(check (float 0.01))
        (Printf.sprintf "%d-bit counter" n)
        (2.0 ** float_of_int n)
        (Reach.Traversal.count_states trans reached))
    [ 2; 4; 6 ]

let test_modulo_states () =
  List.iter
    (fun k ->
      let trans = trans_of_netlist (Circuits.Counter.modulo k) in
      let reached = run_reachable trans in
      Alcotest.(check (float 0.01))
        (Printf.sprintf "mod-%d counter" k)
        (float_of_int k)
        (Reach.Traversal.count_states trans reached))
    [ 3; 5; 10 ]

let test_ring_states () =
  let trans = trans_of_netlist (Circuits.Counter.ring 5) in
  let reached = run_reachable trans in
  Alcotest.(check (float 0.01)) "5-ring" 5.0 (Reach.Traversal.count_states trans reached)

let product_trans spec impl =
  let p = Scorr.Product.make spec impl in
  Reach.Trans.make p.Scorr.Product.aig

let test_product_equivalence () =
  let spec, impl = Circuits.Fig2.pair () in
  let trans = product_trans spec impl in
  match (Reach.Traversal.check_equivalence trans).Reach.Traversal.outcome with
  | Reach.Traversal.Fixpoint _ -> ()
  | _ -> Alcotest.fail "fig2 pair should be proven by traversal"

let test_product_violation () =
  let spec, _ = Aig.of_netlist (Circuits.Counter.modulo 5) in
  match Transform.Mutate.observable_mutant ~seed:4 spec with
  | None -> Alcotest.fail "no observable mutant"
  | Some (mutant, _) -> (
    let trans = product_trans spec mutant in
    match (Reach.Traversal.check_equivalence trans).Reach.Traversal.outcome with
    | Reach.Traversal.Property_violation _ -> ()
    | Reach.Traversal.Fixpoint _ -> Alcotest.fail "mutant wrongly proven"
    | Reach.Traversal.Budget_exceeded what -> Alcotest.fail ("budget: " ^ what))

let test_budget_enforced () =
  let trans = trans_of_netlist (Circuits.Counter.binary 24) in
  let budget =
    { Reach.Traversal.max_iterations = 50; max_live_nodes = max_int; max_seconds = 60.0 }
  in
  match (Reach.Traversal.run ~budget trans).Reach.Traversal.outcome with
  | Reach.Traversal.Budget_exceeded _ -> ()
  | _ -> Alcotest.fail "24-bit counter should exceed 50 iterations"

let prop_fundep_same_reachable =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"fundep traversal reaches the same set" ~count:30
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let c = Test_util.random_circuit ~n_inputs:3 ~n_latches:4 ~n_gates:15 seed in
         let a, _ = Aig.of_netlist c in
         let t1 = Reach.Trans.make a and t2 = Reach.Trans.make a in
         let r1 = run_reachable ~use_fundep:false t1 in
         let r2 = run_reachable ~use_fundep:true t2 in
         (* same manager layout, but different managers: compare by count
            and by evaluation on all states *)
         let n = Aig.num_latches a in
         let all_states_equal =
           let rec go bits =
             bits >= 1 lsl n
             ||
             let env_of t v =
               let arr = t.Reach.Trans.cs_vars in
               let rec idx i = if i >= Array.length arr then None else if arr.(i) = v then Some i else idx (i + 1) in
               match idx 0 with Some i -> bits land (1 lsl i) <> 0 | None -> false
             in
             Bdd.eval t1.Reach.Trans.m r1 (env_of t1) = Bdd.eval t2.Reach.Trans.m r2 (env_of t2) && go (bits + 1)
           in
           go 0
         in
         all_states_equal))

let prop_approx_is_upper_bound =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"approximate reach contains exact reach" ~count:30
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let c = Test_util.random_circuit ~n_inputs:3 ~n_latches:5 ~n_gates:15 seed in
         let a, _ = Aig.of_netlist c in
         let trans = Reach.Trans.make a in
         let exact = run_reachable trans in
         let approx = Reach.Approx.upper_bound ~block_size:2 trans in
         Bdd.is_false (Bdd.mk_and trans.Reach.Trans.m exact (Bdd.mk_not trans.Reach.Trans.m approx))))

let test_approx_excludes_unreachable () =
  (* mod-5 counter on 3 bits: approx with block covering all latches is
     exact, so states 5..7 are excluded *)
  let trans = trans_of_netlist (Circuits.Counter.modulo 5) in
  let approx = Reach.Approx.upper_bound ~block_size:4 trans in
  let cs = trans.Reach.Trans.cs_vars in
  let env_of bits v =
    let rec idx i = if cs.(i) = v then i else idx (i + 1) in
    bits land (1 lsl idx 0) <> 0
  in
  List.iter
    (fun bits ->
      Alcotest.(check bool)
        (Printf.sprintf "state %d excluded" bits)
        false
        (Bdd.eval trans.Reach.Trans.m approx (env_of bits)))
    [ 5; 6; 7 ];
  List.iter
    (fun bits ->
      Alcotest.(check bool) (Printf.sprintf "state %d included" bits) true
        (Bdd.eval trans.Reach.Trans.m approx (env_of bits)))
    [ 0; 1; 2; 3; 4 ]

let test_fundep_detect () =
  (* R = (a <-> b) /\ c: b is dependent on a, c is dependent (constant) *)
  let m = Bdd.create () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 and c = Bdd.var m 2 in
  let r = Bdd.mk_and m (Bdd.mk_iff m a b) c in
  let deps, compressed = Reach.Fundep.detect m r ~candidates:[ 1; 2 ] in
  Alcotest.(check int) "two dependencies" 2 (List.length deps);
  Alcotest.(check bool) "compressed to true" true (Bdd.is_true compressed);
  let rebuilt = Reach.Fundep.reconstruct m compressed deps in
  Alcotest.(check bool) "reconstruct" true (Bdd.equal rebuilt r)

let test_fundep_product_compression () =
  (* product of a circuit with itself: every impl state var is dependent *)
  let spec, _ = Aig.of_netlist (Circuits.Counter.binary 4) in
  let trans = product_trans spec spec in
  let r = run_reachable ~use_fundep:true trans in
  (* impl state variables must be functions of spec's in the reached set *)
  let impl_cs =
    Array.to_list (Array.sub trans.Reach.Trans.cs_vars 4 4)
  in
  let deps, _ = Reach.Fundep.detect trans.Reach.Trans.m r ~candidates:impl_cs in
  Alcotest.(check int) "all impl vars dependent" 4 (List.length deps)

(* --- bounded model checking -------------------------------------------------- *)

let product_aig spec impl = (Scorr.Product.make spec impl).Scorr.Product.aig

let test_bmc_equivalent_clean () =
  let spec, impl = Circuits.Fig2.pair () in
  match Reach.Bmc.check ~max_depth:12 (product_aig spec impl) with
  | Reach.Bmc.No_counterexample d -> Alcotest.(check int) "full depth" 12 d
  | Reach.Bmc.Counterexample _ -> Alcotest.fail "spurious counterexample"
  | Reach.Bmc.Budget what -> Alcotest.fail ("budget: " ^ what)

let test_bmc_finds_latch_fault () =
  (* flipping an initial value shows up at a small depth with a trace *)
  let spec, _ = Aig.of_netlist (Circuits.Counter.modulo 5) in
  let mutant = Transform.Mutate.apply spec (Transform.Mutate.Flip_latch_init 1) in
  let product = product_aig spec mutant in
  match Reach.Bmc.check ~max_depth:8 product with
  | Reach.Bmc.Counterexample cex ->
    Alcotest.(check bool) "replay confirms" true
      (Cert.Witness.refutes product (Cert.Witness.of_bmc cex));
    Alcotest.(check bool) "trace length" true (Array.length cex.Reach.Bmc.inputs = cex.depth + 1)
  | Reach.Bmc.No_counterexample _ -> Alcotest.fail "missed the fault"
  | Reach.Bmc.Budget what -> Alcotest.fail ("budget: " ^ what)

let prop_bmc_agrees_with_exhaustive =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"bmc agrees with exhaustive exploration" ~count:30
       QCheck.(pair (int_range 0 100_000) (int_range 0 100_000))
       (fun (seed1, seed2) ->
         let mk seed =
           let c = Test_util.random_circuit ~n_inputs:2 ~n_latches:3 ~n_gates:10 seed in
           let a, _ = Aig.of_netlist c in
           a
         in
         let a1 = mk seed1 and a2 = mk seed2 in
         let equal = Test_util.bounded_seq_equiv a1 a2 in
         (* 3 latches per side: every joint state is reachable within 2^6
            steps if at all; depth 70 is exhaustive for differences that
            exist *)
         match Reach.Bmc.check ~max_depth:(if equal then 12 else 70) (product_aig a1 a2) with
         | Reach.Bmc.Counterexample cex ->
           (not equal) && Cert.Witness.refutes (product_aig a1 a2) (Cert.Witness.of_bmc cex)
         | Reach.Bmc.No_counterexample _ -> equal
         | Reach.Bmc.Budget _ -> true))

(* --- plain k-induction ---------------------------------------------------------- *)

let test_induction_proves_simple () =
  (* a binary counter exposes every state bit on its outputs, so output
     equality of the self-product is 1-inductive *)
  let a, _ = Aig.of_netlist (Circuits.Counter.binary 4) in
  let p = Scorr.Product.make a a in
  match Reach.Induction.check p.Scorr.Product.aig with
  | Reach.Induction.Proved k -> Alcotest.(check bool) "small k" true (k <= 2)
  | Reach.Induction.Refuted _ -> Alcotest.fail "refuted an identity"
  | Reach.Induction.Unknown w -> Alcotest.fail ("unknown: " ^ w)

let test_induction_incomplete_on_hidden_state () =
  (* the mod-5 self-product is NOT output-inductive: an adversarial start
     state in the unreachable range (5..7 on 3 bits) keeps the outputs
     equal for arbitrarily many stalled frames and then diverges — the
     classical incompleteness of k-induction without uniqueness, and
     exactly the gap the signal-correspondence relation closes *)
  let a, _ = Aig.of_netlist (Circuits.Counter.modulo 5) in
  let p = Scorr.Product.make a a in
  (match Reach.Induction.check ~max_k:5 p.Scorr.Product.aig with
  | Reach.Induction.Unknown _ -> ()
  | Reach.Induction.Proved _ -> Alcotest.fail "unexpectedly inductive"
  | Reach.Induction.Refuted _ -> Alcotest.fail "refuted an identity");
  (* while signal correspondence proves it immediately *)
  Alcotest.(check bool) "scorr proves it" true
    (match Scorr.check a a with Scorr.Equivalent _ -> true | _ -> false)

let test_induction_refutes_mutant () =
  let a, _ = Aig.of_netlist (Circuits.Counter.modulo 5) in
  let mutant = Transform.Mutate.apply a (Transform.Mutate.Flip_latch_init 1) in
  let p = Scorr.Product.make a mutant in
  match Reach.Induction.check p.Scorr.Product.aig with
  | Reach.Induction.Refuted cex ->
    Alcotest.(check bool) "replay" true
      (Cert.Witness.refutes p.Scorr.Product.aig (Cert.Witness.of_bmc cex))
  | Reach.Induction.Proved _ -> Alcotest.fail "proved a mutant"
  | Reach.Induction.Unknown w -> Alcotest.fail ("unknown: " ^ w)

let prop_induction_sound =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"k-induction is sound" ~count:25
       QCheck.(pair (int_range 0 100_000) (int_range 0 100_000))
       (fun (seed1, seed2) ->
         let mk seed =
           let c = Test_util.random_circuit ~n_inputs:2 ~n_latches:3 ~n_gates:10 seed in
           let a, _ = Aig.of_netlist c in
           a
         in
         let a1 = mk seed1 and a2 = mk seed2 in
         let p = Scorr.Product.make a1 a2 in
         match Reach.Induction.check ~max_k:4 p.Scorr.Product.aig with
         | Reach.Induction.Proved _ -> Test_util.bounded_seq_equiv a1 a2
         | Reach.Induction.Refuted _ -> not (Test_util.bounded_seq_equiv a1 a2)
         | Reach.Induction.Unknown _ -> true))

let suite =
  [ Alcotest.test_case "counter reachable counts" `Quick test_counter_states;
    Alcotest.test_case "modulo reachable counts" `Quick test_modulo_states;
    Alcotest.test_case "ring reachable count" `Quick test_ring_states;
    Alcotest.test_case "product equivalence" `Quick test_product_equivalence;
    Alcotest.test_case "product violation" `Quick test_product_violation;
    Alcotest.test_case "budget enforced" `Quick test_budget_enforced;
    Alcotest.test_case "fundep detect" `Quick test_fundep_detect;
    Alcotest.test_case "fundep product compression" `Quick test_fundep_product_compression;
    Alcotest.test_case "approx excludes unreachable" `Quick test_approx_excludes_unreachable;
    Alcotest.test_case "bmc clean on equivalent pair" `Quick test_bmc_equivalent_clean;
    Alcotest.test_case "bmc finds latch fault" `Quick test_bmc_finds_latch_fault;
    prop_bmc_agrees_with_exhaustive;
    Alcotest.test_case "induction proves identity" `Quick test_induction_proves_simple;
    Alcotest.test_case "induction incomplete on hidden state" `Quick
      test_induction_incomplete_on_hidden_state;
    Alcotest.test_case "induction refutes mutant" `Quick test_induction_refutes_mutant;
    prop_induction_sound;
    prop_fundep_same_reachable;
    prop_approx_is_upper_bound;
  ]

let () = Alcotest.run "reach" [ ("reach", suite) ]
