(* Transformation tests: every synthesis pass must preserve sequential
   behaviour; fault injection must not. *)

let aig_of_seed ?n_gates seed =
  let c = Test_util.random_circuit ?n_gates seed in
  let a, _ = Aig.of_netlist c in
  a

let check_preserved name transform =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:60
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let a = aig_of_seed seed in
         let a' = transform seed a in
         Aig.validate a' = Ok ()
         && Aig.num_pis a' = Aig.num_pis a
         && Test_util.aig_seq_differ a a' = None))

let prop_forward_retime = check_preserved "forward retiming preserves behaviour"
    (fun _ a -> Transform.Retime.forward ~max_steps:3 a)

let prop_backward_retime = check_preserved "backward retiming preserves behaviour"
    (fun _ a -> Transform.Retime.backward ~max_steps:2 a)

let prop_retime_roundtrip = check_preserved "fwd+bwd retiming preserves behaviour"
    (fun _ a -> Transform.Retime.forward (Transform.Retime.backward a))

let prop_rewrite = check_preserved "cut rewriting preserves behaviour"
    (fun seed a -> Transform.Opt.rewrite ~seed a)

let prop_latch_sweep = check_preserved "latch sweeping preserves behaviour"
    (fun _ a -> Transform.Opt.latch_sweep a)

let prop_dedup = check_preserved "latch dedup preserves behaviour"
    (fun _ a -> Transform.Opt.dedup_latches a)

let prop_fraig = check_preserved "fraig sweeping preserves behaviour"
    (fun seed a -> fst (Transform.Fraig.sweep ~seed a))

(* every merge the sweep applies is recorded as an obligation, and the
   independent checker of the analysis library re-proves each one on the
   original circuit with a fresh solver *)
let prop_fraig_obligations =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"fraig obligations replay independently" ~count:60
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let a = aig_of_seed seed in
         let _, stats = Transform.Fraig.sweep ~seed a in
         List.length stats.Transform.Fraig.obligations = stats.Transform.Fraig.merged
         && Analysis.Reduce.check_obligations a stats.Transform.Fraig.obligations = []))

let prop_pipeline = check_preserved "full synthesis pipeline preserves behaviour"
    (fun seed a ->
      let a = Transform.Retime.forward ~max_steps:2 a in
      let a = Transform.Opt.rewrite ~seed a in
      let a = fst (Transform.Fraig.sweep ~seed a) in
      Transform.Opt.latch_sweep a)

(* small exact check: forward retiming verified against exhaustive product
   exploration on tiny circuits *)
let prop_retime_exact =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"forward retiming exact on tiny circuits" ~count:25
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let c = Test_util.random_circuit ~n_inputs:2 ~n_latches:3 ~n_gates:10 seed in
         let a, _ = Aig.of_netlist c in
         let a' = Transform.Retime.forward ~max_steps:2 a in
         Test_util.bounded_seq_equiv a a'))

let test_forward_moves_registers () =
  (* two latches feeding one AND: forward retiming should apply *)
  let a = Aig.create () in
  let x = Aig.add_pi a in
  let q1 = Aig.add_latch a ~init:true in
  let q2 = Aig.add_latch a ~init:false in
  Aig.set_latch_next a q1 ~next:x;
  Aig.set_latch_next a q2 ~next:(Aig.lit_not x) ;
  Aig.add_po a "o" (Aig.mk_and a q1 q2);
  match Transform.Retime.forward_step a with
  | None -> Alcotest.fail "expected a retiming move"
  | Some a' ->
    Alcotest.(check int) "one latch remains" 1 (Aig.num_latches a');
    Alcotest.(check (option int)) "behaviour" None (Test_util.aig_seq_differ a a')

let test_latch_sweep_removes_stuck () =
  (* q0 stuck at 0 (next = q0 & x with init false... use next = q0) *)
  let a = Aig.create () in
  let x = Aig.add_pi a in
  let q0 = Aig.add_latch a ~init:false in
  Aig.set_latch_next a q0 ~next:q0;
  let q1 = Aig.add_latch a ~init:false in
  Aig.set_latch_next a q1 ~next:(Aig.mk_xor a q1 x);
  Aig.add_po a "o" (Aig.mk_or a q0 q1);
  let a' = Transform.Opt.latch_sweep a in
  Alcotest.(check int) "stuck latch removed" 1 (Aig.num_latches a');
  Alcotest.(check (option int)) "behaviour" None (Test_util.aig_seq_differ a a')

let test_dedup_merges () =
  let a = Aig.create () in
  let x = Aig.add_pi a in
  let q1 = Aig.add_latch a ~init:false in
  let q2 = Aig.add_latch a ~init:false in
  Aig.set_latch_next a q1 ~next:x;
  Aig.set_latch_next a q2 ~next:x;
  Aig.add_po a "o" (Aig.mk_and a q1 q2);
  let a' = Transform.Opt.dedup_latches a in
  Alcotest.(check int) "merged" 1 (Aig.num_latches a');
  Alcotest.(check (option int)) "behaviour" None (Test_util.aig_seq_differ a a')

let test_fraig_reduces_redundancy () =
  (* build f twice with different structure: fraig should share them *)
  let a = Aig.create () in
  let x = Aig.add_pi a and y = Aig.add_pi a and z = Aig.add_pi a in
  let f1 = Aig.mk_and a x (Aig.mk_and a y z) in
  let f2 = Aig.mk_and a (Aig.mk_and a x y) z in
  Aig.add_po a "o" (Aig.mk_xor a f1 f2);
  (* o is constant false but the structure does not show it *)
  let a', stats = Transform.Fraig.sweep a in
  Alcotest.(check bool) "something merged" true (stats.Transform.Fraig.merged > 0);
  Alcotest.(check (list (pair int int))) "obligations replay" []
    (Analysis.Reduce.check_obligations a stats.Transform.Fraig.obligations);
  Alcotest.(check bool) "output folded to constant" true
    (List.for_all (fun (_, l) -> l = Aig.lit_false) (Aig.pos a'));
  Alcotest.(check (option int)) "behaviour" None (Test_util.aig_seq_differ a a')

let test_backward_justifies_init () =
  (* latch with init 1 whose next is an AND: the split latches' inits must
     multiply back to 1, i.e. both start at 1 *)
  let a = Aig.create () in
  let x = Aig.add_pi a and y = Aig.add_pi a in
  let q = Aig.add_latch a ~init:true in
  Aig.set_latch_next a q ~next:(Aig.mk_and a x y);
  Aig.add_po a "o" q;
  (match Transform.Retime.backward_step a with
  | None -> Alcotest.fail "expected a backward move"
  | Some a' ->
    Alcotest.(check int) "two latches" 2 (Aig.num_latches a');
    Alcotest.(check bool) "both inits 1" true
      (Aig.latch_init a' 0 && Aig.latch_init a' 1);
    Alcotest.(check (option int)) "behaviour" None (Test_util.aig_seq_differ a a'));
  (* and with init 0: a 0/0 preimage *)
  let b = Aig.create () in
  let x = Aig.add_pi b and y = Aig.add_pi b in
  let q = Aig.add_latch b ~init:false in
  Aig.set_latch_next b q ~next:(Aig.mk_and b x y);
  Aig.add_po b "o" q;
  match Transform.Retime.backward_step b with
  | None -> Alcotest.fail "expected a backward move"
  | Some b' ->
    Alcotest.(check bool) "both inits 0" true
      ((not (Aig.latch_init b' 0)) && not (Aig.latch_init b' 1));
    Alcotest.(check (option int)) "behaviour" None (Test_util.aig_seq_differ b b')

let test_backward_complemented_next () =
  (* next-state is a complemented AND: out = NAND of the split latches *)
  let a = Aig.create () in
  let x = Aig.add_pi a and y = Aig.add_pi a in
  let q = Aig.add_latch a ~init:true in
  Aig.set_latch_next a q ~next:(Aig.lit_not (Aig.mk_and a x y));
  Aig.add_po a "o" q;
  match Transform.Retime.backward_step a with
  | None -> Alcotest.fail "expected a backward move"
  | Some a' ->
    Alcotest.(check (option int)) "behaviour" None (Test_util.aig_seq_differ a a');
    Alcotest.(check bool) "exact" true (Test_util.bounded_seq_equiv a a')

let prop_mutants_differ =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"observable mutants really differ" ~count:40
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let a = aig_of_seed seed in
         match Transform.Mutate.observable_mutant ~seed a with
         | None -> QCheck.assume_fail ()
         | Some (mutant, _) -> Test_util.aig_seq_differ a mutant <> None))

let suite =
  [ Alcotest.test_case "forward moves registers" `Quick test_forward_moves_registers;
    Alcotest.test_case "latch sweep removes stuck" `Quick test_latch_sweep_removes_stuck;
    Alcotest.test_case "dedup merges" `Quick test_dedup_merges;
    Alcotest.test_case "fraig reduces redundancy" `Quick test_fraig_reduces_redundancy;
    Alcotest.test_case "backward init justification" `Quick test_backward_justifies_init;
    Alcotest.test_case "backward complemented next" `Quick test_backward_complemented_next;
    prop_forward_retime;
    prop_backward_retime;
    prop_retime_roundtrip;
    prop_rewrite;
    prop_latch_sweep;
    prop_dedup;
    prop_fraig;
    prop_fraig_obligations;
    prop_pipeline;
    prop_retime_exact;
    prop_mutants_differ;
  ]

let () = Alcotest.run "transform" [ ("transform", suite) ]
