(* Tests of the verification driver itself: the state-variable ordering
   heuristic, counterexample traces, and the relation certificate. *)

let aig_pair seed =
  let c = Test_util.random_circuit seed in
  let spec, _ = Aig.of_netlist c in
  let impl = Transform.Opt.rewrite ~seed spec in
  (spec, impl)

(* --- latch ordering ------------------------------------------------------ *)

let prop_order_is_permutation =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"latch order is a permutation" ~count:60
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let spec, impl = aig_pair seed in
         let product = Scorr.Product.make spec impl in
         let order = Scorr.Verify.latch_order_from_outputs product in
         let n = Aig.num_latches product.Scorr.Product.aig in
         Array.length order = n
         && List.sort compare (Array.to_list order) = List.init n Fun.id))

let test_order_interleaves_counter () =
  (* the self-product of a counter must interleave spec and impl bits *)
  let a, _ = Aig.of_netlist (Circuits.Counter.binary 8) in
  let product = Scorr.Product.make a a in
  let order = Scorr.Verify.latch_order_from_outputs product in
  (* positions of spec latch i and impl latch i must be adjacent-ish: the
     maximum distance between partners stays far below one full side *)
  let pos = Array.make 16 0 in
  Array.iteri (fun p i -> pos.(i) <- p) order;
  for i = 0 to 7 do
    let d = abs (pos.(i) - pos.(i + 8)) in
    Alcotest.(check bool) (Printf.sprintf "bit %d partners close (%d)" i d) true (d <= 2)
  done

(* --- counterexample traces ------------------------------------------------- *)

let replay_outputs_differ spec impl trace =
  (* feed the trace to both circuits; the outputs must differ at the last
     frame *)
  let to_words frame = Array.map (fun b -> if b then -1L else 0L) frame in
  let frames = Array.to_list (Array.map to_words trace) in
  let o1, _ = Aig.Sim.run spec frames and o2, _ = Aig.Sim.run impl frames in
  match (List.rev o1, List.rev o2) with
  | last1 :: _, last2 :: _ -> List.sort compare last1 <> List.sort compare last2
  | _ -> false

let prop_traces_replay =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"refutation traces replay to a real difference" ~count:40
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let c = Test_util.random_circuit ~n_inputs:3 ~n_latches:4 ~n_gates:18 seed in
         let spec, _ = Aig.of_netlist c in
         match Transform.Mutate.observable_mutant ~seed spec with
         | None -> QCheck.assume_fail ()
         | Some (mutant, _) -> (
           match Scorr.check spec mutant with
           | Scorr.Not_equivalent { frame; trace = Some trace; _ } ->
             Array.length trace = frame + 1 && replay_outputs_differ spec mutant trace
           | Scorr.Not_equivalent { trace = None; _ } ->
             false (* every refutation must carry a concrete trace *)
           | Scorr.Equivalent _ -> false
           | Scorr.Unknown _ -> true)))

let test_bmc_catches_post_sim_difference () =
  (* a fault beyond the default 64 presim frames but within bmc_depth:
     a latch-init flip on a latch that only matters at a specific count.
     Craft directly: out = (count == 3) on a 2-bit counter with no enable;
     mutant flips bit-1 init so outputs first differ at frame 2. *)
  let mk init1 =
    let a = Aig.create () in
    let q0 = Aig.add_latch a ~init:false in
    let q1 = Aig.add_latch a ~init:init1 in
    Aig.set_latch_next a q0 ~next:(Aig.lit_not q0);
    Aig.set_latch_next a q1 ~next:(Aig.mk_xor a q1 q0);
    Aig.add_po a "eq3" (Aig.mk_and a q0 q1);
    a
  in
  let spec = mk false and impl = mk true in
  (* no PIs: random simulation has no levers but still detects it by
     running frames; disable presim to force the BMC path *)
  let options = { Scorr.default_options with Scorr.Verify.presim_frames = 0; bmc_depth = 6 } in
  match Scorr.check ~options spec impl with
  | Scorr.Not_equivalent { frame; trace = Some _; _ } ->
    Alcotest.(check int) "first difference at frame 1" 1 frame
  | _ -> Alcotest.fail "expected a BMC refutation with a trace"

let test_initial_frame_split_has_witness () =
  (* combinationally inverted outputs with presimulation and bounded
     refutation disabled: the disproof comes from the initial-frame class
     split, which used to ship trace = None *)
  let mk invert =
    let a = Aig.create () in
    let x = Aig.add_pi a in
    Aig.add_po a "o" (if invert then Aig.lit_not x else x);
    a
  in
  let spec = mk false and impl = mk true in
  let options =
    { Scorr.default_options with Scorr.Verify.presim_frames = 0; bmc_depth = 0 }
  in
  match Scorr.check ~options spec impl with
  | Scorr.Not_equivalent { frame = 0; trace = Some trace; _ } ->
    Alcotest.(check bool) "trace replays" true (replay_outputs_differ spec impl trace)
  | Scorr.Not_equivalent { trace = None; _ } ->
    Alcotest.fail "initial-frame refutation carried no trace"
  | _ -> Alcotest.fail "expected a frame-0 refutation"

(* --- relation certificate ----------------------------------------------------- *)

let test_certificate_covers_outputs () =
  let spec, impl = Circuits.Fig2.pair () in
  match Scorr.Verify.run_with_relation spec impl with
  | Scorr.Equivalent _, product, Some partition ->
    (* each output pair must be provably equal under the relation *)
    List.iter
      (fun (name, ls, li) ->
        Alcotest.(check bool) (name ^ " pair in relation") true
          (Scorr.Partition.lits_equal partition ls li))
      product.Scorr.Product.outputs;
    (* and printing must not raise *)
    let text = Format.asprintf "%a" Scorr.Verify.pp_relation (product, partition) in
    Alcotest.(check bool) "non-empty dump" true (String.length text > 0)
  | _ -> Alcotest.fail "expected Equivalent with a relation"

let prop_certificate_relation_is_inductive =
  (* re-checking the returned relation with a fresh engine must not split
     any class: it is a genuine fixed point *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"returned relation is a fixed point" ~count:15
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let spec, impl = aig_pair seed in
         match Scorr.Verify.run_with_relation spec impl with
         | Scorr.Equivalent _, product, Some partition ->
           let ctx =
             Scorr.Engine_bdd.make
               ~latch_order:(Scorr.Verify.latch_order_from_outputs product)
               product
           in
           not (Scorr.Engine_bdd.refine_once ctx partition)
         | _ -> true))

(* --- budget-exhausted exits still carry their stats ----------------------- *)

(* Regression: Unknown verdicts produced by a blown engine budget used to
   report peak_bdd_nodes = 0 and empty phase stats because the exceptional
   exit skipped the counter harvest; the harvest now runs on every exit
   path of the per-round engine scope. *)

let budget_pair () =
  let spec = Circuits.Suite.aig_of (Option.get (Circuits.Suite.find "ctr16")) in
  let impl =
    Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed:5 spec
  in
  (spec, impl)

let test_budget_unknown_keeps_sat_stats () =
  let spec, impl = budget_pair () in
  let options =
    {
      Scorr.default_options with
      Scorr.Verify.engine = Scorr.Verify.Sat_engine;
      max_sat_calls = 3;
      use_retime = false;
    }
  in
  match Scorr.check ~options spec impl with
  | Scorr.Unknown s ->
    Alcotest.(check bool) "sat_calls harvested" true (s.Scorr.Verify.sat_calls > 0);
    Alcotest.(check bool) "phase stats harvested" true (s.phase_seconds <> [])
  | _ -> Alcotest.fail "expected Unknown under a 3-call SAT budget"

let test_budget_unknown_keeps_bdd_stats () =
  let spec, impl = budget_pair () in
  let options =
    (* low enough that the refinement sweep blows the budget, high enough
       that engine construction itself succeeds (it needs ~5k nodes);
       speculation pinned off — under it the SAT sweep is the exact
       engine and would prove the pair instead of going Unknown *)
    { Scorr.default_options with
      Scorr.Verify.node_limit = 10_000;
      use_retime = false;
      use_speculation = false
    }
  in
  match Scorr.check ~options spec impl with
  | Scorr.Unknown s ->
    Alcotest.(check bool) "peak nodes harvested" true (s.Scorr.Verify.peak_bdd_nodes > 0);
    Alcotest.(check bool) "phase stats harvested" true (s.phase_seconds <> [])
  | _ -> Alcotest.fail "expected Unknown under a 2k-node BDD budget"

(* Two ways a node budget runs out: arb4 against its retimed twin under
   700 nodes outgrows the manager's hard limit inside one BDD operation,
   between two samples of the peak; ctr8 under 300 nodes runs out while
   the engine itself is built, before any context exists to harvest.
   Either way the reported peak must exceed the budget. *)
let test_node_limit_abort_reports_peak () =
  List.iter
    (fun (name, node_limit) ->
      let spec = Circuits.Suite.aig_of (Option.get (Circuits.Suite.find name)) in
      let impl =
        Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_only ~seed:7 spec
      in
      let options =
        { Scorr.default_options with
          Scorr.Verify.engine = Scorr.Verify.Bdd_engine;
          node_limit;
          use_speculation = false
        }
      in
      match Scorr.check ~options spec impl with
      | Scorr.Unknown s ->
        Alcotest.(check (option string))
          (name ^ " exhausted") (Some "bdd nodes") s.Scorr.Verify.exhausted;
        Alcotest.(check bool)
          (Printf.sprintf "%s peak %d exceeds the budget %d" name s.peak_bdd_nodes node_limit)
          true
          (s.peak_bdd_nodes > node_limit)
      | _ -> Alcotest.failf "%s: expected Unknown under a %d-node BDD budget" name node_limit)
    [ ("arb4", 700); ("ctr8", 300) ]

(* The retired baselines and an induction depth past the bound are
   refused up front, before any circuit work. *)
let test_rejects_bad_options () =
  let spec, impl = aig_pair 1 in
  let rejects what options =
    let before = Gc.allocated_bytes () in
    (match Scorr.Verify.run ~options spec impl with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail ("accepted " ^ what));
    Alcotest.(check bool) (what ^ " allocates little") true (Gc.allocated_bytes () -. before < 1e6)
  in
  let d = Scorr.default_options in
  rejects "use_batched_sweeps = false" { d with Scorr.Verify.use_batched_sweeps = false };
  rejects "use_incremental = false" { d with Scorr.Verify.use_incremental = false };
  let sat k = { d with Scorr.Verify.engine = Scorr.Verify.Sat_engine; sat_unroll = k } in
  rejects "sat_unroll past the bound" (sat (Scorr.Verify.max_induction + 1));
  rejects "sat_unroll 4e8" (sat 400_000_000)

let suite =
  [ Alcotest.test_case "order interleaves counter" `Quick test_order_interleaves_counter;
    Alcotest.test_case "bmc catches post-sim fault" `Quick test_bmc_catches_post_sim_difference;
    Alcotest.test_case "initial-frame split has a witness" `Quick
      test_initial_frame_split_has_witness;
    Alcotest.test_case "certificate covers outputs" `Quick test_certificate_covers_outputs;
    Alcotest.test_case "budget Unknown keeps SAT stats" `Quick
      test_budget_unknown_keeps_sat_stats;
    Alcotest.test_case "budget Unknown keeps BDD stats" `Quick
      test_budget_unknown_keeps_bdd_stats;
    Alcotest.test_case "node-limit abort reports its peak" `Quick
      test_node_limit_abort_reports_peak;
    Alcotest.test_case "rejects retired and unbounded options" `Quick test_rejects_bad_options;
    prop_order_is_permutation;
    prop_traces_replay;
    prop_certificate_relation_is_inductive;
  ]

let () = Alcotest.run "verify" [ ("verify", suite) ]
