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

let test_seed_split_without_bmc_has_witness () =
  (* the pair of "bmc catches post-sim fault" with no presimulation and
     no bounded refutation: the 16-frame simulation seed splits the
     outputs, and the disproof replays the seed's frames rather than
     shipping the verdict without a trace *)
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
  List.iter
    (fun (name, engine) ->
      let options =
        { Scorr.default_options with Scorr.Verify.engine; presim_frames = 0; bmc_depth = 0 }
      in
      match Scorr.check ~options spec impl with
      | Scorr.Not_equivalent { frame; trace = Some trace; _ } ->
        Alcotest.(check int) (name ^ ": first difference at frame 1") 1 frame;
        Alcotest.(check bool) (name ^ ": trace replays") true
          (replay_outputs_differ spec impl trace)
      | Scorr.Not_equivalent { trace = None; _ } ->
        Alcotest.fail (name ^ ": seed-split refutation carried no trace")
      | _ -> Alcotest.fail (name ^ ": expected a refutation"))
    [ ("bdd", Scorr.Verify.Bdd_engine); ("sat", Scorr.Verify.Sat_engine) ]

(* A free-running 5-bit counter.  The specification's output is
   [q4 & q0] (counts 17, 19, ..., 31); the implementation's also needs
   one of q1..q3, so the two differ only at count 17 (frame 17): past the
   16 frames of the simulation seed, so only the bounded model check
   finds it. *)
let count17_pair () =
  let mk fault =
    let a = Aig.create () in
    let q = Array.init 5 (fun _ -> Aig.add_latch a ~init:false) in
    let carry = ref Aig.lit_true in
    Array.iter
      (fun qi ->
        Aig.set_latch_next a qi ~next:(Aig.mk_xor a qi !carry);
        carry := Aig.mk_and a !carry qi)
      q;
    let o = Aig.mk_and a q.(4) q.(0) in
    let o = if fault then Aig.mk_and a o (Aig.mk_or a q.(1) (Aig.mk_or a q.(2) q.(3))) else o in
    Aig.add_po a "o" o;
    a
  in
  (mk false, mk true)

let test_late_bmc_refutes_after_fixed_point () =
  (* presimulation off: the fixed point runs first (iterations > 0),
     leaves the outputs unproved, and the bounded model check then finds
     the shallowest difference with a trace.  A budget abort of the fixed
     point ends the same way. *)
  let spec, impl = count17_pair () in
  let d = { Scorr.default_options with Scorr.Verify.presim_frames = 0; bmc_depth = 20 } in
  List.iter
    (fun (name, options) ->
      match Scorr.check ~options spec impl with
      | Scorr.Not_equivalent { frame; trace = Some trace; stats } ->
        Alcotest.(check int) (name ^ ": refuted at frame 17") 17 frame;
        Alcotest.(check bool) (name ^ ": trace replays") true
          (replay_outputs_differ spec impl trace);
        Alcotest.(check bool) (name ^ ": fixed point ran first") true
          (stats.Scorr.Verify.iterations > 0);
        Alcotest.(check (option string)) (name ^ ": no budget reported") None
          stats.Scorr.Verify.exhausted
      | Scorr.Not_equivalent { trace = None; _ } -> Alcotest.fail (name ^ ": no trace")
      | _ -> Alcotest.fail (name ^ ": expected a refutation"))
    [ ("bdd", d);
      ("sat", { d with Scorr.Verify.engine = Scorr.Verify.Sat_engine });
      ("aborted", { d with Scorr.Verify.max_iterations = 1 }) ];
  match Scorr.check ~options:{ d with Scorr.Verify.bmc_depth = 16 } spec impl with
  | Scorr.Unknown _ -> ()
  | _ -> Alcotest.fail "depth 16 cannot see the frame-17 difference: expected Unknown"

let test_portfolio_reports_every_rung () =
  (* every rung aborts after one iteration, so the run is Unknown after
     three rungs and its verdict must count all three *)
  let spec = Circuits.Suite.aig_of (Option.get (Circuits.Suite.find "ctr8")) in
  let impl = Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed:1 spec in
  let options = { Scorr.default_options with Scorr.Verify.max_iterations = 1 } in
  match Scorr.portfolio ~options ~max_unroll:3 spec impl with
  | Scorr.Unknown s ->
    Alcotest.(check int) "iterations of all three rungs" 3 s.Scorr.Verify.iterations;
    Alcotest.(check (option string)) "final rung's budget" (Some "iterations")
      s.Scorr.Verify.exhausted;
    let fixpoint =
      Option.value ~default:0.0 (List.assoc_opt "fixpoint" s.Scorr.Verify.phase_seconds)
    in
    Alcotest.(check bool) "time covers the phases" true (s.Scorr.Verify.seconds >= fixpoint)
  | _ -> Alcotest.fail "expected Unknown"

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

(* A 10k-node budget hands ctr16 to the SAT sweep (building the BDD
   engine needs about 5k nodes, the sweep far more); a 3-call SAT budget
   then ends the run.  The Unknown must still carry the BDD engine's
   counters, harvested at the hand-off, next to the SAT engine's.
   Speculation is pinned off: under it the SAT sweep is the engine from
   the start. *)
let test_budget_unknown_keeps_bdd_stats () =
  let spec, impl = budget_pair () in
  let options =
    { Scorr.default_options with
      Scorr.Verify.node_limit = 10_000;
      max_sat_calls = 3;
      use_retime = false;
      use_speculation = false
    }
  in
  match Scorr.check ~options spec impl with
  | Scorr.Unknown s ->
    Alcotest.(check (option string)) "exhausted" (Some "sat calls") s.Scorr.Verify.exhausted;
    Alcotest.(check bool) "peak nodes harvested" true (s.peak_bdd_nodes > 0);
    Alcotest.(check bool) "phase stats harvested" true (s.phase_seconds <> [])
  | _ -> Alcotest.fail "expected Unknown under a 3-call SAT budget after the hand-off"

(* Two ways a node budget runs out: arb4 against its retimed twin under
   700 nodes outgrows the manager's hard limit inside one BDD operation,
   between two samples of the peak; ctr8 under 300 nodes runs out while
   the engine itself is built, before any context exists to harvest.
   Either way the BDD engine hands its partition to the SAT sweep, which
   proves the pair, and the reported peak exceeds the budget. *)
let test_node_limit_handoff_keeps_peak () =
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
      | Scorr.Equivalent s ->
        Alcotest.(check (option string)) (name ^ " exhausted") None s.Scorr.Verify.exhausted;
        Alcotest.(check bool)
          (Printf.sprintf "%s peak %d exceeds the budget %d" name s.peak_bdd_nodes node_limit)
          true
          (s.peak_bdd_nodes > node_limit);
        Alcotest.(check bool) (name ^ " reached the SAT sweep") true (s.sat_calls > 0)
      | _ -> Alcotest.failf "%s: expected Equivalent after the hand-off at %d nodes" name node_limit)
    [ ("arb4", 700); ("ctr8", 300) ]

(* Progress reports name the engine doing the work: arb4 under a 700-node
   budget streams "bdd" until the hand-off and "sat-k1" after it. *)
let test_progress_labels_follow_handoff () =
  let spec = Circuits.Suite.aig_of (Option.get (Circuits.Suite.find "arb4")) in
  let impl = Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_only ~seed:7 spec in
  let labels = ref [] in
  let options =
    { Scorr.default_options with
      Scorr.Verify.engine = Scorr.Verify.Bdd_engine;
      node_limit = 700;
      use_speculation = false;
      progress = Some (fun p -> labels := p.Scorr.Verify.p_engine :: !labels)
    }
  in
  ignore (Scorr.check ~options spec impl);
  let rec runs = function
    | a :: (b :: _ as rest) -> if a = b then runs rest else a :: runs rest
    | l -> l
  in
  Alcotest.(check (list string)) "engine labels in order" [ "bdd"; "sat-k1" ]
    (runs (List.rev !labels))

(* --- the BDD engine's fixed-point work, pinned ---------------------------- *)

(* ctr16 and lfsr16 against their retime+opt seed-1 implementations at the
   default options (engine, jobs and speculation pinned, so the CI legs
   that override them through the environment run the same fixed point).
   The counts were recorded when the sweep still compared class members by
   building each member's nu /\ Q as a hash-consed key; the node-free
   implication test must leave the work itself unchanged: the same
   iterations, batched class scans and stability-cache hits, and a peak
   node count no higher than the recorded one. *)
let test_bdd_fixpoint_work_pinned () =
  List.iter
    (fun (name, iterations, batched, cache_hits, peak) ->
      let spec = Circuits.Suite.aig_of (Option.get (Circuits.Suite.find name)) in
      let impl = Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed:1 spec in
      let options =
        { Scorr.default_options with
          Scorr.Verify.engine = Scorr.Verify.Bdd_engine;
          jobs = 1;
          use_speculation = false
        }
      in
      match Scorr.check ~options spec impl with
      | Scorr.Equivalent s ->
        Alcotest.(check int) (name ^ " iterations") iterations s.Scorr.Verify.iterations;
        Alcotest.(check int) (name ^ " batched solves") batched s.batched_solves;
        Alcotest.(check int) (name ^ " cache hits") cache_hits s.cache_hits;
        Alcotest.(check bool)
          (Printf.sprintf "%s peak %d within %d" name s.peak_bdd_nodes peak)
          true (s.peak_bdd_nodes <= peak)
      | _ -> Alcotest.failf "%s: expected Equivalent" name)
    [ ("ctr16", 67, 3722, 110, 238_421); ("lfsr16", 3, 207, 75, 357_384) ]

(* --- the SAT engine's fixed-point work, pinned ---------------------------- *)

(* The same pairs under the SAT sweep: at k = 1, and at k = 2 with the
   analysis layer and the speculation screen (which also pre-reduces the
   pair).  Jobs and speculation are pinned, so the CI legs that override
   them through the environment run the same fixed point.  The counts
   were recorded before the sweep protocol (pool, prefilter, suspect
   selection, trusting-then-strict policy) moved out of the engines into
   [Sweep]; the move must leave every figure of the work unchanged. *)
let test_sat_fixpoint_work_pinned () =
  let sat = { Scorr.default_options with Scorr.Verify.engine = Scorr.Verify.Sat_engine; jobs = 1 } in
  List.iter
    (fun (name, config, options, (iterations, batched, cache_hits, static, prunes, calls)) ->
      let spec = Circuits.Suite.aig_of (Option.get (Circuits.Suite.find name)) in
      let impl = Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed:1 spec in
      let label what = Printf.sprintf "%s %s %s" name config what in
      match Scorr.check ~options spec impl with
      | Scorr.Equivalent s ->
        Alcotest.(check int) (label "iterations") iterations s.Scorr.Verify.iterations;
        Alcotest.(check int) (label "batched solves") batched s.batched_solves;
        Alcotest.(check int) (label "cache hits") cache_hits s.cache_hits;
        Alcotest.(check int) (label "static splits") static s.static_splits;
        Alcotest.(check int) (label "core prunes") prunes s.core_prunes;
        Alcotest.(check int) (label "sat calls") calls s.sat_calls
      | _ -> Alcotest.failf "%s %s: expected Equivalent" name config)
    (List.concat_map
       (fun (name, k1, k2) ->
         [ (name, "k1", { sat with use_speculation = false }, k1);
           ( name,
             "k2 analysis speculate",
             { sat with sat_unroll = 2; use_analysis = true; use_speculation = true },
             k2 ) ])
       [ ("ctr16", (73, 531, 114, 0, 3592, 531), (94, 362, 4087, 0, 265, 362));
         ("lfsr16", (5, 180, 75, 0, 236, 180), (6, 158, 445, 0, 1, 158)) ])

(* The parallel sweep on real circuits: ctr16 and gray12 put hundreds of
   class checks through every round, so lanes race on the shared task
   cursor throughout.  Which lane finds which witness varies from run to
   run, but the greatest fixed point does not: verdict, final classes and
   eq% must match the one-job run at two and four jobs.  Speculation is
   pinned off so the CI legs that enable it run the same sweep. *)
let test_sat_fixed_point_independent_of_jobs () =
  let sat =
    { Scorr.default_options with Scorr.Verify.engine = Scorr.Verify.Sat_engine;
      use_speculation = false }
  in
  List.iter
    (fun name ->
      let spec = Circuits.Suite.aig_of (Option.get (Circuits.Suite.find name)) in
      let impl = Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed:1 spec in
      let run jobs =
        match Scorr.check ~options:{ sat with jobs } spec impl with
        | Scorr.Equivalent s -> ("equivalent", s.Scorr.Verify.classes, s.eq_pct)
        | Scorr.Not_equivalent { stats = s; _ } -> ("not equivalent", s.classes, s.eq_pct)
        | Scorr.Unknown s -> ("unknown", s.classes, s.eq_pct)
      in
      let verdict, classes, eq_pct = run 1 in
      List.iter
        (fun jobs ->
          let v, c, e = run jobs in
          let label what = Printf.sprintf "%s -j %d %s" name jobs what in
          Alcotest.(check string) (label "verdict") verdict v;
          Alcotest.(check int) (label "classes") classes c;
          Alcotest.(check (float 0.0)) (label "eq_pct") eq_pct e)
        [ 2; 4 ])
    [ "ctr16"; "gray12" ]

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
    Alcotest.test_case "seed split without bmc has a witness" `Quick
      test_seed_split_without_bmc_has_witness;
    Alcotest.test_case "late bmc refutes after the fixed point" `Quick
      test_late_bmc_refutes_after_fixed_point;
    Alcotest.test_case "portfolio reports every rung" `Quick test_portfolio_reports_every_rung;
    Alcotest.test_case "certificate covers outputs" `Quick test_certificate_covers_outputs;
    Alcotest.test_case "budget Unknown keeps SAT stats" `Quick
      test_budget_unknown_keeps_sat_stats;
    Alcotest.test_case "budget Unknown keeps BDD stats" `Quick
      test_budget_unknown_keeps_bdd_stats;
    Alcotest.test_case "node-limit hand-off keeps its peak" `Quick
      test_node_limit_handoff_keeps_peak;
    Alcotest.test_case "progress labels follow the hand-off" `Quick
      test_progress_labels_follow_handoff;
    Alcotest.test_case "rejects retired and unbounded options" `Quick test_rejects_bad_options;
    Alcotest.test_case "bdd fixed-point work pinned" `Quick test_bdd_fixpoint_work_pinned;
    Alcotest.test_case "sat fixed-point work pinned" `Quick test_sat_fixpoint_work_pinned;
    Alcotest.test_case "sat fixed point independent of jobs" `Quick
      test_sat_fixed_point_independent_of_jobs;
    prop_order_is_permutation;
    prop_traces_replay;
    prop_certificate_relation_is_inductive;
  ]

let () = Alcotest.run "verify" [ ("verify", suite) ]
