(* Benchmark harness regenerating the paper's evaluation (see DESIGN.md
   experiment index):

     table1             Table 1: symbolic traversal vs the proposed method
     eqpct              the 85% / 54% average-equivalence claim (C1)
     ablation-fundep    functional dependencies on/off (C2)
     ablation-sim       simulation seeding on/off (A1)
     ablation-retime    retiming extension on/off (A2)
     ablation-engine    BDD vs SAT refinement engine (A3)
     ablation-speculation  speculative reduction (BDD screen + SAT sweep) on/off (E4)
     ablation-dontcare  reachable don't-cares on re-encoded FSMs (A4)
     micro              Bechamel microbenchmarks of the substrates (B1)
     all                everything above

   Run with:  dune exec bench/main.exe -- [--json FILE] [--smoke] [target ...]

   --json FILE      append one JSON record per measured run to FILE
   --smoke          small-suite, tight-budget mode for CI: only quick circuits,
                    nonzero exit when any verdict regresses from "proved"
   --filter RE      only bench suite circuits whose name matches RE
                    (OCaml Str regexp: alternation is backslash-pipe)
   --speculate      run every scorr target with speculative reduction, the
                    BDD screen in front of the SAT sweep (the
                    ablation-speculation target always A/Bs both modes
                    regardless)
   --seed N         PRNG seed for simulation seeding (Scorr options.seed)
   -j N             run ablation-engine circuit jobs across N worker domains
   --sweep-jobs N   worker domains inside each SAT sweep (Scorr options.jobs);
                    above 1 the SAT rows' counters (iterations, SAT calls,
                    conflicts) vary from run to run with the lane schedule,
                    while verdicts, classes and eq% do not
   --deadline S     wall-clock budget per measured run (Scorr deadline;
                    0 = none); timed-out rows report verdict "unknown" and
                    the exhausted reason
   --serve SOCK     client mode: submit the suite through a verification
                    daemon instead of running in-process.  Connects to an
                    existing daemon on SOCK, or hosts one for the duration
                    of the run when no socket exists there.  Each pair is
                    submitted twice — the fresh run and the cache hit —
                    and the JSON rows carry "cached" / "queue_wait"
                    columns from the service *)

let impl_seed = 11
let line = String.make 100 '-'

(* Wall clock, not [Sys.time]: the processor time the latter reports hides
   time spent blocked and saturates against multi-threaded runtimes; every
   figure this harness prints is meant to be wall time.  Scorr.Clock is
   additionally monotonic-safe, so a stepped system clock can never produce
   a negative duration in a report. *)
let timed = Scorr.Clock.timed

let verdict_name = function
  | Scorr.Equivalent _ -> "proved"
  | Scorr.Not_equivalent _ -> "REFUTED"
  | Scorr.Unknown _ -> "unknown"

(* --- machine-readable results (the serve JSON printer; no external deps) ----- *)

let json_file : string option ref = ref None
let smoke = ref false
let smoke_failures : string list ref = ref []
let json_rows : string list ref = ref []
let filter_re : Str.regexp option ref = ref None
let seed_flag = ref Scorr.default_options.Scorr.Verify.seed

(* Job-level workers default to the hardware; note that with more than
   one worker the per-row wall times of ablation-engine contend for
   cores and are only comparable within the same -j. *)
let jobs = ref (Domain.recommended_domain_count ())
let sweep_jobs = ref 1
let deadline_flag = ref 0.0
let speculate_flag = ref false
let serve_socket : string option ref = ref None

let name_matches name =
  match !filter_re with
  | None -> true
  | Some re -> ( try ignore (Str.search_forward re name 0); true with Not_found -> false)

module J = Serve.Json

(* Static-shape columns: one [Analysis] pass over the (spec, impl) pair,
   shared by every engine row of that circuit.  [strash_merges] counts
   the and nodes the structural-reduction pass would eliminate (two-level
   rewrites plus SAT-proven FRAIG merges) across both sides. *)
let shape_columns spec impl =
  let ms = Analysis.Metrics.summary spec and mi = Analysis.Metrics.summary impl in
  let merges aig =
    let _, s = Analysis.Reduce.run aig in
    s.Analysis.Reduce.rewrites + s.Analysis.Reduce.fraig_merges
  in
  [
    ("ands", J.Int (ms.Analysis.Metrics.ands + mi.Analysis.Metrics.ands));
    ("latches", J.Int (ms.Analysis.Metrics.latches + mi.Analysis.Metrics.latches));
    ("levels", J.Int (max ms.Analysis.Metrics.levels mi.Analysis.Metrics.levels));
    ("max_cone", J.Int (max ms.Analysis.Metrics.max_cone mi.Analysis.Metrics.max_cone));
    ("strash_merges", J.Int (merges spec + merges impl));
  ]

(* One JSON row: the (run, circuit, engine) key, verdict and seconds, the
   run counters (see Scorr.Counters), then the given columns.  Several
   targets measure the same (circuit, engine) pair under different
   options, so consumers must key rows on (run, circuit, engine), never
   on (circuit, engine) alone. *)
let add_row ~run ~circuit ~engine ~verdict ~seconds counters columns =
  let key = [ ("run", run); ("circuit", circuit); ("engine", engine); ("verdict", verdict) ] in
  json_rows :=
    J.to_string
      (J.Obj
         (List.map (fun (k, v) -> (k, J.String v)) key
         @ (("seconds", J.Float seconds) :: Serve.Protocol.counters_to_json counters)
         @ columns))
    :: !json_rows

let gate ~circuit ~engine name =
  if !smoke && name <> "proved" then
    smoke_failures := Printf.sprintf "%s/%s: %s" circuit engine name :: !smoke_failures

(* Record one measured verification run; also the smoke-mode verdict
   gate.  [cached] / [queue_wait] are the service columns of
   {!record_serve}: an in-process run is never cached and never queued. *)
let record ~run ~circuit ~engine ~shape verdict seconds =
  let s = Scorr.verdict_stats verdict in
  let name = verdict_name verdict in
  gate ~circuit ~engine name;
  add_row ~run ~circuit ~engine ~verdict:name ~seconds (Scorr.Counters.to_list s)
    (shape
    @ [
        ("jobs", J.Int !sweep_jobs);
        ("deadline", J.Float !deadline_flag);
        ("exhausted", match s.Scorr.Verify.exhausted with Some why -> J.String why | None -> J.Null);
        ("cached", J.Bool false);
        ("queue_wait", J.Float 0.0);
      ])

let write_json () =
  match !json_file with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc "[\n";
    output_string oc (String.concat ",\n" (List.rev !json_rows));
    output_string oc "\n]\n";
    close_out oc;
    Printf.printf "wrote %d records to %s\n" (List.length !json_rows) path

(* Per-run resource budgets, standing in for the paper's 100 MB / 3600 s. *)
let traversal_budget =
  { Reach.Traversal.max_iterations = 100_000; max_live_nodes = 1_500_000; max_seconds = 30.0 }

(* A function, not a constant: --seed, --sweep-jobs and --deadline are
   parsed after module initialisation. *)
let scorr_options () =
  {
    Scorr.default_options with
    Scorr.Verify.node_limit = 1_500_000;
    seed = !seed_flag;
    jobs = !sweep_jobs;
    deadline_seconds = !deadline_flag;
    use_speculation =
      !speculate_flag || Scorr.default_options.Scorr.Verify.use_speculation;
  }

let suite_pairs recipe =
  List.filter_map
    (fun e ->
      if not (name_matches e.Circuits.Suite.name) then None
      else
        let spec = Circuits.Suite.aig_of e in
        let impl = Circuits.Suite.implementation ~recipe ~seed:impl_seed spec in
        Some (e, spec, impl))
    Circuits.Suite.suite

(* --- Table 1 ------------------------------------------------------------- *)

let run_traversal ?(use_fundep = true) spec impl =
  let product = Scorr.Product.make spec impl in
  let t0 = Scorr.Clock.now () in
  match
    Reach.Trans.make ~node_limit:traversal_budget.Reach.Traversal.max_live_nodes
      ~latch_order:(Scorr.Verify.latch_order_from_outputs product)
      product.Scorr.Product.aig
  with
  | exception Bdd.Limit_exceeded ->
    ("limit:nodes", Scorr.Clock.since t0, traversal_budget.Reach.Traversal.max_live_nodes, 0)
  | trans ->
    let result =
      Reach.Traversal.check_equivalence ~budget:traversal_budget ~use_fundep trans
    in
    let st = result.Reach.Traversal.stats in
    let status =
      match result.Reach.Traversal.outcome with
      | Reach.Traversal.Fixpoint _ -> "proved"
      | Reach.Traversal.Property_violation _ -> "REFUTED"
      | Reach.Traversal.Budget_exceeded what -> "limit:" ^ what
    in
    (status, st.Reach.Traversal.seconds, st.peak_nodes, st.iterations)

let table1 () =
  Printf.printf
    "Table 1: retimed and optimized circuits — traversal vs signal correspondence\n";
  Printf.printf
    "(per-run budgets: %.0fs / %d BDD nodes, mirroring the paper's 3600s / 100MB)\n\n"
    traversal_budget.Reach.Traversal.max_seconds traversal_budget.max_live_nodes;
  Printf.printf "%-9s %9s | %-11s %8s %9s %6s | %-8s %8s %9s %4s %4s %5s\n" "circuit"
    "regs" "traversal" "time(s)" "nodes" "#its" "proposed" "time(s)" "nodes" "#its" "(rt)"
    "eqs%";
  print_endline line;
  List.iter
    (fun (e, spec, impl) ->
      let regs = Printf.sprintf "%d/%d" (Aig.num_latches spec) (Aig.num_latches impl) in
      let tstatus, ttime, tnodes, tits = run_traversal spec impl in
      let v, _ = timed (fun () -> Scorr.check ~options:(scorr_options ()) spec impl) in
      let s = Scorr.verdict_stats v in
      Printf.printf "%-9s %9s | %-11s %8.2f %9d %6d | %-8s %8.2f %9d %4d (%2d) %5.0f\n%!"
        e.Circuits.Suite.name regs tstatus ttime tnodes tits (verdict_name v)
        s.Scorr.Verify.seconds s.peak_bdd_nodes s.iterations s.retime_rounds s.eq_pct)
    (suite_pairs Circuits.Suite.Retime_opt);
  print_endline line;
  print_endline
    "shape to compare with the paper: traversal exceeds its budget on deep/large\n\
     circuits while the proposed method proves every pair with modest BDD work."

(* --- C1: average equivalence percentage ------------------------------------ *)

let eqpct () =
  Printf.printf "C1: percentage of spec signals with an implementation correspondence\n";
  Printf.printf "(paper: 85%% for retimed-only circuits, 54%% after script.rugged)\n\n";
  Printf.printf "%-9s %14s %14s\n" "circuit" "retime-only" "retime+opt";
  print_endline (String.make 40 '-');
  let totals = [| 0.0; 0.0 |] in
  let count = ref 0 in
  List.iter
    (fun e ->
      let spec = Circuits.Suite.aig_of e in
      let pct recipe =
        let impl = Circuits.Suite.implementation ~recipe ~seed:impl_seed spec in
        let v = Scorr.check ~options:(scorr_options ()) spec impl in
        (Scorr.verdict_stats v).Scorr.Verify.eq_pct
      in
      let p_r = pct Circuits.Suite.Retime_only in
      let p_o = pct Circuits.Suite.Retime_opt in
      totals.(0) <- totals.(0) +. p_r;
      totals.(1) <- totals.(1) +. p_o;
      incr count;
      Printf.printf "%-9s %13.0f%% %13.0f%%\n%!" e.Circuits.Suite.name p_r p_o)
    Circuits.Suite.suite;
  print_endline (String.make 40 '-');
  Printf.printf "%-9s %13.0f%% %13.0f%%\n" "average"
    (totals.(0) /. float_of_int !count)
    (totals.(1) /. float_of_int !count)

(* --- C2: functional dependencies ---------------------------------------------- *)

let ablation_fundep () =
  Printf.printf "C2: functional dependencies on/off (for the traversal and for Q)\n\n";
  Printf.printf "%-9s | %-11s %8s | %-11s %8s | %-8s %8s | %-8s %8s\n" "circuit"
    "trav+fd" "time" "trav-fd" "time" "scorr+fd" "time" "scorr-fd" "time";
  print_endline line;
  let entries = [ "ctr8"; "ctr16"; "gray12"; "crc16"; "traffic"; "arb4"; "alu4" ] in
  List.iter
    (fun name ->
      match Circuits.Suite.find name with
      | None -> ()
      | Some e ->
        let spec = Circuits.Suite.aig_of e in
        let impl =
          Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed:impl_seed
            spec
        in
        let t1, tt1, _, _ = run_traversal ~use_fundep:true spec impl in
        let t0, tt0, _, _ = run_traversal ~use_fundep:false spec impl in
        let sc use_fundep =
          let options = { (scorr_options ()) with Scorr.Verify.use_fundep } in
          let v, t = timed (fun () -> Scorr.check ~options spec impl) in
          (verdict_name v, t)
        in
        let s1, st1 = sc true in
        let s0, st0 = sc false in
        Printf.printf "%-9s | %-11s %8.2f | %-11s %8.2f | %-8s %8.2f | %-8s %8.2f\n%!" name
          t1 tt1 t0 tt0 s1 st1 s0 st0)
    entries

(* --- A1: simulation seeding ----------------------------------------------------- *)

let ablation_sim () =
  Printf.printf "A1: random-simulation seeding of the fixed point (Section 4)\n\n";
  Printf.printf "%-9s | %-8s %6s %8s | %-8s %6s %8s\n" "circuit" "seeded" "#its" "time"
    "unseeded" "#its" "time";
  print_endline line;
  List.iter
    (fun (e, spec, impl) ->
      let run use_sim_seed =
        let options = { (scorr_options ()) with Scorr.Verify.use_sim_seed } in
        let v, t = timed (fun () -> Scorr.check ~options spec impl) in
        (verdict_name v, (Scorr.verdict_stats v).Scorr.Verify.iterations, t)
      in
      let v1, i1, t1 = run true in
      let v0, i0, t0 = run false in
      Printf.printf "%-9s | %-8s %6d %8.2f | %-8s %6d %8.2f\n%!" e.Circuits.Suite.name v1 i1
        t1 v0 i0 t0)
    (List.filter
       (fun (e, _, _) ->
         List.mem e.Circuits.Suite.name
           [ "ctr8"; "gray12"; "crc16"; "traffic"; "arb4"; "det-bin"; "mod10" ])
       (suite_pairs Circuits.Suite.Retime_opt))

(* --- A2: retiming extension ------------------------------------------------------- *)

let ablation_retime () =
  Printf.printf "A2: candidate extension by forward retiming with lag 1 (Fig. 3)\n\n";
  Printf.printf "%-9s | %-8s %5s | %-8s\n" "circuit" "with" "(rt)" "without";
  print_endline (String.make 44 '-');
  List.iter
    (fun (e, spec, impl) ->
      let run use_retime =
        let options = { (scorr_options ()) with Scorr.Verify.use_retime } in
        Scorr.check ~options spec impl
      in
      let v1 = run true and v0 = run false in
      Printf.printf "%-9s | %-8s (%2d) | %-8s\n%!" e.Circuits.Suite.name (verdict_name v1)
        (Scorr.verdict_stats v1).Scorr.Verify.retime_rounds (verdict_name v0))
    (suite_pairs Circuits.Suite.Retime_only)

(* --- A3: engines --------------------------------------------------------------------- *)

let smoke_circuits = [ "ctr8"; "gray12"; "traffic"; "mod10"; "arb4" ]

(* The -j flag parallelises this target at the job level: each (circuit,
   engine-triple) job runs whole verifications in a worker domain with
   fully private managers, and the coordinator records and prints results
   in suite order, so the table and the JSON are byte-identical for every
   worker count. *)
let ablation_engine () =
  Printf.printf
    "A3: BDD refinement (the paper) vs SAT refinement (the paper's future work),\n\
     and the analysis-steered portfolio (pre-reduction + one rung per depth)\n\n";
  Printf.printf "%-9s | %-8s %7s %8s | %-8s %7s %7s %5s %5s %5s | %-8s %7s %7s\n"
    "circuit" "bdd" "time" "nodes" "sat" "time" "calls" "pool" "resim" "hits" "auto" "time"
    "solves";
  print_endline line;
  let pairs =
    Array.of_list
      (List.filter
         (fun (e, _, _) ->
           if !smoke then List.mem e.Circuits.Suite.name smoke_circuits
           else not (List.mem e.Circuits.Suite.name [ "ctr32"; "crc32" ]))
         (suite_pairs Circuits.Suite.Retime_opt))
  in
  let job () (_, spec, impl) =
    let budgeted options =
      if !smoke then
        { options with Scorr.Verify.max_sat_calls = 50_000; node_limit = 500_000 }
      else options
    in
    let run options = timed (fun () -> Scorr.check ~options:(budgeted options) spec impl) in
    let bdd = run (scorr_options ()) in
    let sat =
      run { (scorr_options ()) with Scorr.Verify.engine = Scorr.Verify.Sat_engine }
    in
    let auto =
      let options = budgeted { (scorr_options ()) with Scorr.Verify.use_analysis = true } in
      timed (fun () -> Scorr.portfolio ~options spec impl)
    in
    (bdd, sat, auto)
  in
  let pool = Scorr.Parsweep.create ~jobs:!jobs ~init:(fun _ -> ()) in
  let results = Scorr.Parsweep.map pool ~f:job pairs in
  Scorr.Parsweep.shutdown pool;
  Array.iteri
    (fun i ((vb, tb), (vs, ts), (va, ta)) ->
      let e, spec, impl = pairs.(i) in
      let name = e.Circuits.Suite.name in
      let shape = shape_columns spec impl in
      record ~run:"ablation-engine" ~circuit:name ~engine:"bdd" ~shape vb tb;
      record ~run:"ablation-engine" ~circuit:name ~engine:"sat" ~shape vs ts;
      record ~run:"ablation-engine" ~circuit:name ~engine:"auto" ~shape va ta;
      let sb = Scorr.verdict_stats vs and sa = Scorr.verdict_stats va in
      Printf.printf "%-9s | %-8s %7.2f %8d | %-8s %7.2f %7d %5d %5d %5d | %-8s %7.2f %7d\n%!"
        name (verdict_name vb) tb (Scorr.verdict_stats vb).Scorr.Verify.peak_bdd_nodes
        (verdict_name vs) ts sb.Scorr.Verify.sat_calls sb.pool_lanes sb.resim_splits
        sb.cache_hits (verdict_name va) ta sa.Scorr.Verify.batched_solves)
    results

(* --- A4: reachable don't-cares -------------------------------------------------------- *)

let ablation_dontcare () =
  Printf.printf
    "A4: strengthening Q with an approximate reachable state space (Section 3 ext.)\n\n";
  let pairs =
    [ ("mod5/ring5",
       (fun () -> fst (Aig.of_netlist (Circuits.Counter.modulo 5))),
       fun () -> fst (Aig.of_netlist (Circuits.Counter.ring 5)));
      ("mod10/ring10",
       (fun () -> fst (Aig.of_netlist (Circuits.Counter.modulo 10))),
       fun () -> fst (Aig.of_netlist (Circuits.Counter.ring 10)));
      ("det bin/onehot",
       (fun () ->
         fst (Aig.of_netlist (Circuits.Fsm.detector ~onehot:false [ true; false; true; true ]))),
       fun () ->
         fst (Aig.of_netlist (Circuits.Fsm.detector ~onehot:true [ true; false; true; true ])));
    ]
  in
  Printf.printf "%-16s | %-8s %8s %9s | %-8s %8s %9s\n" "pair" "plain" "time" "nodes"
    "with-dc" "time" "nodes";
  print_endline line;
  List.iter
    (fun (name, mk_spec, mk_impl) ->
      let spec = mk_spec () and impl = mk_impl () in
      let run use_reach_dontcare =
        let options =
          { (scorr_options ()) with Scorr.Verify.use_reach_dontcare; reach_block_size = 12 }
        in
        timed (fun () -> Scorr.check ~options spec impl)
      in
      let v0, t0 = run false in
      let v1, t1 = run true in
      Printf.printf "%-16s | %-8s %8.2f %9d | %-8s %8.2f %9d\n%!" name (verdict_name v0) t0
        (Scorr.verdict_stats v0).Scorr.Verify.peak_bdd_nodes (verdict_name v1) t1
        (Scorr.verdict_stats v1).Scorr.Verify.peak_bdd_nodes)
    pairs

(* --- E1: k-inductive SAT unrolling (extension) ----------------------------------------- *)

let ablation_unroll () =
  Printf.printf
    "E1 (extension): k-inductive unrolling of the SAT engine (k=1 is the paper)\n\n";
  Printf.printf "%-9s | %-8s %8s %7s | %-8s %8s %7s | %-8s %8s %7s\n" "circuit" "k=1"
    "time" "calls" "k=2" "time" "calls" "k=3" "time" "calls";
  print_endline line;
  List.iter
    (fun (e, spec, impl) ->
      let run k =
        let options =
          { (scorr_options ()) with Scorr.Verify.engine = Scorr.Verify.Sat_engine; sat_unroll = k }
        in
        timed (fun () -> Scorr.check ~options spec impl)
      in
      let cells =
        List.map
          (fun k ->
            let v, t = run k in
            Printf.sprintf "%-8s %8.2f %7d" (verdict_name v) t
              (Scorr.verdict_stats v).Scorr.Verify.sat_calls)
          [ 1; 2; 3 ]
      in
      Printf.printf "%-9s | %s\n%!" e.Circuits.Suite.name (String.concat " | " cells))
    (List.filter
       (fun (e, _, _) ->
         List.mem e.Circuits.Suite.name
           [ "ctr8"; "gray12"; "crc16"; "crc32"; "traffic"; "mod10"; "arb4"; "bus" ])
       (suite_pairs Circuits.Suite.Retime_opt))

(* --- E4: speculative reduction ----------------------------------------------------------- *)

(* A/B of speculative reduction: before every sweep, merge every
   candidate class onto its representative and BDD-check the assumption
   obligations on the reduced product, proving the classes whose
   obligations all hold; the SAT sweep (at depth 1 on the bdd rows) takes
   the rest — against the plain per-class sweep.  Verdicts and final
   partitions are identical by construction (the loop reaches the same
   greatest fixed point); the table shows the wall-time and conflict
   reduction per engine, plus how the screen split the obligations. *)
let ablation_speculation () =
  Printf.printf
    "E4 (extension): speculative reduction (BDD screen + SAT sweep) vs the\n\
     plain per-class sweep (identical verdicts by construction)\n\n";
  Printf.printf "%-9s %-4s | %-8s %8s %9s | %-8s %8s %9s %7s %7s | %7s %7s\n" "circuit"
    "eng" "plain" "time" "conflicts" "spec" "time" "conflicts" "merges" "bdd/sat"
    "t-ratio" "c-ratio";
  print_endline line;
  let circuits =
    if !smoke then [ "ctr8"; "gray12"; "arb4" ] else [ "arb6"; "ctr16"; "gray12"; "bus"; "tx" ]
  in
  List.iter
    (fun (e, spec, impl) ->
      let name = e.Circuits.Suite.name in
      let shape = shape_columns spec impl in
      List.iter
        (fun (engine, tag) ->
          let run use_speculation =
            (* both arms run the static-analysis layer, so the A/B isolates
               speculation itself: both verify the pre-reduced pair
               (Verify.prereduces), and the speculative arm screens every
               sweep.  bus's
               depth-1 gfp does not imply output equality — depth-2
               induction closes it, at the same depth in both arms so
               the comparison stays engine-for-engine fair *)
            let options =
              { (scorr_options ()) with Scorr.Verify.engine; use_speculation;
                use_analysis = true;
                (* one lane in both arms, so the A/B measures speculation
                   and not the sweep's solver partitioning at -j>1 *)
                jobs = 1;
                sat_unroll = (if name = "bus" then 2 else 1) }
            in
            let options =
              if !smoke then
                { options with Scorr.Verify.max_sat_calls = 50_000; node_limit = 500_000 }
              else options
            in
            timed (fun () -> Scorr.check ~options spec impl)
          in
          let vp, tp = run false in
          let vs, ts = run true in
          record ~run:"ablation-speculation" ~circuit:name ~engine:tag ~shape vp tp;
          record ~run:"ablation-speculation" ~circuit:name ~engine:(tag ^ "-spec") ~shape vs
            ts;
          let sp = Scorr.verdict_stats vp and ss = Scorr.verdict_stats vs in
          let ratio num den = if num > 0.0 then den /. num else Float.nan in
          Printf.printf
            "%-9s %-4s | %-8s %8.2f %9d | %-8s %8.2f %9d %7d %7s | %6.1fx %6.1fx\n%!"
            name tag (verdict_name vp) tp sp.Scorr.Verify.conflicts (verdict_name vs) ts
            ss.Scorr.Verify.conflicts ss.spec_merges
            (Printf.sprintf "%d/%d" ss.spec_by_bdd ss.spec_by_sat)
            (ratio ts tp)
            (ratio (float_of_int ss.Scorr.Verify.conflicts)
               (float_of_int sp.Scorr.Verify.conflicts)))
        [ (Scorr.Verify.Bdd_engine, "bdd"); (Scorr.Verify.Sat_engine, "sat") ])
    (List.filter
       (fun (e, _, _) -> List.mem e.Circuits.Suite.name circuits)
       (suite_pairs Circuits.Suite.Retime_opt))

(* --- E3: plain output k-induction baseline ---------------------------------------------- *)

let ablation_induction () =
  Printf.printf
    "E3 (context): plain k-induction on the outputs vs signal correspondence\n";
  Printf.printf
    "(output equality is rarely inductive by itself: the signal-level relation is the point)\n\n";
  Printf.printf "%-9s | %-10s %8s | %-8s %8s\n" "circuit" "k-induct" "time" "scorr" "time";
  print_endline line;
  List.iter
    (fun (e, spec, impl) ->
      let product = Scorr.Product.make spec impl in
      let (ind, ti) =
        timed (fun () ->
            Reach.Induction.check ~max_k:6 ~max_sat_calls:5_000 product.Scorr.Product.aig)
      in
      let ind_name =
        match ind with
        | Reach.Induction.Proved k -> Printf.sprintf "proved@%d" k
        | Reach.Induction.Refuted _ -> "REFUTED"
        | Reach.Induction.Unknown _ -> "unknown"
      in
      let v, ts = timed (fun () -> Scorr.check ~options:(scorr_options ()) spec impl) in
      Printf.printf "%-9s | %-10s %8.2f | %-8s %8.2f\n%!" e.Circuits.Suite.name ind_name ti
        (verdict_name v) ts)
    (List.filter
       (fun (e, _, _) ->
         List.mem e.Circuits.Suite.name
           [ "ctr8"; "gray12"; "crc16"; "traffic"; "mod10"; "arb4"; "alu4"; "det-bin" ])
       (suite_pairs Circuits.Suite.Retime_opt))

(* --- S1: verification service round-trips ---------------------------------------------- *)

(* A serve-mode row reports what the daemon measured, not in-process
   engine internals: runtime, queue wait, cache status, and the run
   counters the protocol carries. *)
let record_serve ~circuit ~shape (o : Serve.Protocol.outcome) =
  let name =
    match o.Serve.Protocol.verdict with
    | "equivalent" -> "proved"
    | "not_equivalent" -> "REFUTED"
    | _ -> "unknown"
  in
  gate ~circuit ~engine:"serve" name;
  add_row ~run:"serve" ~circuit ~engine:"serve" ~verdict:name ~seconds:o.runtime o.counters
    (("resumed_iterations", J.Int o.resumed_iterations)
    :: shape
    @ [
        ("deadline", J.Float !deadline_flag);
        ("cached", J.Bool o.cached);
        ("queue_wait", J.Float o.queue_wait);
      ]);
  name

let serve_bench socket =
  Printf.printf
    "S1: verification service round-trips — each pair submitted twice:\n\
     a fresh run, then an exact resubmission answered from the result cache\n\n";
  (* reuse a daemon already listening on [socket]; otherwise host one in
     a domain for the duration of the run *)
  let own_daemon =
    if Sys.file_exists socket then None
    else begin
      let cache_dir = Filename.temp_file "seqver-bench-cache" "" in
      Sys.remove cache_dir;
      let cfg =
        { Serve.Daemon.default_config with Serve.Daemon.socket_path = socket; cache_dir }
      in
      Some (Domain.spawn (fun () -> Serve.Daemon.run cfg))
    end
  in
  let rec connect tries =
    match Serve.Client.connect ~socket () with
    | client -> client
    | exception Serve.Client.Error _ when tries > 0 ->
      Unix.sleepf 0.05;
      connect (tries - 1)
  in
  let client = connect 100 in
  Fun.protect
    ~finally:(fun () ->
      (match own_daemon with
      | Some d ->
        ignore (Serve.Client.request client Serve.Protocol.Shutdown);
        ignore (Domain.join d)
      | None -> ());
      Serve.Client.close client)
    (fun () ->
      Printf.printf "%-9s | %-8s %8s %8s | %-8s %8s | %7s\n" "circuit" "fresh" "time"
        "q-wait" "cached" "time" "speedup";
      print_endline line;
      let opts =
        {
          Serve.Protocol.default_opts with
          Serve.Protocol.seed = !seed_flag;
          deadline = !deadline_flag;
        }
      in
      List.iter
        (fun (e, spec, impl) ->
          let name = e.Circuits.Suite.name in
          let submit () =
            let aag a = Serve.Protocol.Aag (Aig.Aiger.to_string a) in
            snd (Serve.Client.submit_and_wait client ~spec:(aag spec) ~impl:(aag impl) ~opts ())
          in
          let shape = shape_columns spec impl in
          let fresh = submit () in
          let hit = submit () in
          let v1 = record_serve ~circuit:name ~shape fresh in
          let v2 = record_serve ~circuit:name ~shape hit in
          if not hit.Serve.Protocol.cached then
            smoke_failures :=
              Printf.sprintf "%s/serve: resubmission missed the cache" name :: !smoke_failures;
          let speedup =
            if hit.Serve.Protocol.runtime > 0.0 then
              Printf.sprintf "%6.0fx" (fresh.Serve.Protocol.runtime /. hit.Serve.Protocol.runtime)
            else "   inf"
          in
          Printf.printf "%-9s | %-8s %8.3f %8.4f | %-8s %8.3f | %7s\n%!" name v1
            fresh.Serve.Protocol.runtime fresh.Serve.Protocol.queue_wait v2
            hit.Serve.Protocol.runtime speedup)
        (List.filter
           (fun (e, _, _) ->
             (not !smoke) || List.mem e.Circuits.Suite.name smoke_circuits)
           (suite_pairs Circuits.Suite.Retime_opt)))

(* --- B1: microbenchmarks ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let bdd_image =
    Test.make ~name:"bdd: counter image step"
      (Staged.stage (fun () ->
           let a, _ = Aig.of_netlist (Circuits.Counter.binary 12) in
           let trans = Reach.Trans.make a in
           ignore (Reach.Trans.image trans trans.Reach.Trans.init)))
  in
  let bdd_build =
    Test.make ~name:"bdd: build alu4 outputs"
      (Staged.stage (fun () ->
           let a, _ = Aig.of_netlist (Circuits.Pipeline.alu 4) in
           let m = Bdd.create () in
           let n_pis = Aig.num_pis a in
           let bdd_of =
             Engines.Aig_bdd.build m a ~pi_var:(Bdd.var m)
               ~latch_var:(fun i -> Bdd.var m (n_pis + i))
           in
           List.iter (fun (_, l) -> ignore (bdd_of l)) (Aig.pos a)))
  in
  let sat_php =
    Test.make ~name:"sat: pigeonhole 5/4"
      (Staged.stage (fun () ->
           let s = Sat.create () in
           let var p h = (p * 4) + h in
           Sat.ensure_vars s 20;
           for p = 0 to 4 do
             Sat.add_clause s (List.init 4 (fun h -> Sat.Lit.pos (var p h)))
           done;
           for h = 0 to 3 do
             for p1 = 0 to 4 do
               for p2 = p1 + 1 to 4 do
                 Sat.add_clause s [ Sat.Lit.neg (var p1 h); Sat.Lit.neg (var p2 h) ]
               done
             done
           done;
           ignore (Sat.solve s)))
  in
  let aig_sim =
    Test.make ~name:"aig: 64x64 frames of crc32"
      (Staged.stage
         (let a, _ = Aig.of_netlist (Circuits.Lfsr.crc ~poly:0x04C11DB7 32) in
          let frames = Aig.Sim.random_frames ~seed:1 ~n_pis:1 ~n_frames:64 in
          fun () -> ignore (Aig.Sim.run a frames)))
  in
  let scorr_small =
    Test.make ~name:"scorr: traffic retime+opt"
      (Staged.stage
         (let spec = Circuits.Suite.aig_of (Option.get (Circuits.Suite.find "traffic")) in
          let impl =
            Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed:3 spec
          in
          fun () -> ignore (Scorr.check spec impl)))
  in
  let tests =
    Test.make_grouped ~name:"seqver" [ bdd_build; bdd_image; sat_php; aig_sim; scorr_small ]
  in
  Printf.printf "B1: substrate microbenchmarks (Bechamel, monotonic clock)\n\n";
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 2.0) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "%-34s %14.0f ns/run\n" name est
      | Some _ | None -> Printf.printf "%-34s (no estimate)\n" name)
    (List.sort compare rows)

(* --- driver ---------------------------------------------------------------------------------- *)

let targets =
  [ ("table1", table1); ("eqpct", eqpct); ("ablation-fundep", ablation_fundep);
    ("ablation-sim", ablation_sim); ("ablation-retime", ablation_retime);
    ("ablation-engine", ablation_engine); ("ablation-dontcare", ablation_dontcare);
    ("ablation-unroll", ablation_unroll);
    ("ablation-speculation", ablation_speculation);
    ("ablation-induction", ablation_induction);
    ("micro", micro) ]

let () =
  let run name =
    match List.assoc_opt name targets with
    | Some f ->
      f ();
      print_newline ()
    | None ->
      Printf.eprintf "unknown bench target %s; available: %s all\n" name
        (String.concat " " (List.map fst targets));
      exit 1
  in
  (* flags first, then target names *)
  let int_arg flag s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | _ ->
      Printf.eprintf "bench: %s expects a positive integer, got %s\n" flag s;
      exit 1
  in
  let rec parse_flags = function
    | "--json" :: path :: rest ->
      json_file := Some path;
      parse_flags rest
    | "--smoke" :: rest ->
      smoke := true;
      parse_flags rest
    | "--filter" :: re :: rest ->
      filter_re := Some (Str.regexp re);
      parse_flags rest
    | "--seed" :: n :: rest ->
      seed_flag := int_arg "--seed" n;
      parse_flags rest
    | ("-j" | "--jobs") :: n :: rest ->
      jobs := int_arg "-j" n;
      parse_flags rest
    | "--sweep-jobs" :: n :: rest ->
      sweep_jobs := int_arg "--sweep-jobs" n;
      parse_flags rest
    | "--speculate" :: rest ->
      speculate_flag := true;
      parse_flags rest
    | "--deadline" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s >= 0.0 -> deadline_flag := s
      | _ ->
        Printf.eprintf "bench: --deadline expects a non-negative float, got %s\n" v;
        exit 1);
      parse_flags rest
    | "--serve" :: sock :: rest ->
      serve_socket := Some sock;
      parse_flags rest
    | rest -> rest
  in
  let names = parse_flags (List.tl (Array.to_list Sys.argv)) in
  (match (!serve_socket, names) with
  | Some socket, _ ->
    (* client mode: the daemon is the engine; targets don't apply *)
    serve_bench socket;
    print_newline ()
  | None, ([] | [ "all" ]) ->
    List.iter
      (fun (_, f) ->
        f ();
        print_newline ())
      targets
  | None, names -> List.iter run names);
  write_json ();
  match !smoke_failures with
  | [] -> ()
  | fails ->
    Printf.eprintf "smoke: %d verdict(s) regressed from proved:\n" (List.length fails);
    List.iter (Printf.eprintf "  %s\n") (List.rev fails);
    exit 1
