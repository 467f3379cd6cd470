(* The verification method of the paper (outline in Fig. 4):

     1. build the product machine;
     2. partition the candidate signals by random sequential simulation
        (Section 4) and by the exact initial-state condition (Eq. 2);
     3. run the greatest fixed-point iteration (Eq. 3) to the maximum
        signal correspondence relation;
     4. if all output pairs correspond, the circuits are sequentially
        equivalent (Theorem 1);
     5. otherwise extend the candidate set by forward retiming with lag 1
        (Fig. 3) and, if it grew, recompute the fixed point.

   The method is sound but incomplete: "Unknown" is a possible answer.
   Genuine counterexamples, each with a concrete trace, come from random
   simulation before step 1, from an initial refinement that splits an
   output pair, and from a bounded model check that runs once, only when
   the first fixed point leaves the outputs unproved or a budget aborts
   it: a proof by the first fixed point never pays for the unrolling. *)

type engine_kind = Bdd_engine | Sat_engine

type candidate_set = All_signals | Registers_only

(* One streamed progress observation of a running fixed point: enough for
   a watcher (the serve daemon's clients, a progress bar) to see the
   iteration count, the classes still standing, and which engine is doing
   the work — without touching the engine's internals. *)
type progress = {
  p_round : int; (* retiming rounds completed *)
  p_iteration : int; (* refinement iterations completed, all rounds *)
  p_classes : int; (* classes currently in the partition *)
  p_engine : string; (* engine label: "bdd", "sat-k1", "sat-k2", ... *)
}

type options = {
  engine : engine_kind;
  candidates : candidate_set;
  preflight : bool; (* lint-reject broken circuits before verifying *)
  use_sim_seed : bool;
  sim_frames : int;
  use_ternary_seed : bool; (* split the partition by ternary signatures *)
  use_batched_sweeps : bool;
  use_incremental : bool;
      (* both must be [true]: the fields outlive the pairwise and
         throwaway-solver baselines they once selected only because
         perfbench builds the whole record *)
  use_speculation : bool;
      (* speculative reduction: in every sweep, merge every candidate
         class onto its representative and BDD-check the assumption
         obligations on the REDUCED product; the sweep skips the classes
         whose obligations all hold, and the SAT sweep, always the exact
         engine here, takes the rest.  Reaches
         the same greatest fixed point as the plain sweeps at
         [effective_induction] (see specreduce.ml). *)
  use_analysis : bool;
      (* static-analysis steering: verify the FRAIG-reduced pair (see
         [prereduces]), and the portfolio's k = 1 engine picked by the
         shape metrics *)
  use_fundep : bool;
  use_retime : bool;
  max_retime_rounds : int;
  use_reach_dontcare : bool;
  reach_block_size : int;
  node_limit : int;
  max_sat_calls : int;
  sat_unroll : int;
      (* induction depth k of the SAT engine; 1 = the paper, at most
         [max_induction] *)
  presim_frames : int;
  bmc_depth : int;
      (* exhaustive refutation depth, run after a fixed point that did
         not prove the outputs (or a budget abort); 0 disables *)
  seed : int;
  jobs : int; (* worker domains for Eq.(3) sweeps (SAT engine) *)
  deadline_seconds : float; (* wall-clock budget; <= 0 means none *)
  max_iterations : int; (* abort after this many refinement iterations; 0 = none *)
  checkpoint_path : string option; (* write partial state here on aborts *)
  checkpoint_every : int; (* also checkpoint every N iterations; 0 = aborts only *)
  resume : Checkpoint.t option; (* seed the fixed point from a prior run *)
  progress : (progress -> unit) option;
      (* called after the initial refinement and after every fixed-point
         iteration, from whatever domain runs the verification; None (the
         default) costs nothing *)
  cancel : Deadline.flag option;
      (* external cancellation: when set, the flag is attached to every
         deadline this run (and every portfolio rung of it) polls, so
         whoever holds the flag can abort the run within one class solve
         — the serve daemon's per-job cancel *)
}

(* The default worker count honours SEQVER_JOBS so whole test suites can
   be pushed through the multicore path without plumbing options. *)
let default_jobs () =
  match Sys.getenv_opt "SEQVER_JOBS" with
  | Some s -> ( match int_of_string_opt (String.trim s) with Some n when n >= 1 -> n | _ -> 1)
  | None -> 1

(* SEQVER_SPECULATE pushes whole suites through the speculation path the
   same way — verdicts and final partitions are unchanged by design. *)
let default_speculation () =
  match Sys.getenv_opt "SEQVER_SPECULATE" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let default_options =
  {
    engine = Bdd_engine;
    candidates = All_signals;
    preflight = true;
    use_sim_seed = true;
    sim_frames = 16;
    use_ternary_seed = true;
    use_batched_sweeps = true;
    use_incremental = true;
    use_speculation = default_speculation ();
    use_analysis = false;
    use_fundep = true;
    use_retime = true;
    max_retime_rounds = 4;
    use_reach_dontcare = false;
    reach_block_size = 8;
    node_limit = 2_000_000;
    max_sat_calls = 200_000;
    sat_unroll = 1;
    presim_frames = 64;
    bmc_depth = 4;
    seed = 17;
    jobs = default_jobs ();
    deadline_seconds = 0.0;
    max_iterations = 0;
    checkpoint_path = None;
    checkpoint_every = 0;
    resume = None;
    progress = None;
    cancel = None;
  }

(* The deepest induction a run may unroll: every SAT lane encodes k + 1
   copies of the product, so an unchecked depth from a flag, a request or
   a certificate would exhaust memory before any budget is polled.  The
   cap bounds memory only: solving time still grows steeply with k, so a
   run near the cap is bounded by its deadline alone. *)
let max_induction = 64

(* The option projections a checkpoint must reproduce on resume. *)
let engine_string options =
  match options.engine with Bdd_engine -> "bdd" | Sat_engine -> "sat"

let candidates_string options =
  match options.candidates with All_signals -> "all" | Registers_only -> "registers"

(* The induction depth actually driving the fixed point: the BDD engine
   is the paper's one-frame Equation (3) regardless of [sat_unroll]. *)
let effective_induction options =
  match options.engine with Bdd_engine -> 1 | Sat_engine -> max 1 options.sat_unroll

(* The relation a run under [options] records for [partition], over
   [product] after [retime_rounds] augmentations. *)
let relation_of ~options ~spec_digest ~impl_digest ~retime_rounds product partition =
  {
    Relation.spec_digest;
    impl_digest;
    engine = engine_string options;
    candidates = candidates_string options;
    induction = effective_induction options;
    retime_rounds;
    product_nodes = Aig.num_nodes product.Product.aig;
    classes = Relation.classes_of partition;
  }

(* Does this run verify the FRAIG-reduced pair instead of the circuits as
   given?  The analysis layer pre-reduces both sides once
   (semantics-preserving: PIs and POs are preserved exactly, so verdicts
   and witness traces carry back to the originals verbatim), which is
   what lets a single engine configuration close pairs whose unreduced
   product has spurious unreachable-state counterexamples (dead latches
   widen the induction hypothesis space).  The reduction is a
   deterministic function of the circuit and the seed, so every relation
   file a run writes binds the circuits as given: a resumed run re-applies
   it before replaying the checkpoint, and a certificate records it (see
   Cert.Certificate), so checking replays it on the original files. *)
let prereduces options = options.use_analysis

(* Rung label for progress streaming and portfolio displays. *)
let rung_label options =
  match options.engine with
  | Bdd_engine -> "bdd"
  | Sat_engine -> Printf.sprintf "sat-k%d" (max 1 options.sat_unroll)

(* The run statistics are the counter record, re-exported with its
   labels (see {!Counters}). *)
include Counters.Record

type verdict =
  | Equivalent of stats
  | Not_equivalent of { frame : int; trace : bool array array option; stats : stats }
  | Unknown of stats

let verdict_stats = function
  | Equivalent s -> s
  | Not_equivalent { stats; _ } -> stats
  | Unknown s -> s

(* --- engine dispatch -------------------------------------------------------- *)

type engine_ops = {
  label : unit -> string; (* rung label of the engine now doing the work *)
  pool : unit -> Simpool.t;
      (* the engine's pattern pool: the pending lanes a checkpoint saves,
         a resume re-seeds and a hand-off passes on *)
  refine_initial : Partition.t -> unit;
  refine_once : Partition.t -> bool;
  harvest : unit -> Counters.t; (* the engine's run counters so far *)
  shutdown : unit -> unit; (* join the engine's worker domains *)
}

(* Structural state-variable order: walk the output pairs and interleave
   the specification latches of each output's cone with the implementation
   latches of its partner's cone.  Matching latches by simulation
   signature fails when corresponding state lives in a GATE of the other
   circuit — e.g. after backward retiming — while the output miters always
   connect both sides. *)
let latch_order_from_outputs product =
  let aig = product.Product.aig in
  let n = Aig.num_latches aig in
  let n_spec = product.Product.spec.Product.n_latches in
  let cone_latches lit =
    let seen = Hashtbl.create 64 in
    let acc = ref [] in
    let rec go id =
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        match Aig.node aig id with
        | Aig.Latch i ->
          acc := i :: !acc;
          go (Aig.node_of_lit (Aig.latch_next aig i))
        | Aig.And (a, b) ->
          go (Aig.node_of_lit a);
          go (Aig.node_of_lit b)
        | Aig.Const | Aig.Pi _ -> ()
      end
    in
    go (Aig.node_of_lit lit);
    List.sort compare !acc
  in
  let placed = Array.make n false in
  let order = ref [] in
  let rec zip a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | x :: a, y :: b -> x :: y :: zip a b
  in
  let take latches =
    let fresh = List.filter (fun i -> not placed.(i)) latches in
    List.iter (fun i -> placed.(i) <- true) fresh;
    fresh
  in
  List.iter
    (fun (_, ls, li) ->
      let sp = take (List.filter (fun i -> i < n_spec) (cone_latches ls)) in
      let im = take (List.filter (fun i -> i >= n_spec) (cone_latches li)) in
      order := List.rev_append (zip sp im) !order)
    product.Product.outputs;
  (* leftovers (latches unreachable from the outputs), sides interleaved *)
  let rest = List.filter (fun i -> not placed.(i)) (List.init n Fun.id) in
  let sp = List.filter (fun i -> i < n_spec) rest in
  let im = List.filter (fun i -> i >= n_spec) rest in
  order := List.rev_append (zip sp im) !order;
  Array.of_list (List.rev !order)

(* The SAT sweep at [effective_induction options].  Under speculation the
   exact engine is always this sweep, with the BDD screen of
   {!Specreduce} in every round: the round skips the classes the screen
   proves on its flushed partition and solves the rest. *)
let sat_engine (options : options) deadline product =
  let ctx =
    Engine_sat.make ~max_sat_calls:options.max_sat_calls ~k:(effective_induction options)
      ~jobs:options.jobs ~deadline product
  in
  let screen =
    if not options.use_speculation then None
    else
      Some
        (Specreduce.screen_create ~node_limit:options.node_limit
           ~latch_order:(latch_order_from_outputs product) ~deadline)
  in
  {
    label = (fun () -> rung_label options);
    pool = (fun () -> Engine_sat.pool ctx);
    refine_initial = Engine_sat.refine_initial ctx;
    refine_once =
      Engine_sat.refine_once
        ?screen:(Option.map (fun sc -> Specreduce.screen sc product) screen)
        ctx;
    harvest =
      (fun () ->
        let c = Engine_sat.harvest ctx in
        match screen with Some sc -> Counters.combine c sc.Specreduce.counters | None -> c);
    shutdown = (fun () -> Engine_sat.shutdown ctx);
  }

(* [count] folds counters into the run's accumulator: the BDD engine's,
   when it hands its partition over to the SAT sweep. *)
let make_engine ~count (options : options) deadline product =
  match options.engine with
  | Bdd_engine when not options.use_speculation ->
    (* The variable order stays the structural output-cone interleave even
       in analysis mode: keying each cone's latches by next-state level or
       cone size was measured on the suite and blows the lfsr16 peak up
       10x — depth-sorted sides lose the cross-side adjacency the
       interleave provides.  Analysis still shapes the BDD run through the
       pre-reduced circuits. *)
    let latch_order = latch_order_from_outputs product in
    let care_of =
      if not options.use_reach_dontcare then None
      else
        Some
          (fun m s_vars ->
            let trans = Reach.Trans.make product.Product.aig in
            let ub = Reach.Approx.upper_bound ~block_size:options.reach_block_size trans in
            match Bdd.Reorder.copy_to ~src:trans.Reach.Trans.m ~dst:m [ ub ] with
            | [ ub' ] ->
              let perm =
                Array.to_list
                  (Array.mapi (fun i cs -> (cs, s_vars.(i))) trans.Reach.Trans.cs_vars)
              in
              Bdd.rename m ub' perm
            | _ -> assert false)
    in
    (* The hand-off.  At depth 1 the greatest fixed point of Eq. (3) is a
       property of the product machine, not of the engine, and every
       split so far was a real counterexample under a Q coarser than it;
       so when the node budget runs out, the partition reached is a sound
       start for the SAT sweep at k = 1, exactly as a checkpoint resume
       is.  The BDD counters and pending pattern lanes carry over and the
       manager is dropped; the run still ends only on a SAT sweep that
       splits nothing.  [Partition.refine_class] and [refine_by_key] commit
       whole classes, so an abort mid-sweep leaves a consistent
       partition.  A node budget that runs out while the engine is built
       hands over before the first step, with the peak the build reached.
       Other budgets end the run as before. *)
    let sat () = sat_engine { options with engine = Sat_engine; sat_unroll = 1 } deadline product in
    let current =
      ref
        (match
           Engine_bdd.make ~use_fundep:options.use_fundep ~latch_order ?care_of
             ~node_limit:options.node_limit ~deadline product
         with
        | ctx ->
          {
            label = (fun () -> "bdd");
            pool = (fun () -> ctx.Engine_bdd.pool);
            refine_initial = Engine_bdd.refine_initial ctx;
            refine_once = Engine_bdd.refine_once ctx;
            harvest = (fun () -> Engine_bdd.harvest ctx);
            shutdown = ignore;
          }
        | exception Engine_bdd.Build_exceeded { reason; live_nodes } ->
          count { Counters.zero with peak_bdd_nodes = live_nodes };
          if reason = "bdd nodes" then sat () else raise (Deadline.Budget_exceeded reason))
    in
    let step f ~after p =
      try f !current p with
      | Deadline.Budget_exceeded "bdd nodes" | Bdd.Limit_exceeded ->
        let bdd = !current in
        count (bdd.harvest ());
        current := sat ();
        Simpool.reseed (!current.pool ()) p (Simpool.pending (bdd.pool ()));
        !current.refine_initial p;
        after
    in
    {
      label = (fun () -> !current.label ());
      pool = (fun () -> !current.pool ());
      refine_initial = step (fun e -> e.refine_initial) ~after:();
      refine_once = step (fun e -> e.refine_once) ~after:true;
      harvest = (fun () -> !current.harvest ());
      shutdown = (fun () -> !current.shutdown ());
    }
  | Bdd_engine | Sat_engine -> sat_engine options deadline product

(* --- candidate selection ------------------------------------------------------ *)

let candidate_nodes (options : options) product =
  let aig = product.Product.aig in
  let keep id =
    match Aig.node aig id with
    | Aig.Const -> true
    | Aig.Latch _ -> true
    | Aig.Pi _ | Aig.And _ -> options.candidates = All_signals
  in
  List.filter keep (Product.candidate_nodes product)

(* --- statistics ---------------------------------------------------------------- *)

let equivalence_percentage product partition =
  let aig = product.Product.aig in
  let total = ref 0 and matched = ref 0 in
  for id = 1 to Aig.num_nodes aig - 1 do
    if Product.node_is_spec product id && not (Product.node_is_helper product id) then begin
      match Aig.node aig id with
      | Aig.And _ | Aig.Latch _ ->
        incr total;
        if
          Partition.is_candidate partition id
          && List.exists
               (fun w -> Product.node_is_impl product w)
               (Partition.members partition (Partition.class_of partition id))
        then incr matched
      | Aig.Const | Aig.Pi _ -> ()
    end
  done;
  if !total = 0 then 100.0 else 100.0 *. float_of_int !matched /. float_of_int !total

(* --- sound refutation by simulation ---------------------------------------------- *)

let simulate_difference ~seed ~n_frames spec impl =
  let n_pis = Aig.num_pis spec in
  let frames = Aig.Sim.random_frames ~seed ~n_pis ~n_frames in
  let o1, _ = Aig.Sim.run spec frames and o2, _ = Aig.Sim.run impl frames in
  (* locate the first frame and bit position where any output pair differs *)
  let diff_bit f1 f2 =
    List.fold_left
      (fun acc (name, w1) ->
        match acc with
        | Some _ -> acc
        | None -> (
          match List.assoc_opt name f2 with
          | Some w2 when w1 <> w2 ->
            let d = Int64.logxor w1 w2 in
            let rec bit i =
              if Int64.logand (Int64.shift_right_logical d i) 1L = 1L then i else bit (i + 1)
            in
            Some (bit 0)
          | _ -> None))
      None f1
  in
  (* the trace of the first differing frame, read from the differing bit
     lane of every frame up to it *)
  let rec scan i seen frames o1 o2 =
    match (frames, o1, o2) with
    | words :: frames, f1 :: r1, f2 :: r2 -> (
      let seen = words :: seen in
      match diff_bit f1 f2 with
      | Some bit ->
        let trace =
          Array.of_list
            (List.rev_map
               (fun ws ->
                 Array.map (fun w -> Int64.logand (Int64.shift_right_logical w bit) 1L = 1L) ws)
               seen)
        in
        Some (i, trace)
      | None -> scan (i + 1) seen frames r1 r2)
    | _ -> None
  in
  scan 0 [] frames o1 o2

(* --- initial-frame disproofs -------------------------------------------------------- *)

(* When the initial refinement separates an output pair, the circuits
   differ within the first frames it inspected: the exact initial-state
   condition covers one frame for the BDD engine and [sat_unroll] for the
   SAT engine, and the simulation seed covers [sim_frames] random frames.
   Derive the concrete witness with a bounded refutation over the exact
   window (or [bmc_depth], if deeper: this is the run's one bounded
   refutation, so it must find what a late one would), then by replaying
   the seed's own frames, so the verdict never ships without a trace. *)
let initial_disproof (options : options) product spec impl =
  match
    Reach.Bmc.check
      ~max_depth:(max (effective_induction options - 1) options.bmc_depth)
      product.Product.aig
  with
  | Reach.Bmc.Counterexample cex -> (cex.Reach.Bmc.depth, Some cex.Reach.Bmc.inputs)
  | Reach.Bmc.No_counterexample _ | Reach.Bmc.Budget _ -> (
    match simulate_difference ~seed:options.seed ~n_frames:options.sim_frames spec impl with
    | Some (frame, trace) -> (frame, Some trace)
    | None -> (0, None))

(* --- outputs proved? (Theorem 1) --------------------------------------------------- *)

(* With all signals as candidates, the output functions are themselves
   members of F, so Theorem 1 reduces to a class-membership test. *)
let outputs_in_same_class product partition =
  List.for_all
    (fun (_, ls, li) -> Partition.lits_equal partition ls li)
    product.Product.outputs

(* With registers only ([5]/[9]), equivalence of the outputs is a
   combinational check under the proven register correspondence: tie the
   corresponding state variables together and compare the output pairs
   with SAT. *)
let outputs_proved_by_tying product partition =
  let aig = product.Product.aig in
  let solver = Sat.create () in
  let latch_vars = Array.init (Aig.num_latches aig) (fun _ -> Sat.new_var solver) in
  let pi_vars = Array.init (Aig.num_pis aig) (fun _ -> Sat.new_var solver) in
  let lit_of =
    Aig.Cnf.encode solver aig ~pi_var:(fun i -> pi_vars.(i))
      ~latch_var:(fun i -> latch_vars.(i))
  in
  (* assert the correspondence condition Q over the state variables *)
  let norm_sat_lit id =
    (* SAT literal of the normalized function of a latch or const node *)
    lit_of (Partition.norm_lit partition id)
  in
  List.iter
    (fun cls ->
      match Partition.members partition cls with
      | [] | [ _ ] -> ()
      | rep :: rest ->
        let is_latch_or_const id =
          match Aig.node aig id with
          | Aig.Latch _ | Aig.Const -> true
          | Aig.Pi _ | Aig.And _ -> false
        in
        if is_latch_or_const rep then
          List.iter
            (fun id ->
              if is_latch_or_const id then begin
                let a = norm_sat_lit rep and b = norm_sat_lit id in
                Sat.add_clause solver [ Sat.Lit.negate a; b ];
                Sat.add_clause solver [ a; Sat.Lit.negate b ]
              end)
            rest)
    (Partition.multi_member_classes partition);
  List.for_all
    (fun (_, ls, li) ->
      let a = lit_of ls and b = lit_of li in
      if a = b then true
      else begin
        let s = Sat.new_var solver in
        let sl = Sat.Lit.pos s and ns = Sat.Lit.neg s in
        Sat.add_clause solver [ ns; a; b ];
        Sat.add_clause solver [ ns; Sat.Lit.negate a; Sat.Lit.negate b ];
        let r = Sat.solve ~assumptions:[ sl ] solver in
        Sat.add_clause solver [ ns ];
        r = Sat.Unsat
      end)
    product.Product.outputs

let outputs_proved (options : options) product partition =
  match options.candidates with
  | All_signals -> outputs_in_same_class product partition
  | Registers_only -> outputs_proved_by_tying product partition

(* --- main entry --------------------------------------------------------------------- *)

(* Add [dt] seconds to phase [name] of a per-phase wall-clock list. *)
let add_phase phases (name, dt) =
  match List.assoc_opt name phases with
  | Some t -> (name, t +. dt) :: List.remove_assoc name phases
  | None -> phases @ [ (name, dt) ]

(* The retired baselines and an induction depth past the bound are
   refused before any circuit work. *)
let check_options options =
  if not options.use_batched_sweeps then
    invalid_arg "Verify: use_batched_sweeps = false (the pairwise scans are gone)";
  if not options.use_incremental then
    invalid_arg "Verify: use_incremental = false (the throwaway-solver baseline is gone)";
  if options.sat_unroll > max_induction then
    invalid_arg
      (Printf.sprintf "Verify: sat_unroll %d exceeds the induction bound %d" options.sat_unroll
         max_induction)

(* Preflight the pair as given, then return the pair a run under
   [options] verifies: preflight refuses to spend BDD/SAT effort on
   structurally broken circuits — every error-level lint finding is
   reported at once (raises [Lint.Rejected] with the rendered report). *)
let admit options spec impl =
  if options.preflight then begin
    Lint.preflight_aig ~subject:"specification" spec;
    Lint.preflight_aig ~subject:"implementation" impl
  end;
  if prereduces options then
    ( fst (Analysis.Reduce.run ~seed:options.seed spec),
      fst (Analysis.Reduce.run ~seed:options.seed impl) )
  else (spec, impl)

(* The run proper, on the pair [spec], [impl] that {!admit} returned for
   the pair [given] as supplied: checkpoints, like certificates, bind
   [given], so a resumed run re-applies the same reduction first. *)
let verify_pair ~options ~given:(given_spec, given_impl) spec impl =
  let start = Clock.now () in
  let deadline =
    let d = Deadline.make ~seconds:options.deadline_seconds in
    match options.cancel with None -> d | Some f -> Deadline.with_flag f d
  in
  (* reject an incompatible checkpoint before spending any effort: the
     fingerprints, candidate set, seed and induction depth must all allow
     the resumed run to reach the same greatest fixed point *)
  (match options.resume with
  | None -> ()
  | Some cp ->
    Checkpoint.validate ~spec:given_spec ~impl:given_impl
      ~candidates:(candidates_string options)
      ~induction:(effective_induction options) ~seed:options.seed cp);
  let product = Product.make spec impl in
  (* every source's harvest, and this loop's own counts, fold into one
     accumulator *)
  let acc = ref Counters.zero in
  let count c = acc := Counters.combine !acc c in
  (* per-phase wall clock, accumulated across retiming rounds; the
     exception-safe [Clock.measure] keeps the elapsed time of phases that
     abort on a blown budget *)
  let phases = ref [] in
  let phase name f = Clock.measure ~record:(fun dt -> phases := add_phase !phases (name, dt)) f in
  let exhausted = ref None in
  (* pending counterexample lanes of the aborted engine, captured by the
     per-round finalizer so budget aborts can checkpoint them *)
  let pool_pending = ref [] in
  let notify engine partition =
    match options.progress with
    | None -> ()
    | Some f ->
      f
        {
          p_round = !acc.retime_rounds;
          p_iteration = !acc.iterations;
          p_classes = Partition.n_classes partition;
          p_engine = engine.label ();
        }
  in
  let spec_digest = lazy (Relation.fingerprint given_spec) in
  let impl_digest = lazy (Relation.fingerprint given_impl) in
  let mk_stats partition =
    {
      !acc with
      candidates =
        (match partition with
        | Some p ->
          List.length
            (List.filter
               (fun id -> Partition.is_candidate p id)
               (Product.candidate_nodes product))
        | None -> 0);
      classes = (match partition with Some p -> Partition.n_classes p | None -> 0);
      eq_pct = (match partition with Some p -> equivalence_percentage product p | None -> 0.0);
      seconds = Clock.since start;
      phase_seconds = !phases;
      exhausted = !exhausted;
    }
  in
  let checkpoint_of ~round ~patterns partition =
    {
      Checkpoint.relation =
        relation_of ~options ~spec_digest:(Lazy.force spec_digest)
          ~impl_digest:(Lazy.force impl_digest) ~retime_rounds:round product partition;
      seed = options.seed;
      iterations = !acc.iterations;
      patterns;
    }
  in
  let write_checkpoint ~round ~patterns partition =
    match options.checkpoint_path with
    | None -> ()
    | Some path -> Checkpoint.to_file path (checkpoint_of ~round ~patterns partition)
  in
  let relation = ref None in
  let finish verdict = (verdict, product, !relation) in
  finish
  @@
  match
    phase "refute" (fun () ->
        simulate_difference ~seed:options.seed ~n_frames:options.presim_frames spec impl)
  with
  | Some (frame, trace) -> Not_equivalent { frame; trace = Some trace; stats = mk_stats None }
  | None ->
    let start_round =
      (* resume: replay the checkpointed retiming augmentations (they are
         deterministic functions of the product machine) and pick the
         iteration up at the round that was interrupted *)
      match options.resume with
      | None -> 0
      | Some cp ->
        (match Relation.replay cp.Checkpoint.relation product with
        | Ok () -> ()
        | Error got ->
          raise
            (Checkpoint.Incompatible
               (Printf.sprintf
                  "product-machine shape mismatch: checkpoint has %d nodes, rebuilt \
                   product has %d"
                  cp.Checkpoint.relation.product_nodes got)));
        List.iter
          (fun (pi, latch) ->
            if
              Array.length pi <> Aig.num_pis product.Product.aig
              || Array.length latch <> Aig.num_latches product.Product.aig
            then raise (Checkpoint.Incompatible "pattern width mismatch"))
          cp.Checkpoint.patterns;
        count
          {
            Counters.zero with
            retime_rounds = cp.Checkpoint.relation.retime_rounds;
            iterations = cp.Checkpoint.iterations;
          };
        cp.Checkpoint.relation.retime_rounds
    in
    let rec round n =
      let pol = Product.reference_values ~seed:options.seed product in
      let partition =
        Partition.create
          ~n_nodes:(Aig.num_nodes product.Product.aig)
          ~candidates:(candidate_nodes options product)
          ~pol
      in
      if options.use_sim_seed then
        phase "seed" (fun () ->
            ignore
              (Simseed.refine ~seed:options.seed ~n_frames:options.sim_frames product partition));
      relation := Some partition;
      let outcome =
        try
          let engine = make_engine ~count options deadline product in
          (* idempotent so the finalizer below can back-fill the counters
             on exceptional exits (budget aborts, node-limit overruns)
             without double-counting the normal paths — an engine's
             counters must be folded in exactly once per round, whatever
             the exit *)
          let recorded = ref false in
          let record_stats () =
            if not !recorded then begin
              recorded := true;
              count (engine.harvest ());
              pool_pending := Simpool.pending (engine.pool ())
            end
          in
          Fun.protect
            ~finally:(fun () ->
              record_stats ();
              engine.shutdown ())
            (fun () ->
              phase "initial" (fun () -> engine.refine_initial partition);
              notify engine partition;
              (* conclusive check: before any Eq.3 refinement, a split output
                 pair reflects a genuine difference at (or simulated from) the
                 initial state.  Only available when the outputs themselves are
                 candidates. *)
              if
                options.candidates = All_signals
                && not (outputs_in_same_class product partition)
              then begin
                record_stats ();
                let frame, trace =
                  phase "refute" (fun () -> initial_disproof options product spec impl)
                in
                `Done (Not_equivalent { frame; trace; stats = mk_stats (Some partition) })
              end
              else begin
                (* ternary-simulation seeding: exact splits by X-valued
                   signatures from the initial state; placed after the
                   conclusive check above so it can only sharpen the fixed
                   point, never distort the initial-frame refutation *)
                if options.use_ternary_seed then
                  phase "seed" (fun () -> ignore (Ternseed.refine product partition));
                (* resume: fast-forward the partition to the checkpointed
                   classes and replay the buffered counterexample lanes.
                   Placed after the deterministic seeding phases (which the
                   original run went through too) and after the conclusive
                   initial-frame check above, so a checkpoint can sharpen
                   the fixed point but never fabricate a refutation. *)
                (match options.resume with
                | Some cp when n = start_round ->
                  phase "seed" (fun () ->
                      ignore (Checkpoint.seed_partition cp partition);
                      Simpool.reseed (engine.pool ()) partition cp.Checkpoint.patterns)
                | Some _ | None -> ());
                let poll () =
                  if Deadline.expired deadline then raise (Deadline.Budget_exceeded "deadline");
                  if options.max_iterations > 0 && !acc.iterations >= options.max_iterations
                  then raise (Deadline.Budget_exceeded "iterations")
                in
                phase "fixpoint" (fun () ->
                    poll ();
                    while engine.refine_once partition do
                      count { Counters.zero with iterations = 1 };
                      notify engine partition;
                      poll ();
                      if
                        options.checkpoint_every > 0
                        && !acc.iterations mod options.checkpoint_every = 0
                      then
                        write_checkpoint ~round:n ~patterns:(Simpool.pending (engine.pool ()))
                          partition
                    done);
                count { Counters.zero with iterations = 1 };
                record_stats ();
                if phase "outputs" (fun () -> outputs_proved options product partition) then
                  `Done (Equivalent (mk_stats (Some partition)))
                else `Unproved
              end)
        with Deadline.Budget_exceeded why -> `Aborted why
      in
      (* The bounded refutation (Theorem 1 needs none): exhaustive up to
         [bmc_depth], it catches the corner-case differences random
         simulation misses and yields a concrete trace.  It runs once per
         run, when the first round would end or go on without a proof:
         its fixed point left the outputs unproved, or a budget aborted
         it.  A proof by the first round never pays for it.  It, the
         retiming extension and its fresh engine all run after the
         finalizer, so at most one engine (and no engine beside the BMC
         solver) is alive at a time. *)
      let late_refute () =
        if n > start_round || options.bmc_depth <= 0 then Reach.Bmc.No_counterexample (-1)
        else
          phase "refute" (fun () ->
              Reach.Bmc.check ~max_depth:options.bmc_depth product.Product.aig)
      in
      match outcome with
      | `Done verdict -> verdict
      | (`Aborted _ | `Unproved) as unproved -> (
        match late_refute () with
        | Reach.Bmc.Counterexample cex ->
          Not_equivalent
            {
              frame = cex.Reach.Bmc.depth;
              trace = Some cex.Reach.Bmc.inputs;
              stats = mk_stats (Some partition);
            }
        | Reach.Bmc.No_counterexample _ | Reach.Bmc.Budget _ -> (
          match unproved with
          | `Aborted why ->
            exhausted := Some why;
            write_checkpoint ~round:n ~patterns:!pool_pending partition;
            Unknown (mk_stats (Some partition))
          | `Unproved ->
            if options.use_retime && n < options.max_retime_rounds then begin
              count { Counters.zero with retime_rounds = 1 };
              if Retime_aug.augment product > 0 then round (n + 1)
              else Unknown (mk_stats (Some partition))
            end
            else Unknown (mk_stats (Some partition))))
    in
    round start_round

(* Full entry point: the verdict plus, when a fixed point was computed,
   the product machine and the final correspondence relation — the
   checker's certificate ("show your work"). *)
let run_with_relation ?(options = default_options) spec impl =
  check_options options;
  let spec', impl' = admit options spec impl in
  verify_pair ~options ~given:(spec, impl) spec' impl'

let run ?options spec impl =
  let verdict, _, _ = run_with_relation ?options spec impl in
  verdict

(* The relation of a finished (or aborted) run, for a certificate or a
   checkpoint. *)
let relation_of_run ~options ~spec ~impl (verdict, product, partition) =
  relation_of ~options ~spec_digest:(Relation.fingerprint spec)
    ~impl_digest:(Relation.fingerprint impl)
    ~retime_rounds:(verdict_stats verdict).retime_rounds product partition

(* Snapshot a finished (or aborted) run as an in-memory checkpoint, so a
   later run — the serve daemon's warm starts — can pick the refinement
   up where this one left off. *)
let checkpoint_of_run ~(options : options) ~spec ~impl (verdict, product, relation) =
  match relation with
  | None -> Error "the run produced no correspondence relation to checkpoint"
  | Some partition ->
    Ok
      {
        Checkpoint.relation = relation_of_run ~options ~spec ~impl (verdict, product, partition);
        seed = options.seed;
        iterations = (verdict_stats verdict).iterations;
        patterns = [];
      }

(* Register correspondence only ([5], [9]): the special case whose
   generalization to all signals is the paper's contribution. *)
let register_correspondence ?(options = default_options) spec impl =
  run ~options:{ options with candidates = Registers_only } spec impl

(* Human-readable dump of the multi-member classes of the final relation:
   each entry tags the node with its side, id, kind and polarity. *)
let pp_relation ppf (product, partition) =
  let aig = product.Product.aig in
  let describe id =
    let side =
      match (Product.node_is_spec product id, Product.node_is_impl product id) with
      | true, true -> "shared"
      | true, false -> "spec"
      | false, true -> "impl"
      | false, false -> if Product.node_is_helper product id then "retime" else "miter"
    in
    let kind =
      match Aig.node aig id with
      | Aig.Const -> "const"
      | Aig.Pi i -> Printf.sprintf "pi%d" i
      | Aig.Latch i -> Printf.sprintf "latch%d" i
      | Aig.And _ -> Printf.sprintf "and%d" id
    in
    Printf.sprintf "%s%s:%s" (if Partition.polarity partition id then "~" else "") side kind
  in
  let classes = Partition.multi_member_classes partition in
  Format.fprintf ppf "signal correspondence relation: %d classes (%d with partners)@."
    (Partition.n_classes partition) (List.length classes);
  List.iter
    (fun cls ->
      Format.fprintf ppf "  {%s}@."
        (String.concat ", " (List.map describe (Partition.members partition cls))))
    classes

(* Portfolio mode: what a production deployment runs.  One rung per
   induction depth k = 1 .. [max_unroll], in ascending k, until one
   returns a conclusive verdict; every rung is sound, so the first
   conclusive answer stands.  The k = 1 rung is [options.engine] — the
   BDD engine hands its partition to the SAT sweep if its node budget
   runs out (see {!make_engine}) — and the deeper rungs are the SAT
   engine's k-inductive strengthenings.  [options.resume] seeds every
   rung its depth allows (a depth-kc checkpoint seeds k <= kc).

   With a deadline set, the remaining wall clock is split evenly over the
   remaining rungs.

   With [use_analysis] set, both circuits are pre-reduced once for every
   rung ({!admit}), and the k = 1 engine is the one
   {!Analysis.Steer.bdd_first} picks from the shape metrics. *)
let portfolio ?(options = default_options) ?(max_unroll = 3) spec impl =
  let given = (spec, impl) in
  let spec, impl = admit options spec impl in
  let k1_engine =
    if not options.use_analysis then options.engine
    else begin
      let ms = Analysis.Metrics.summary spec and mi = Analysis.Metrics.summary impl in
      let bdd_first =
        Analysis.Steer.bdd_first
          ~product_latches:(ms.Analysis.Metrics.latches + mi.Analysis.Metrics.latches)
          ~levels:(max ms.Analysis.Metrics.levels mi.Analysis.Metrics.levels)
      in
      if bdd_first then Bdd_engine else Sat_engine
    end
  in
  let rungs = max 1 max_unroll in
  let t0 = Clock.now () in
  let remaining () = options.deadline_seconds -. Clock.since t0 in
  let timed = options.deadline_seconds > 0.0 in
  (* the verdict reports the whole run: every rung's counters, phases
     and time, with the final rung's relation figures *)
  let add_rung (earlier : stats) (s : stats) =
    {
      (Counters.combine s earlier) with
      seconds = earlier.seconds +. s.seconds;
      phase_seconds = List.fold_left add_phase earlier.phase_seconds s.phase_seconds;
    }
  in
  let with_stats s = function
    | Equivalent _ -> Equivalent s
    | Not_equivalent r -> Not_equivalent { r with stats = s }
    | Unknown _ -> Unknown s
  in
  let rec rung k earlier =
    let opts =
      {
        options with
        engine = (if k = 1 then k1_engine else Sat_engine);
        sat_unroll = k;
        (* the k = 1 rung has simulated and bounded-model-checked this
           very product; repeating either cannot change the answer *)
        presim_frames = (if k = 1 then options.presim_frames else 0);
        bmc_depth = (if k = 1 then options.bmc_depth else 0);
        resume =
          (match options.resume with
          | Some cp when cp.Checkpoint.relation.induction >= k -> Some cp
          | Some _ | None -> None);
        deadline_seconds =
          (if timed then max 0.001 (remaining () /. float_of_int (rungs - k + 1)) else 0.0);
      }
    in
    check_options opts;
    let verdict, _, _ = verify_pair ~options:opts ~given spec impl in
    let total = add_rung earlier (verdict_stats verdict) in
    match verdict with
    | Unknown _ when k < rungs && ((not timed) || remaining () > 0.001) -> rung (k + 1) total
    | verdict -> with_stats total verdict
  in
  rung 1 Counters.zero
