(* SAT-based refinement engine: the paper's future-work variant built on
   "extra variables representing intermediate signals" (Tseitin encoding).

   The product machine is unrolled into [k]+1 time frames sharing one
   solver: frame 1 starts from a free state, each later frame feeds the
   latches with the previous frame's next-state values.  The
   correspondence condition Q is assumed in frames 1..k through equality
   selector literals, and candidate pairs are compared in frame k+1 —
   [k] = 1 is exactly the paper's Equation (3); larger [k] is the
   k-inductive strengthening (signals must stay equal for k steps before
   the relation is required to propagate), which proves strictly more
   pairs at higher cost.  The base case adapts accordingly: classes must
   agree on the first k frames reachable from the initial state.

   Because everything is assumption-based, the clause database and all
   learned clauses persist across every query of every iteration.

   The hot loop is organised around three cooperating optimisations:

   - batched disjunctive sweeps: one solve per multi-member class (assume
     Q, assert the OR of the class's difference selectors through a fresh
     staging selector) instead of one solve per candidate pair, so a
     sweep costs O(#classes) queries rather than O(sum of class sizes);

   - a counterexample pattern pool ({!Simpool}): each model's last-frame
     state+input valuation is packed as a bit lane and applied to *all*
     classes at once by one bit-parallel simulation pass when the lane
     buffer fills or a hit class is about to be re-solved;

   - failed-core transfer: an UNSAT proof whose failed-assumption core
     still holds after a split re-proves its class without a solve; a
     sweep that splits nothing is the fixed point.

   Eq.(3) sweeps are scheduled through a {!Parsweep} pool: the class
   checks of one round are independent given a frozen partition
   snapshot, so they are sharded across worker domains, each owning a
   private copy of the unrolled product CNF plus private selector tables
   and Q cache.  Workers never touch the partition: tasks carry
   the frozen normalized member literals, and the coordinator applies
   verdicts and pools witness valuations serially in ascending class
   order.  Every split is justified by a run conforming to the frozen
   (coarser-or-equal) partition's Q, so the greatest fixed point reached
   is the same for every worker count — only which lane found which
   witness varies.

   Lanes share no solver state: each learns only from its own solves. *)

(* Private per-lane solving state: a full copy of the k+1-frame
   unrolling with its own selector tables and Q-assumption cache.  Lane
   0 aliases the context's primary solver (the coordinator participates
   in its own pool), so a 1-job context allocates nothing extra. *)
type wstate = {
  w_solver : Sat.t;
  w_frames : (int -> Sat.Lit.t) array;
  w_eq_sel : (int * int * int, int) Hashtbl.t;
  w_diff_sel : (int * int, int) Hashtbl.t;
  w_sel_pair : (int, int * int) Hashtbl.t;
      (* selector variable -> the (la, lb) equality it asserts, for
         mapping failed-assumption cores back to constraint pairs *)
  mutable w_q : (int * Sat.Lit.t list) option; (* per-version Q selectors *)
}

type ctx = {
  p : Product.t;
  k : int; (* induction depth; 1 = the paper *)
  solver : Sat.t; (* lane 0's k+1-frame unrolling *)
  solver0 : Sat.t; (* the initialized unrolling: frames 0..k-1 from s0 *)
  init_frames : (int -> Sat.Lit.t) array;
  diff_sel0 : (int * int * int, int) Hashtbl.t; (* (frame, la, lb) *)
  sat_calls : int Atomic.t;
      (* shared across lanes: every solve reserves a slot *before* it is
         issued, so the call budget is enforced per solve, not per
         round, and a parallel round overshoots by at most the [jobs]
         solves already in flight *)
  max_sat_calls : int;
  deadline : Deadline.t; (* wall-clock budget, polled per class solve *)
  pool : Simpool.t; (* counterexample patterns, replayed bit-parallel *)
  mutable batched : int; (* staged class solves issued *)
  mutable cache_hits : int;
      (* classes the speculation screen proved, and initial-refinement
         checks already clean *)
  pi_nodes : int array; (* PI node ids by input index *)
  init_clean : (int, int) Hashtbl.t; (* class -> frames proven clean from s0 *)
  sched : wstate Parsweep.t; (* persistent pool; lane 0 = primary solver *)
  reused_clauses : int Atomic.t;
  mutable core_prunes : int;
  stable_cores : (int, int array * (int * int) list) Hashtbl.t;
      (* class -> (member literals at proof time, failed-core pairs): an
         UNSAT proof transfers to any later version in which the member
         list is unchanged and every core equality still holds *)
}

(* One lane's private k+1-frame unrolling. *)
let unrolled_lane aig k =
  let s = Sat.create () in
  let vars = Array.init (Aig.num_latches aig) (fun _ -> Sat.new_var s) in
  let fr = fst (Aig.Cnf.unroll s aig ~n:(k + 1) ~first_latch_var:(Array.get vars)) in
  {
    w_solver = s;
    w_frames = fr;
    w_eq_sel = Hashtbl.create 256;
    w_diff_sel = Hashtbl.create 256;
    w_sel_pair = Hashtbl.create 256;
    w_q = None;
  }

let make ?(max_sat_calls = max_int) ?(k = 1) ?(jobs = 1) ?(deadline = Deadline.none) p =
  if k < 1 then invalid_arg "Engine_sat.make: k must be >= 1";
  let aig = p.Product.aig in
  (* Lane 0 is built here and run by the coordinator inside its own pool;
     other lanes build their copy inside their own domain. *)
  let lane0 = unrolled_lane aig k in
  let solver0 = Sat.create () in
  let s0_vars =
    Array.init (Aig.num_latches aig) (fun i ->
        let v = Sat.new_var solver0 in
        Sat.add_clause solver0 [ Sat.Lit.make v (Aig.latch_init aig i) ];
        v)
  in
  let init_frames =
    fst (Aig.Cnf.unroll solver0 aig ~n:k ~first_latch_var:(Array.get s0_vars))
  in
  {
    p;
    k;
    solver = lane0.w_solver;
    solver0;
    init_frames;
    diff_sel0 = Hashtbl.create 256;
    sat_calls = Atomic.make 0;
    max_sat_calls;
    deadline;
    pool = Simpool.create aig;
    batched = 0;
    cache_hits = 0;
    pi_nodes = Array.of_list (Aig.pis aig);
    init_clean = Hashtbl.create 256;
    sched =
      Parsweep.create ~jobs ~init:(fun lane -> if lane = 0 then lane0 else unrolled_lane aig k);
    reused_clauses = Atomic.make 0;
    core_prunes = 0;
    stable_cores = Hashtbl.create 256;
  }

let shutdown ctx = Parsweep.shutdown ctx.sched
let pool ctx = ctx.pool

(* The context's run counters, read live from the primary pair plus
   every initialized worker lane (lane 0 aliases the primary solver and
   is skipped).  Coordinator-only, between rounds. *)
let harvest ctx =
  let lane_solvers =
    List.filter_map
      (fun w -> if w.w_solver == ctx.solver then None else Some w.w_solver)
      (Parsweep.initialized_states ctx.sched)
  in
  let solvers = ctx.solver :: ctx.solver0 :: lane_solvers in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 solvers in
  {
    (Counters.combine (Simpool.harvest ctx.pool) (Parsweep.harvest ctx.sched)) with
    Counters.batched_solves = ctx.batched;
    cache_hits = ctx.cache_hits;
    sat_calls = Atomic.get ctx.sat_calls;
    conflicts = sum Sat.num_conflicts;
    propagations = sum Sat.num_propagations;
    restarts = sum Sat.num_restarts;
    encoded_vars = sum Sat.num_vars;
    reused_clauses = Atomic.get ctx.reused_clauses;
    core_prunes = ctx.core_prunes;
  }

let norm_key la lb = if la <= lb then (la, lb) else (lb, la)

(* selector literal sel with sel -> (a <-> b) *)
let equality_selector solver table key a b =
  match Hashtbl.find_opt table key with
  | Some v -> Sat.Lit.pos v
  | None ->
    let v = Sat.new_var solver in
    let sl = Sat.Lit.pos v and ns = Sat.Lit.neg v in
    Sat.add_clause solver [ ns; Sat.Lit.negate a; b ];
    Sat.add_clause solver [ ns; a; Sat.Lit.negate b ];
    Hashtbl.replace table key v;
    sl

(* selector literal sel with sel -> (a <> b) *)
let difference_selector solver table key a b =
  match Hashtbl.find_opt table key with
  | Some v -> Sat.Lit.pos v
  | None ->
    let v = Sat.new_var solver in
    let sl = Sat.Lit.pos v and ns = Sat.Lit.neg v in
    Sat.add_clause solver [ ns; a; b ];
    Sat.add_clause solver [ ns; Sat.Lit.negate a; Sat.Lit.negate b ];
    Hashtbl.replace table key v;
    sl

(* Reserve one solve against the shared budgets; called from worker
   lanes as well as the coordinator.  The deadline check reads the
   shared cancellation flag, so once any lane sees expiry every other
   lane aborts at its next class solve.  A refused reservation is
   backed out so [sat_calls] keeps counting solves actually issued. *)
let check_budget ctx =
  if Deadline.expired ctx.deadline then raise (Deadline.Budget_exceeded "deadline");
  if Atomic.fetch_and_add ctx.sat_calls 1 >= ctx.max_sat_calls then begin
    Atomic.decr ctx.sat_calls;
    raise (Deadline.Budget_exceeded "sat calls")
  end

(* Pack the model's valuation of one frame (its state and inputs) into the
   pattern pool; a later flush replays it against every class at once. *)
let pool_model ctx solver lit_of =
  let aig = ctx.p.Product.aig in
  Simpool.add ctx.pool
    ~pi:(fun i -> Sat.value_lit solver (lit_of (Aig.lit_of_node ctx.pi_nodes.(i))))
    ~latch:(fun i ->
      Sat.value_lit solver (lit_of (Aig.lit_of_node (Aig.latch_node aig i))))

(* --- batched sweeps ----------------------------------------------------------- *)

(* Exact initial-state refinement (Equation 2), batched: one staged solve
   per (class, frame) asserting the OR of the class's difference
   selectors.  Counterexamples are pooled and applied in bit-parallel
   batches between passes.  An UNSAT answer here is permanent — solver0
   has no removable assumptions and class member sets only shrink — so
   proven (class, frame) prefixes are cached in [init_clean].  The OR is
   staged through an activation-guarded clause on the persistent
   initialized solver, and the guard is {!Sat.release}d after the
   answer. *)
let refine_initial ctx partition =
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun cls ->
        let clean =
          match Hashtbl.find_opt ctx.init_clean cls with Some f -> f | None -> 0
        in
        if clean >= ctx.k then ctx.cache_hits <- ctx.cache_hits + 1
        else begin
          let rec frames frame =
            if frame < ctx.k then begin
              match Partition.members partition cls with
              | [] | [ _ ] -> ()
              | rep :: rest ->
                let lit_of = ctx.init_frames.(frame) in
                let la = Partition.norm_lit partition rep in
                let a = lit_of la in
                let diffs =
                  List.filter_map
                    (fun id ->
                      let lb = Partition.norm_lit partition id in
                      if a = lit_of lb then None else Some lb)
                    rest
                in
                (match diffs with
                | [] ->
                  Hashtbl.replace ctx.init_clean cls (frame + 1);
                  frames (frame + 1)
                | diffs ->
                  check_budget ctx;
                  ctx.batched <- ctx.batched + 1;
                  ignore
                    (Atomic.fetch_and_add ctx.reused_clauses (Sat.num_clauses ctx.solver0));
                  let dsels =
                    List.map
                      (fun lb ->
                        let ka, kb = norm_key la lb in
                        difference_selector ctx.solver0 ctx.diff_sel0 (frame, ka, kb) a
                          (lit_of lb))
                      diffs
                  in
                  let g = Sat.new_var ctx.solver0 in
                  Sat.add_clause ~act:g ctx.solver0 dsels;
                  let answer = Sat.solve ~assumptions:[ Sat.Lit.pos g ] ctx.solver0 in
                  (* read the model before releasing the staging guard:
                     the release backtracks the trail *)
                  (match answer with
                  | Sat.Unsat -> ()
                  | Sat.Sat -> pool_model ctx ctx.solver0 lit_of);
                  Sat.release ctx.solver0 g;
                  (match answer with
                  | Sat.Unsat ->
                    Hashtbl.replace ctx.init_clean cls (frame + 1);
                    frames (frame + 1)
                  | Sat.Sat ->
                    (* the violating frame is pooled; the end-of-pass flush
                       splits the witnessed pair, so the next pass makes
                       progress here *)
                    progress := true;
                    if Simpool.is_full ctx.pool then ignore (Simpool.flush ctx.pool partition)))
            end
          in
          frames clean
        end)
      (Partition.multi_member_classes partition);
    if Simpool.flush ctx.pool partition > 0 then progress := true
  done

(* A sweep task: one class to check, frozen at round start as its
   polarity-normalized member literals (representative first), so worker
   lanes never read the shared partition. *)
type task = { t_cls : int; t_lits : int array }

type outcome =
  | O_trivial (* all members share one frame-k literal: stable for free *)
  | O_stable of (int * int) list
      (* UNSAT: no Eq.(3) violation under the frozen Q; the payload is
         the failed-assumption core mapped back to normalized constraint
         pairs — the only Q equalities the refutation used *)
  | O_witness of bool array * bool array
      (* (inputs, state) valuation of the last frame of a violating run *)

(* Per-lane Q selectors for one partition version, built from the frozen
   (rep, member) normalized-literal pairs the coordinator captured.
   Every selector is remembered in [w_sel_pair] so failed-assumption
   cores can be mapped back to the pairs they mention. *)
let lane_q ctx w ~version ~pairs =
  match w.w_q with
  | Some (v, q) when v = version -> q
  | _ ->
    let q =
      List.concat_map
        (fun (la, lb) ->
          List.filter_map
            (fun frame ->
              let lit_of = w.w_frames.(frame) in
              let a = lit_of la and b = lit_of lb in
              if a = b then None
              else begin
                let ka, kb = norm_key la lb in
                let sl = equality_selector w.w_solver w.w_eq_sel (frame, ka, kb) a b in
                Hashtbl.replace w.w_sel_pair (Sat.Lit.var sl) (ka, kb);
                Some sl
              end)
            (List.init ctx.k (fun i -> i)))
        pairs
    in
    w.w_q <- Some (version, q);
    q

(* One staged-OR class solve on a lane's private persistent solver;
   read-only with respect to all shared state.  The staging guard is an
   activation variable released after the answer, so the retired OR
   clause (and any learned clause mentioning it) is garbage-collected
   instead of burdening propagation forever. *)
let solve_class ctx w ~version ~pairs task =
  let last = w.w_frames.(ctx.k) in
  let la = task.t_lits.(0) in
  let a = last la in
  let dsels = ref [] in
  for i = Array.length task.t_lits - 1 downto 1 do
    let lb = task.t_lits.(i) in
    let b = last lb in
    if a <> b then begin
      let ka, kb = norm_key la lb in
      dsels := difference_selector w.w_solver w.w_diff_sel (ka, kb) a b :: !dsels
    end
  done;
  match !dsels with
  | [] -> O_trivial
  | dsels ->
    (* per-solve budget poll, on the lane: bounds call-count overshoot
       by the solves in flight and lands deadline aborts within one
       class solve *)
    check_budget ctx;
    ignore (Atomic.fetch_and_add ctx.reused_clauses (Sat.num_clauses w.w_solver));
    let q = lane_q ctx w ~version ~pairs in
    let g = Sat.new_var w.w_solver in
    Sat.add_clause ~act:g w.w_solver dsels;
    let answer = Sat.solve ~assumptions:(Sat.Lit.pos g :: q) w.w_solver in
    (* read the model / failed core before releasing the staging guard:
       the release backtracks the trail *)
    let out =
      match answer with
      | Sat.Unsat ->
        let core =
          List.filter_map
            (fun l -> Hashtbl.find_opt w.w_sel_pair (Sat.Lit.var l))
            (Sat.failed_assumptions w.w_solver)
        in
        O_stable core
      | Sat.Sat ->
        let aig = ctx.p.Product.aig in
        let pi =
          Array.map
            (fun nd -> Sat.value_lit w.w_solver (last (Aig.lit_of_node nd)))
            ctx.pi_nodes
        in
        let latch =
          Array.init (Aig.num_latches aig) (fun i ->
              Sat.value_lit w.w_solver (last (Aig.lit_of_node (Aig.latch_node aig i))))
        in
        O_witness (pi, latch)
    in
    Sat.release w.w_solver g;
    out

(* One refinement iteration, a batched sweep round of Equation (3).
   After the opening flush of pooled witnesses, [screen] (the speculation
   screen, when given) names classes it proved on the flushed partition:
   they are skipped, one cache hit each.  Every other multi-member class
   is frozen into a task, solved across the pool's lanes, and the
   outcomes applied serially in ascending class order: a witness
   valuation joins the pattern pool and is replayed bit-parallel against
   every class.  Returns whether any class split; [false] means every
   class is stable under the round's Q, the fixed point.

   Soundness and schedule-independence: every pooled witness is a run
   conforming to the Q of a partition coarser than (or equal to) the one
   being split, so no split ever separates two signals equal in the
   greatest fixed point; since splits are also the only state change,
   every worker count converges to the same fixed point.  A screened
   class holds only when every other class holds under the same Q (the
   argument in specreduce.ml), which a round that splits nothing
   establishes.  Budgets are enforced per class solve: every lane
   reserves a slot on the shared call counter (and polls the shared
   deadline flag) before issuing a solve, so a parallel round overshoots
   [max_sat_calls] by at most [jobs] in-flight solves.  The exception of
   the smallest aborting task index is re-raised by the coordinator once
   the round's remaining tasks have drained — each of them aborts at its
   own first poll. *)
let refine_once ?screen ctx partition =
  let splits = ref (Simpool.flush ctx.pool partition) in
  let screened = Hashtbl.create 64 in
  Option.iter
    (fun screen -> List.iter (fun cls -> Hashtbl.replace screened cls ()) (screen partition))
    screen;
  if Deadline.expired ctx.deadline then raise (Deadline.Budget_exceeded "deadline");
  if Atomic.get ctx.sat_calls >= ctx.max_sat_calls then
    raise (Deadline.Budget_exceeded "sat calls");
  let vq = Partition.version partition in
  let pairs =
    List.map
      (fun (rep, id) ->
        (Partition.norm_lit partition rep, Partition.norm_lit partition id))
      (Partition.constraint_pairs partition)
  in
  let task cls =
    let lits =
      Array.of_list (List.map (Partition.norm_lit partition) (Partition.members partition cls))
    in
    (* Failed-core transfer: an UNSAT proof recorded for exactly these
       member literals whose core equalities all still hold in the
       current partition refutes the obligation at this version too —
       Q entails every equality between co-classed pairs — so the class
       is re-proved without a solve. *)
    let pruned =
      match Hashtbl.find_opt ctx.stable_cores cls with
      | Some (old_lits, core) ->
        old_lits = lits
        && List.for_all (fun (la, lb) -> Partition.lits_equal partition la lb) core
      | None -> false
    in
    if pruned then begin
      ctx.core_prunes <- ctx.core_prunes + 1;
      None
    end
    else Some { t_cls = cls; t_lits = lits }
  in
  let tasks =
    List.filter_map
      (fun cls ->
        if Hashtbl.mem screened cls then begin
          ctx.cache_hits <- ctx.cache_hits + 1;
          None
        end
        else task cls)
      (Partition.multi_member_classes partition)
    |> Array.of_list
  in
  let outcomes = Parsweep.map ctx.sched ~f:(fun w -> solve_class ctx w ~version:vq ~pairs) tasks in
  Array.iteri
    (fun i outcome ->
      match outcome with
      | O_trivial -> ()
      | O_stable core ->
        ctx.batched <- ctx.batched + 1;
        Hashtbl.replace ctx.stable_cores tasks.(i).t_cls (tasks.(i).t_lits, core)
      | O_witness (pi, latch) ->
        ctx.batched <- ctx.batched + 1;
        splits := !splits + Simpool.add_witness ctx.pool partition pi latch)
    outcomes;
  splits := !splits + Simpool.flush ctx.pool partition;
  !splits > 0
