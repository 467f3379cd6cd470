(* BDD-based refinement engine, faithful to the paper's implementation:
   current-state functions f_v(s, x_t) and next-state functions
   nu_v(s, x_t, x_{t+1}) = f_v(delta(s, x_t), x_{t+1}) are represented as
   BDDs over input and state variables (no intermediate-signal variables);
   the correspondence condition Q is a BDD whose complement acts as a
   don't-care set, optionally strengthened by an upper bound of the
   reachable state space and compressed through functional-dependency
   substitution of state variables (Section 4). *)

exception Budget_exceeded of string

(* A budget ran out while [make] built the engine: no context exists to
   harvest, so the abort carries the manager's live node count. *)
exception Build_exceeded of { reason : string; live_nodes : int }

type ctx = {
  p : Product.t;
  m : Bdd.manager;
  n_pis : int;
  n_latches : int;
  x1 : int array; (* current-frame input variables *)
  s : int array; (* state variables *)
  x2 : int array; (* next-frame input variables *)
  cur : int -> Bdd.t; (* f_v over (x1, s), by literal *)
  delta : Bdd.t array; (* next-state function of each latch, over (x1, s) *)
  nxt : int -> Bdd.t; (* nu_v over (s, x1, x2), by literal *)
  ini : int -> Bdd.t; (* f_v(s0, x1), by literal *)
  use_fundep : bool;
  care : Bdd.t; (* over s: upper bound of reachable states (or one) *)
  node_limit : int;
  deadline : Deadline.t; (* wall-clock budget, polled with every [note] *)
  mutable peak_nodes : int;
  pool : Simpool.t; (* accumulated counterexample patterns *)
  support : Support.t Lazy.t; (* structural cones for dirty scheduling *)
  proved_at : (int, int) Hashtbl.t; (* class -> version proven stable *)
  mutable n_batched : int; (* batched class scans performed *)
  mutable n_cache_hits : int; (* classes skipped by the stability cache *)
  static_filter : bool; (* split PI-support-incompatible candidates for free *)
  mutable n_static : int; (* classes split by the static prefilter *)
  sched : unit Parsweep.t;
      (* single-lane scheduler: BDD hash-consing is shared-mutable, so
         class scans stay serial, but the sweep runs through the same
         snapshot/solve/merge protocol as the SAT engine *)
}

let note ctx =
  if Deadline.expired ctx.deadline then raise (Budget_exceeded "deadline");
  let live = Bdd.live_nodes ctx.m in
  if live > ctx.peak_nodes then ctx.peak_nodes <- live;
  if live > ctx.node_limit then raise (Budget_exceeded "bdd nodes");
  (* operation caches are unbounded; keep memory proportional to the
     unique table *)
  if Bdd.memo_entries ctx.m > (4 * live) + 1_000_000 then Bdd.clear_caches ctx.m

(* [latch_order], when given, lists product latch indices in the order
   their state variables should be placed (correspondence candidates
   adjacent); [care_of] may compute a reachable upper bound over the state
   variables once they exist. *)
let make ?(use_fundep = true) ?latch_order ?care_of ?(node_limit = max_int)
    ?(deadline = Deadline.none) ?(static_filter = false) p =
  let aig = p.Product.aig in
  let m = Bdd.create () in
  if node_limit < max_int then Bdd.set_node_limit m (2 * node_limit);
  let n_pis = Aig.num_pis aig in
  let n_latches = Aig.num_latches aig in
  let x1 = Array.init n_pis (fun i -> i) in
  let s =
    let positions = Array.make n_latches (-1) in
    (match latch_order with
    | Some order -> Array.iteri (fun pos i -> positions.(i) <- pos) order
    | None ->
      for i = 0 to n_latches - 1 do
        positions.(i) <- i
      done);
    Array.init n_latches (fun i -> n_pis + positions.(i))
  in
  let x2 = Array.init n_pis (fun i -> n_pis + n_latches + i) in
  let build () =
    (* the variable nodes exist up front, so [Bdd.nvars] covers every
       state variable before any substitution array is sized *)
    let x1_vars = Array.map (Bdd.var m) x1 and s_vars = Array.map (Bdd.var m) s in
    let pi_var i = x1_vars.(i) in
    let cur = Engines.Aig_bdd.build m aig ~pi_var ~latch_var:(fun i -> s_vars.(i)) in
    let delta = Array.init n_latches (fun i -> cur (Aig.latch_next aig i)) in
    (* nu and initial-state functions are only requested for signals that
       share a class, and after simulation seeding most classes are small *)
    let nxt =
      Engines.Aig_bdd.build m aig
        ~pi_var:(fun i -> Bdd.var m x2.(i))
        ~latch_var:(fun i -> delta.(i))
    in
    let ini =
      Engines.Aig_bdd.build m aig ~pi_var
        ~latch_var:(fun i -> if Aig.latch_init aig i then Bdd.one else Bdd.zero)
    in
    let care = match care_of with Some f -> f m s | None -> Bdd.one in
    let ctx =
      { p; m; n_pis; n_latches; x1; s; x2; cur; delta; nxt; ini; use_fundep; care;
        node_limit; deadline; peak_nodes = 0; pool = Simpool.create aig;
        support = lazy (Support.make aig); proved_at = Hashtbl.create 256;
        n_batched = 0; n_cache_hits = 0; static_filter; n_static = 0;
        sched = Parsweep.create ~jobs:1 ~init:(fun _ -> ()) }
    in
    note ctx;
    ctx
  in
  let aborted reason = raise (Build_exceeded { reason; live_nodes = Bdd.live_nodes m }) in
  try build () with
  | Budget_exceeded reason -> aborted reason
  | Bdd.Limit_exceeded -> aborted "bdd nodes"

let shutdown ctx = Parsweep.shutdown ctx.sched

(* [note] samples the peak between operations; a run cut short by
   [Bdd.Limit_exceeded] inside one operation peaked at the live count it
   left behind. *)
let harvest ctx =
  {
    (Parsweep.harvest ctx.sched) with
    Counters.peak_bdd_nodes = max ctx.peak_nodes (Bdd.live_nodes ctx.m);
    pool_lanes = Simpool.total_lanes ctx.pool;
    resim_splits = Simpool.resim_splits ctx.pool;
    batched_solves = ctx.n_batched;
    cache_hits = ctx.n_cache_hits;
    static_splits = ctx.n_static;
  }

(* Zero-cost static refinement: split candidates whose structural PI
   supports are non-empty and disjoint — such pairs can only be equivalent
   if semantically input-free, which their structure contradicts.  Runs
   before each pass so pairs arising from earlier splits are caught;
   [Partition.refine_class] bumps the version and records moves, so the
   suspect/strict protocol covers these splits like any other. *)
let static_prefilter ctx partition =
  if not ctx.static_filter then 0
  else begin
    let support = Lazy.force ctx.support in
    List.fold_left
      (fun acc cls ->
        if Support.prefilter_class support partition cls then begin
          ctx.n_static <- ctx.n_static + 1;
          acc + 1
        end
        else acc)
      0
      (Partition.multi_member_classes partition)
  end

let norm ctx f pol = if pol then Bdd.mk_not ctx.m f else f

(* normalized functions of a node *)
let norm_cur ctx partition id = norm ctx (ctx.cur (Aig.lit_of_node id)) (Partition.polarity partition id)
let norm_nxt ctx partition id = norm ctx (ctx.nxt (Aig.lit_of_node id)) (Partition.polarity partition id)
let norm_ini ctx partition id = norm ctx (ctx.ini (Aig.lit_of_node id)) (Partition.polarity partition id)

(* Exact initial-state partition T0 (Equation 2): group by the canonical
   BDD of the normalized function at s0 — hash-consing makes equality a
   key comparison. *)
let refine_initial ctx partition =
  ignore (static_prefilter ctx partition);
  ignore (Partition.refine_by_key partition (fun id -> Bdd.id (norm_ini ctx partition id)));
  note ctx

(* Functional-dependency substitution (Section 4): replace a state
   variable by an equivalent function from its class, enabling the
   correspondence condition to be applied as a smaller don't-care set.
   Greedy and cycle-free: a chosen function is composed with the
   substitutions selected so far and rejected if it still mentions the
   variable being replaced. *)
let fundep_subst ?(max_fn_size = 8) ctx partition =
  let nvars = Bdd.nvars ctx.m in
  let subst = Array.make nvars None in
  let any = ref false in
  for i = 0 to ctx.n_latches - 1 do
    let node = Aig.latch_node ctx.p.Product.aig i in
    if Partition.is_candidate partition node then begin
      let cls = Partition.class_of partition node in
      let others = List.filter (fun w -> w <> node) (Partition.members partition cls) in
      let si = ctx.s.(i) in
      (* keep substitutions cheap: large replacement functions make the
         later compositions of the nu functions explode, so probe sizes
         with an early-abort bound *)
      let bounded_size f =
        match Bdd.size_at_most f max_fn_size with Some n -> n | None -> max_int
      in
      let try_target w =
        let g_w = norm_cur ctx partition w in
        let h = if Partition.polarity partition node then Bdd.mk_not ctx.m g_w else g_w in
        if bounded_size h > max_fn_size then None
        else begin
          let h' = if !any then Bdd.vector_compose ctx.m h subst else h in
          if bounded_size h' > max_fn_size || List.mem si (Bdd.support h') then None
          else Some h'
        end
      in
      (* prefer single-node replacements (other state variables or
         constants): these are plain renames *)
      let by_size =
        let keyed =
          List.map (fun w -> (bounded_size (norm_cur ctx partition w), w)) others
        in
        List.map snd (List.sort compare (List.filter (fun (k, _) -> k <= max_fn_size) keyed))
      in
      match List.find_map try_target by_size with
      | Some h' ->
        subst.(si) <- Some h';
        any := true
      | None -> ()
    end
  done;
  if !any then Some subst else None

let rec balanced_and m = function
  | [] -> Bdd.one
  | [ f ] -> f
  | fs ->
    let rec split k acc = function
      | rest when k = 0 -> (acc, rest)
      | [] -> (acc, [])
      | f :: rest -> split (k - 1) (f :: acc) rest
    in
    let left, right = split (List.length fs / 2) [] fs in
    Bdd.mk_and m (balanced_and m left) (balanced_and m right)

(* The correspondence condition of the current partition (Definition 1),
   with substitution applied, conjoined with the reachable care set.
   Substituted functions are shared per node, not per pair. *)
let correspondence_condition ?(memo = Hashtbl.create 256) ctx partition subst =
  let apply f = match subst with Some s -> Bdd.vector_compose ctx.m f s | None -> f in
  let cur_of id =
    match Hashtbl.find_opt memo id with
    | Some f -> f
    | None ->
      let f = apply (norm_cur ctx partition id) in
      Hashtbl.add memo id f;
      f
  in
  let constraints =
    List.filter_map
      (fun (rep, id) ->
        note ctx;
        let frep = cur_of rep and fid = cur_of id in
        if Bdd.equal frep fid then None else Some (Bdd.mk_iff ctx.m frep fid))
      (Partition.constraint_pairs partition)
  in
  let result = Bdd.mk_and ctx.m (balanced_and ctx.m constraints) (apply ctx.care) in
  note ctx;
  result

(* Per-sweep builder of the Q-simplified nu functions.  As described in
   Section 4, the complement of the correspondence condition is used as a
   don't-care set while the next-state functions are *built*: whenever an
   intermediate result grows beyond a bound, it is simplified with
   Coudert–Madre restrict against Q.  The simplified functions agree with
   the exact nu on every state satisfying Q, which is all the comparison
   needs. *)
let nu_builder ~clamp_size ctx partition q subst =
  let m = ctx.m in
  let apply f = match subst with Some s -> Bdd.vector_compose m f s | None -> f in
  let clamp f =
    match Bdd.size_at_most f clamp_size with
    | Some _ -> f
    | None ->
      note ctx;
      Bdd.restrict m f ~care:q
  in
  let nu =
    Engines.Aig_bdd.build m ctx.p.Product.aig
      ~and_:(fun a b -> clamp (Bdd.mk_and m a b))
      ~pi_var:(fun i -> Bdd.var m ctx.x2.(i))
      ~latch_var:(fun i -> clamp (apply ctx.delta.(i)))
  in
  fun id -> norm ctx (nu (Aig.lit_of_node id)) (Partition.polarity partition id)

(* Extract one counterexample pattern from a pair of class members whose
   nu functions differ modulo Q: a satisfying assignment of
   Q /\ (nu_a xor nu_b) over (x1, s, x2), converted into the *next* frame's
   (state, input) valuation — state' = delta(s, x1), inputs = x2 — which is
   exactly the frame whose node values separate the pair.

   The assignment lives in the SUBSTITUTED variable space: Q and the nu
   functions were built by one simultaneous [vector_compose], so a model V
   of the composed BDD corresponds to the original-space point sigma(V)
   where each substituted variable reads as its substitution function
   evaluated at V's PLAIN values (one level — substitution images may
   themselves mention substituted variables, which stay free there). *)
let counterexample_valuation ctx subst q nu_a nu_b =
  let m = ctx.m in
  let d = Bdd.mk_and m q (Bdd.mk_xor m nu_a nu_b) in
  match Bdd.any_sat d with
  | None -> None
  | Some assignment ->
    let env = Hashtbl.create 16 in
    List.iter (fun (v, b) -> Hashtbl.replace env v b) assignment;
    let base v = match Hashtbl.find_opt env v with Some b -> b | None -> false in
    let lookup v =
      match subst with
      | Some s when v < Array.length s -> (
        match s.(v) with Some h -> Bdd.eval h base | None -> base v)
      | _ -> base v
    in
    Some
      ( Array.init ctx.n_pis (fun i -> lookup ctx.x2.(i)),
        Array.init ctx.n_latches (fun i -> Bdd.eval ctx.delta.(i) lookup) )

(* The per-class scan outcome, mirroring the SAT engine's round shape:
   the sweep freezes the suspect classes, scans each through the
   (single-lane) scheduler, and merges outcomes serially in ascending
   class order. *)
type outcome =
  | O_stable
  | O_split of (int, int) Hashtbl.t * (bool array * bool array) option
      (* member -> canonical key; witness valuation for the pattern pool *)

(* One batched sweep: each suspect class is refined in a single scan by
   the canonical key [Bdd.id (nu /\ Q)] — members are Q-equivalent iff
   their conjunctions with Q are the same BDD — instead of a quadratic
   pairwise comparison.  Split classes contribute one counterexample
   pattern to the pool, flushed at the start of the next sweep (and when
   full) so cheap bit-parallel simulation pre-splits classes before any
   further BDD work.  [trust] enables the cone-based dirty skip; the
   strict confirmation pass re-proves stale classes at the current
   version. *)
let sweep ~clamp_size ctx partition ~trust =
  let splits = ref (Simpool.flush ctx.pool partition > 0) in
  (* zero-cost splits first, so the frozen Q and the task list already see
     the statically refined partition *)
  if static_prefilter ctx partition > 0 then splits := true;
  let vq = Partition.version partition in
  let subst = if ctx.use_fundep then fundep_subst ctx partition else None in
  let q = correspondence_condition ctx partition subst in
  if Bdd.is_false q then !splits
  else begin
    let nu_of = nu_builder ~clamp_size ctx partition q subst in
    let tasks =
      List.filter_map
        (fun cls ->
          let skip =
            match Hashtbl.find_opt ctx.proved_at cls with
            | Some v ->
              v >= vq
              || (trust
                 && not
                      (Support.suspect (Lazy.force ctx.support) partition cls
                         ~proved_at:v))
            | None -> false
          in
          if skip then begin
            ctx.n_cache_hits <- ctx.n_cache_hits + 1;
            None
          end
          else
            match Partition.members partition cls with
            | [] | [ _ ] -> None
            | mems -> Some (cls, mems))
        (Partition.multi_member_classes partition)
      |> Array.of_list
    in
    (* the scan runs in the caller (single lane) — it mutates the shared
       hash-consed manager and must never cross a domain boundary *)
    let scan () (_cls, mems) =
      note ctx;
      ctx.n_batched <- ctx.n_batched + 1;
      let keys = Hashtbl.create 8 in
      let key id =
        match Hashtbl.find_opt keys id with
        | Some k -> k
        | None ->
          let k = Bdd.id (Bdd.mk_and ctx.m (nu_of id) q) in
          note ctx;
          Hashtbl.add keys id k;
          k
      in
      let rep = List.hd mems in
      let rep_key = key rep in
      match List.find_opt (fun id -> key id <> rep_key) mems with
      | None -> O_stable
      | Some other ->
        let cex = counterexample_valuation ctx subst q (nu_of rep) (nu_of other) in
        List.iter (fun id -> ignore (key id)) mems;
        O_split (keys, cex)
    in
    let outcomes = Parsweep.map ctx.sched ~f:scan tasks in
    Array.iteri
      (fun i outcome ->
        let cls, _ = tasks.(i) in
        match outcome with
        | O_stable -> Hashtbl.replace ctx.proved_at cls vq
        | O_split (keys, cex) ->
          (match cex with
          | Some (pi, latch) ->
            if Simpool.is_full ctx.pool then
              splits := Simpool.flush ctx.pool partition > 0 || !splits;
            Simpool.add ctx.pool ~pi:(fun i -> pi.(i)) ~latch:(fun i -> latch.(i))
          | None -> ());
          let key id = Hashtbl.find keys id in
          if Partition.refine_class partition cls ~equal:(fun a b -> key a = key b)
          then splits := true)
      outcomes;
    note ctx;
    !splits
  end

(* One refinement iteration: a trusting sweep over suspect classes,
   confirmed by a strict pass when quiescent so the reported fixed point
   never rests on the cone heuristic. *)
let refine_once ?(clamp_size = 2_000) ctx partition =
  if sweep ~clamp_size ctx partition ~trust:true then true
  else sweep ~clamp_size ctx partition ~trust:false
