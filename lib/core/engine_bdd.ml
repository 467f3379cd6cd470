(* BDD-based refinement engine, faithful to the paper's implementation:
   current-state functions f_v(s, x_t) and next-state functions
   nu_v(s, x_t, x_{t+1}) = f_v(delta(s, x_t), x_{t+1}) are represented as
   BDDs over input and state variables (no intermediate-signal variables);
   the correspondence condition Q is a BDD whose complement acts as a
   don't-care set, optionally strengthened by an upper bound of the
   reachable state space and compressed through functional-dependency
   substitution of state variables (Section 4). *)

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
  ini : int -> Bdd.t; (* f_v(s0, x1), by literal *)
  use_fundep : bool;
  fn_size : int array;
      (* by node: bounded size of [cur], -1 until probed (see [fundep_subst]) *)
  care : Bdd.t; (* over s: upper bound of reachable states (or one) *)
  node_limit : int;
  deadline : Deadline.t; (* wall-clock budget, polled with every [note] *)
  mutable peak_nodes : int;
  pool : Simpool.t; (* counterexample patterns, replayed bit-parallel *)
  mutable batched : int; (* class scans performed *)
}

let note ctx =
  if Deadline.expired ctx.deadline then raise (Deadline.Budget_exceeded "deadline");
  let live = Bdd.live_nodes ctx.m in
  if live > ctx.peak_nodes then ctx.peak_nodes <- live;
  if live > ctx.node_limit then raise (Deadline.Budget_exceeded "bdd nodes")

(* [latch_order], when given, lists product latch indices in the order
   their state variables should be placed (correspondence candidates
   adjacent); [care_of] may compute a reachable upper bound over the state
   variables once they exist. *)
let make ?(use_fundep = true) ?latch_order ?care_of ?(node_limit = max_int)
    ?(deadline = Deadline.none) p =
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
    (* initial-state functions are only requested for signals that share a
       class, and after simulation seeding most classes are small *)
    let ini =
      Engines.Aig_bdd.build m aig ~pi_var
        ~latch_var:(fun i -> if Aig.latch_init aig i then Bdd.one else Bdd.zero)
    in
    let care = match care_of with Some f -> f m s | None -> Bdd.one in
    let ctx =
      { p; m; n_pis; n_latches; x1; s; x2; cur; delta; ini; use_fundep;
        fn_size = Array.make (Aig.num_nodes aig) (-1); care;
        node_limit; deadline; peak_nodes = 0; pool = Simpool.create aig; batched = 0 }
    in
    note ctx;
    ctx
  in
  let aborted reason = raise (Build_exceeded { reason; live_nodes = Bdd.live_nodes m }) in
  try build () with
  | Deadline.Budget_exceeded reason -> aborted reason
  | Bdd.Limit_exceeded -> aborted "bdd nodes"

(* [note] samples the peak between operations; a run cut short by
   [Bdd.Limit_exceeded] inside one operation peaked at the live count it
   left behind. *)
let harvest ctx =
  {
    (Simpool.harvest ctx.pool) with
    Counters.batched_solves = ctx.batched;
    peak_bdd_nodes = max ctx.peak_nodes (Bdd.live_nodes ctx.m);
  }

let norm ctx f pol = if pol then Bdd.mk_not ctx.m f else f

(* normalized functions of a node *)
let norm_cur ctx partition id = norm ctx (ctx.cur (Aig.lit_of_node id)) (Partition.polarity partition id)
let norm_ini ctx partition id = norm ctx (ctx.ini (Aig.lit_of_node id)) (Partition.polarity partition id)

(* Exact initial-state partition T0 (Equation 2): group by the canonical
   BDD of the normalized function at s0 — hash-consing makes equality a
   key comparison. *)
let refine_initial ctx partition =
  ignore (Partition.refine_by_key partition (fun id -> Bdd.id (norm_ini ctx partition id)));
  note ctx

(* Functional-dependency substitution (Section 4): replace a state
   variable by an equivalent function from its class, enabling the
   correspondence condition to be applied as a smaller don't-care set.
   Greedy and cycle-free: a chosen function is composed with the
   substitutions selected so far and rejected if it still mentions the
   variable being replaced.  Replacement functions are kept small:
   large ones make the later compositions of the nu functions explode. *)
let fundep_max_size = 8

(* The size beyond which an intermediate nu function is simplified
   against Q while it is built (see [nu_builder]). *)
let clamp_size = 2_000

(* Size of a node's current-state function up to [fundep_max_size]
   ([max_int] beyond), probed with an early-abort bound.  It depends only
   on the node (a function and its complement share their nodes), so it is
   probed once per engine, not once per latch and sweep. *)
let fn_size ctx w =
  let n = ctx.fn_size.(w) in
  if n >= 0 then n
  else begin
    let n =
      match Bdd.size_at_most ctx.m (ctx.cur (Aig.lit_of_node w)) fundep_max_size with
      | Some n -> n
      | None -> max_int
    in
    ctx.fn_size.(w) <- n;
    n
  end

let fundep_subst ctx partition =
  let nvars = Bdd.nvars ctx.m in
  let subst = Array.make nvars None in
  let any = ref false in
  for i = 0 to ctx.n_latches - 1 do
    let node = Aig.latch_node ctx.p.Product.aig i in
    if Partition.is_candidate partition node then begin
      let cls = Partition.class_of partition node in
      let others = List.filter (fun w -> w <> node) (Partition.members partition cls) in
      let si = ctx.s.(i) in
      (* the candidates were filtered by size, so only a composed
         replacement needs a new probe *)
      let try_target w =
        let g_w = norm_cur ctx partition w in
        let h = if Partition.polarity partition node then Bdd.mk_not ctx.m g_w else g_w in
        let h' = if !any then Bdd.vector_compose ctx.m h subst else h in
        let too_big = !any && Bdd.size_at_most ctx.m h' fundep_max_size = None in
        if too_big || List.mem si (Bdd.support ctx.m h') then None else Some h'
      in
      (* prefer single-node replacements (other state variables or
         constants): these are plain renames *)
      let by_size =
        let keyed = List.map (fun w -> (fn_size ctx w, w)) others in
        List.map snd (List.sort compare (List.filter (fun (k, _) -> k <= fundep_max_size) keyed))
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
let correspondence_condition ctx partition subst =
  let memo = Hashtbl.create 256 in
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
let nu_builder ctx partition q subst =
  let m = ctx.m in
  let apply f = match subst with Some s -> Bdd.vector_compose m f s | None -> f in
  let clamp f =
    match Bdd.size_at_most m f clamp_size with
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
  (* satisfiable: the members disagree under Q *)
  let assignment = Option.get (Bdd.any_sat m (Bdd.mk_and m q (Bdd.mk_xor m nu_a nu_b))) in
  let env = Hashtbl.create 16 in
  List.iter (fun (v, b) -> Hashtbl.replace env v b) assignment;
  let base v = match Hashtbl.find_opt env v with Some b -> b | None -> false in
  let lookup v =
    match subst with
    | Some s when v < Array.length s -> (
      match s.(v) with Some h -> Bdd.eval m h base | None -> base v)
    | _ -> base v
  in
  ( Array.init ctx.n_pis (fun i -> lookup ctx.x2.(i)),
    Array.init ctx.n_latches (fun i -> Bdd.eval m ctx.delta.(i) lookup) )

(* One refinement iteration, a batched sweep: each multi-member class is
   scanned once.  Members a and b agree when
   [Bdd.leq q (xnor nu_a nu_b)] — nu_a /\ Q = nu_b /\ Q, Equation (3) — a
   test that makes no node, so no member's conjunction with Q (a copy of
   Q, often thousands of nodes) is ever built.  A scan
   tests each member against the representative and yields the
   counterexample of the first one that disagrees, or [None] when the
   class is stable.  Every class is scanned against the partition frozen
   at the round's start before any result is applied; the results are
   then applied in ascending class order.  A split class pools its
   counterexample (flushed at the start of the next round, and when the
   buffer is full, so cheap bit-parallel simulation pre-splits classes
   before any further BDD work) and is regrouped by testing each member
   against one representative per group ([Partition.refine_class]).
   A stable class needs no record: a round that splits nothing is the
   last, and any split starts a new Q for every class.  An empty Q ends
   the round before any class is scanned.  [true] when a class split;
   [false] means every class is stable under the current Q, the fixed
   point. *)
let refine_once ctx partition =
  let splits = ref (Simpool.flush ctx.pool partition > 0) in
  let subst = if ctx.use_fundep then fundep_subst ctx partition else None in
  let q = correspondence_condition ctx partition subst in
  if Bdd.is_false q then !splits
  else begin
    let nu_of = nu_builder ctx partition q subst in
    let tasks = Array.of_list (Partition.multi_member_classes partition) in
    let agree f g =
      let same = Bdd.equal f g || Bdd.leq ctx.m q (Bdd.mk_xnor ctx.m f g) in
      note ctx;
      same
    in
    let scan cls =
      note ctx;
      ctx.batched <- ctx.batched + 1;
      let mems = Partition.members partition cls in
      let nu_rep = nu_of (List.hd mems) in
      match List.find_opt (fun id -> not (agree nu_rep (nu_of id))) mems with
      | None -> None
      | Some other -> Some (counterexample_valuation ctx subst q nu_rep (nu_of other))
    in
    let found = Array.map scan tasks in
    Array.iteri
      (fun i cex ->
        let cls = tasks.(i) in
        match cex with
        | None -> ()
        | Some (pi, latch) ->
          if Simpool.add_witness ctx.pool partition pi latch > 0 then splits := true;
          if Partition.refine_class partition cls ~equal:(fun a b -> agree (nu_of a) (nu_of b))
          then splits := true)
      found;
    note ctx;
    !splits
  end
