(* Speculative reduction (ABC-style SRM over the product machine).

   Assume every candidate equivalence of the current partition at once:
   rebuild the product with each non-representative class member REPLACED
   by (the polarity-adjusted image of) its representative, so every
   fanout reads the representative's signal.  Each merge carries one
   assumption obligation — "the member's own function still equals the
   representative's signal in the reduced machine".  Structural hashing
   plus the two-level rewrite rules ([Analysis.Reduce.smart_and])
   collapse most member functions onto their representative outright
   (the FRAIG effect): those obligations are structurally true, and most
   of the rest are valid over the small reduced cones, so the screen
   below proves their classes without a SAT call.

   Exactness.  Write Q for the conjunction of the partition's candidate
   equivalences over the ORIGINAL product and Q-hat for the conjunction
   of the (non-trivial) obligations over the reduced machine.  By
   induction over the topological order, any valuation of (inputs,
   latches) satisfying Q-hat makes every reduced node equal to its
   original counterpart — a merged fanin read is exactly the equality Q
   grants — so at such valuations the reduced transition function agrees
   with the original one, and Q-hat and Q hold together.  The
   sequential check "Q at frames 1..k implies Q at frame k+1" is
   therefore the same statement over either machine.

   The reduced AIG deliberately skips [Aig.cleanup]: obligation literals
   must stay valid node references even when the merge makes them dead. *)

type obligation = {
  ob_class : int;  (* partition class id at build time *)
  ob_mem_lit : int;  (* reduced literal: the member's own function *)
  ob_rep_lit : int;  (* reduced literal: what fanouts read instead *)
}

type t = {
  raig : Aig.t;  (* the speculatively reduced product *)
  obligations : obligation array;  (* the strashing survivors, ascending member id *)
  n_merges : int;  (* members merged onto representatives *)
}

let build product partition =
  let aig = product.Product.aig in
  let n = Aig.num_nodes aig in
  (* member node -> representative node, for every merge candidate *)
  let rep_tbl = Hashtbl.create 256 in
  List.iter
    (fun (rep, mem) -> Hashtbl.replace rep_tbl mem rep)
    (Partition.constraint_pairs partition);
  let raig = Aig.create () in
  let pi_lits = Array.init (Aig.num_pis aig) (fun _ -> Aig.add_pi raig) in
  let latch_lits =
    Array.init (Aig.num_latches aig) (fun i -> Aig.add_latch raig ~init:(Aig.latch_init aig i))
  in
  (* original node id -> reduced literal of its positive literal *)
  let map = Array.make (max n 1) 0 in
  let tr l = map.(Aig.node_of_lit l) lxor (l land 1) in
  let rewrites = ref 0 in
  let obligations = ref [] in
  let n_merges = ref 0 in
  for id = 0 to n - 1 do
    (* the node's own function over the (already merged) fanin images *)
    let shadow =
      match Aig.node aig id with
      | Aig.Const -> 0
      | Aig.Pi i -> pi_lits.(i)
      | Aig.Latch i -> latch_lits.(i)
      | Aig.And (a, b) -> Analysis.Reduce.smart_and rewrites raig (tr a) (tr b)
    in
    match Hashtbl.find_opt rep_tbl id with
    | None -> map.(id) <- shadow
    | Some rep ->
      (* representatives are class minima, so [map.(rep)] is already set *)
      incr n_merges;
      let pol_diff = Partition.polarity partition id <> Partition.polarity partition rep in
      let rep_img = map.(rep) lxor (if pol_diff then 1 else 0) in
      map.(id) <- rep_img;
      if shadow <> rep_img then
        obligations :=
          { ob_class = Partition.class_of partition rep; ob_mem_lit = shadow; ob_rep_lit = rep_img }
          :: !obligations
  done;
  List.iteri
    (fun i lit -> Aig.set_latch_next raig lit ~next:(tr (Aig.latch_next aig i)))
    (Array.to_list latch_lits);
  List.iter (fun (name, l) -> Aig.add_po raig name (tr l)) (Aig.pos aig);
  { raig; obligations = Array.of_list (List.rev !obligations); n_merges = !n_merges }

(* ------------------------------------------------------------------ *)
(* The BDD screen                                                     *)

(* A screen in front of the SAT sweep.  Every obligation of a fresh
   reduction is checked for unconstrained two-frame validity on the
   reduced circuit: its member and representative literals must agree
   one step after ANY state, so in particular after every state the
   sweep's Q admits at frame k, whatever the induction depth k.  A class
   whose obligations are all structurally trivial or BDD-valid is proven
   under the reduced partition's Q, and the SAT round on that same
   partition skips it; the others are left to the exact sweep.  This is
   sound class by class because the exactness argument above is
   topological: when every class is proven under ONE Q, some by the
   screen and the rest by the sweep's Eq.(3), an induction over node ids
   makes every reduced node equal its original at frame k+1, so every
   pair of the partition holds there.  The screen never refutes: a BDD counterexample is unconstrained
   and proves nothing, so the class simply goes to the sweep.

   The frame-2 functions are built lazily in a fresh manager per
   reduction (the variable order puts latches first, at [latch_pos], then
   the frame-1 and frame-2 inputs); every AND polls the node budget.  A
   class whose check blows the budget is banned from the screen for the
   rest of the run, and the manager is abandoned for the round. *)

type screen = {
  node_limit : int;  (* per-round BDD manager budget *)
  latch_pos : int array;  (* latch index -> BDD variable position *)
  deadline : Deadline.t;  (* polled once per obligation *)
  banned : (int, unit) Hashtbl.t;  (* classes whose check blew the budget *)
  mutable counters : Counters.t;
}

let screen_create ~node_limit ~latch_order ~deadline =
  { node_limit; latch_pos = latch_order; deadline; banned = Hashtbl.create 16;
    counters = Counters.zero }

exception Blowup

let poll_nodes sc man =
  let live = Bdd.live_nodes man in
  if live > sc.counters.Counters.peak_bdd_nodes then
    sc.counters <- { sc.counters with Counters.peak_bdd_nodes = live };
  if live > sc.node_limit then raise Blowup

(* Frame-2 function of a reduced literal: the node functions over the
   frame-2 inputs composed with the next-state functions over (state,
   frame-1 inputs) — the same lazy construction as the BDD sweep
   engine. *)
let frame2 sc man raig =
  let n_latches = Aig.num_latches raig and n_pis = Aig.num_pis raig in
  let and_ a b =
    poll_nodes sc man;
    Bdd.mk_and man a b
  in
  let cur =
    Engines.Aig_bdd.build ~and_ man raig
      ~pi_var:(fun i -> Bdd.var man (n_latches + i))
      ~latch_var:(fun i -> Bdd.var man sc.latch_pos.(i))
  in
  Engines.Aig_bdd.build ~and_ man raig
    ~pi_var:(fun i -> Bdd.var man (n_latches + n_pis + i))
    ~latch_var:(fun i -> cur (Aig.latch_next raig i))

(* Screen one reduction of [partition]: the multi-member classes it
   proves under the partition's Q, which the screen does not change. *)
let screen sc product partition =
  let sr = build product partition in
  let left = Hashtbl.create 64 in
  let by_bdd = ref 0 and by_sat = ref 0 in
  let nxt =
    lazy
      (let man = Bdd.create () in
       Bdd.set_node_limit man (2 * sc.node_limit);
       (man, frame2 sc man sr.raig))
  in
  let dead = ref false in
  Array.iter
    (fun ob ->
      let cls = ob.ob_class in
      let valid =
        (not !dead)
        && (not (Hashtbl.mem left cls))
        && (not (Hashtbl.mem sc.banned cls))
        &&
        (if Deadline.expired sc.deadline then raise (Deadline.Budget_exceeded "deadline");
         match
           let man, nxt = Lazy.force nxt in
           let diff = Bdd.mk_xor man (nxt ob.ob_mem_lit) (nxt ob.ob_rep_lit) in
           poll_nodes sc man;
           Bdd.is_false diff
         with
         | valid -> valid
         | exception (Blowup | Bdd.Limit_exceeded) ->
           dead := true;
           Hashtbl.replace sc.banned cls ();
           false)
      in
      if valid then incr by_bdd
      else begin
        Hashtbl.replace left cls ();
        incr by_sat
      end)
    sr.obligations;
  sc.counters <-
    Counters.combine sc.counters
      { Counters.zero with
        spec_rounds = 1;
        spec_merges = sr.n_merges;
        spec_by_bdd = !by_bdd;
        spec_by_sat = !by_sat
      };
  List.filter (fun cls -> not (Hashtbl.mem left cls)) (Partition.multi_member_classes partition)
