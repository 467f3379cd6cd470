(* Per-class hybrid engine dispatcher for speculative reduction.

   Each assumption obligation of a speculatively reduced product
   ([Specreduce.t]) is routed to one of two discharge engines:

   - BDD: an unconstrained two-frame validity check of the obligation on
     the reduced circuit — valid without the Q-hat assumptions is valid
     with them a fortiori, and a counterexample is vetted against Q on
     the original product before it may refute anything;
   - incremental SAT: the exact workhorse — a (k+1)-frame encoding of the
     reduced circuit with the Q-hat assumptions clause-guarded at frames
     1..k and the obligation's difference activated at frame k+1 (k =
     [config.unroll], the verifier's induction depth; k = 1 is the
     paper's Eq.(3)), living in the persistent per-lane solvers (one
     [Sat.t] per [Parsweep] lane, each round's encoding guarded by an
     activation literal that is released when the reduction is rebuilt,
     so retired clauses are GC'd).

   Routing combines static shape (cone size and level depth of the
   obligation's representative) with the online EMA cost model of
   [Analysis.Steer.Cost]; an engine that exhausts its budget on a class
   (BDD node blowup) is banned for that class and the obligation falls
   back to SAT, which is never banned and guarantees progress.

   Counterexample replay discipline (the soundness-critical invariant):
   a pattern enters the shared [Simpool] only as (delta_orig(s, x1), x2)
   where (s, x1) is known to satisfy Q on the ORIGINAL product — SAT
   models by the assumed Q-hat (exactness lemma in specreduce.ml), BDD
   models by an explicit [Specreduce.q_holds] check.  The successor
   state is always computed with the original transition function, never
   the speculative one. *)

exception Budget_exceeded of string

type engine = Bdd | Sat

let engine_name = function Bdd -> "bdd" | Sat -> "sat"

let steer_engine = function Bdd -> Analysis.Steer.Bdd | Sat -> Analysis.Steer.Sat

type config = {
  prefer : engine;  (* options.engine bias: the tie-break default *)
  bdd_cone_limit : int;  (* static routing threshold on cone size *)
  bdd_level_limit : int;  (* static routing threshold on level depth *)
  bdd_node_limit : int;  (* per-round BDD manager budget *)
  unroll : int;  (* induction depth k of the SAT route; >= 1 *)
  jobs : int;
}

let default_config ~prefer =
  {
    prefer;
    bdd_cone_limit = 1024;
    bdd_level_limit = Analysis.Steer.bdd_level_limit;
    bdd_node_limit = 1_000_000;
    unroll = 1;
    jobs = 1;
  }

(* One persistent solver per Parsweep lane.  A round's (k+1)-frame
   encoding of the reduced circuit is guarded by [l_act]; switching
   rounds releases it, which garbage-collects the stale clauses (and any
   learnt clause mentioning them) while the solver itself — heuristic
   state included — lives on. *)
type lane = {
  l_solver : Sat.t;
  mutable l_round : int;  (* round id currently encoded; -1 = none *)
  mutable l_act : int;  (* activation variable of that encoding *)
  mutable l_enck : int -> Sat.Lit.t;  (* frame-(k+1) image of a reduced literal *)
  mutable l_s : int array;  (* frame-1 latch variables *)
  mutable l_xs : int array array;  (* input variables, one row per frame *)
}

type round = { rd_id : int; rd_sr : Specreduce.t }

type t = {
  cfg : config;
  product : Product.t;
  pool : Simpool.t;  (* the verifier's shared counterexample pool *)
  deadline : Deadline.t;
  check_budget : unit -> unit;  (* caller's SAT-call budget gate *)
  cost : Analysis.Steer.Cost.t;
  support : Support.t;  (* cones of the ORIGINAL product *)
  levels : int array;  (* levels of the ORIGINAL product *)
  latch_pos : int array;  (* latch index -> BDD variable position *)
  latch_of_pos : int array;  (* its inverse *)
  sched : lane Parsweep.t;
  mutable round : round option;
  mutable round_ctr : int;
  mutable sat_solves : int;
  mutable peak_nodes : int;
  mutable by_bdd : int;  (* obligations settled by each engine *)
  mutable by_sat : int;
}

let create ?(config = default_config ~prefer:Bdd) ?latch_order
    ?(check_budget = fun () -> ()) ~product ~pool ~deadline () =
  let aig = product.Product.aig in
  let n_latches = Aig.num_latches aig in
  let latch_pos =
    match latch_order with
    | Some order -> order
    | None -> Array.init n_latches (fun i -> i)
  in
  {
    cfg = config;
    product;
    pool;
    deadline;
    check_budget;
    cost = Analysis.Steer.Cost.create ();
    support = Support.make aig;
    levels = (Analysis.Metrics.make aig).Analysis.Metrics.level;
    latch_pos;
    latch_of_pos =
      (let inv = Array.make n_latches 0 in
       Array.iteri (fun i p -> inv.(p) <- i) latch_pos;
       inv);
    sched = Parsweep.create ~jobs:config.jobs ~init:(fun _ ->
        {
          l_solver = Sat.create ();
          l_round = -1;
          l_act = -1;
          l_enck = (fun _ -> invalid_arg "Dispatch: no round encoded");
          l_s = [||];
          l_xs = [||];
        });
    round = None;
    round_ctr = 0;
    sat_solves = 0;
    peak_nodes = 0;
    by_bdd = 0;
    by_sat = 0;
  }

let poll t =
  if Deadline.expired t.deadline then raise (Budget_exceeded "deadline")

(* ------------------------------------------------------------------ *)
(* Routing                                                            *)

(* The cost model is charged in work, not seconds, so routing, and with
   it a speculative run's counters, does not depend on the host's speed
   or memory layout: a SAT solve costs its propagations plus
   [conflict_work] per conflict, a BDD check [node_work] per node made.
   The weights are time ratios measured over the suite's speculative
   runs (about 0.3 us a propagation, 90 us a conflict, 1-3 us a node). *)
let conflict_work = 300
let node_work = 5

let observe t ~cls ~engine work =
  Analysis.Steer.Cost.observe t.cost ~cls ~engine:(steer_engine engine) work

let ban t ~cls ~engine =
  Analysis.Steer.Cost.note_exhausted t.cost ~cls ~engine:(steer_engine engine)

(* Engine choice: static cone/level thresholds give the default — the
   caller's engine preference biases the thresholds (a SAT-preferring run
   still sends small shallow cones to BDD, just fewer of them) — then the
   cost model overrides once it has data, and bans always win.  SAT is
   never banned, so the fallback path terminates there. *)
let route t ~cls ~cone ~level =
  let cone_limit, level_limit =
    if t.cfg.prefer = Sat then
      (t.cfg.bdd_cone_limit / 4, t.cfg.bdd_level_limit / 2)
    else (t.cfg.bdd_cone_limit, t.cfg.bdd_level_limit)
  in
  let static_default =
    if cone <= cone_limit && level <= level_limit then Analysis.Steer.Bdd
    else Analysis.Steer.Sat
  in
  match Analysis.Steer.Cost.prefer t.cost ~cls ~default:static_default with
  | Some Analysis.Steer.Bdd -> Bdd
  | Some Analysis.Steer.Sat | None -> Sat

let route_obligation t ob =
  let cls = ob.Specreduce.ob_class in
  route t ~cls
    ~cone:(Support.cone_size t.support ob.Specreduce.ob_rep)
    ~level:
      (max
         t.levels.(ob.Specreduce.ob_rep)
         t.levels.(ob.Specreduce.ob_member))

(* ------------------------------------------------------------------ *)
(* Pattern replay into the shared pool                                *)

(* SAT/BDD counterexamples: [xs] holds one row of input values per
   encoded frame, and the valuation satisfies Q on the original product
   at every frame but the last (SAT models by the assumed Q-hat — the
   frame-local exactness lemma in specreduce.ml — BDD models by the
   explicit vetting, with only two frames).  Each such frame's successor
   under the ORIGINAL transition function is therefore a certified
   state; the pool pattern is the last one together with the free
   last-frame inputs. *)
let replay_cex t partition ~splits ~s ~xs =
  let frames = Array.length xs in
  let state = ref s in
  for i = 0 to frames - 2 do
    state := Specreduce.step_original t.product ~pi:xs.(i) ~latch:!state
  done;
  let latch = !state and pi = xs.(frames - 1) in
  if Simpool.is_full t.pool then splits := !splits + Simpool.flush t.pool partition;
  Simpool.add t.pool ~pi:(fun i -> pi.(i)) ~latch:(fun i -> latch.(i))

(* ------------------------------------------------------------------ *)
(* BDD route                                                          *)

exception Bdd_blowup

let bdd_check_limit t man =
  let live = Bdd.live_nodes man in
  if live > t.peak_nodes then t.peak_nodes <- live;
  if live > t.cfg.bdd_node_limit then raise Bdd_blowup

(* Per-round BDD state: the frame-2 node functions of the reduced circuit
   over the fresh-input variables composed with the next-state functions,
   which in turn are frame-1 functions over (state, input) variables —
   the same lazy construction as the BDD sweep engine.  Every AND polls
   the node budget. *)
type bdd_round = {
  br_man : Bdd.manager;
  br_nxt : int -> Bdd.t;  (* frame-2 function of a reduced literal *)
  mutable br_dead : bool;
}

let bdd_state t raig =
  let n_latches = Aig.num_latches raig and n_pis = Aig.num_pis raig in
  let man = Bdd.create () in
  Bdd.set_node_limit man (2 * t.cfg.bdd_node_limit);
  let and_ a b =
    bdd_check_limit t man;
    Bdd.mk_and man a b
  in
  let cur =
    Engines.Aig_bdd.build ~and_ man raig
      ~pi_var:(fun i -> Bdd.var man (n_latches + i))
      ~latch_var:(fun i -> Bdd.var man t.latch_pos.(i))
  in
  let nxt =
    Engines.Aig_bdd.build ~and_ man raig
      ~pi_var:(fun i -> Bdd.var man (n_latches + n_pis + i))
      ~latch_var:(fun i -> cur (Aig.latch_next raig i))
  in
  { br_man = man; br_nxt = nxt; br_dead = false }

type bdd_result =
  | Bdd_discharged
  | Bdd_maybe of bool array * bool array * bool array  (* unvetted (s, x1, x2) *)
  | Bdd_out  (* node budget blown *)

let bdd_solve t br raig ob =
  poll t;
  let n_latches = Aig.num_latches raig and n_pis = Aig.num_pis raig in
  try
    let diff =
      Bdd.mk_xor br.br_man
        (br.br_nxt ob.Specreduce.ob_mem_lit)
        (br.br_nxt ob.Specreduce.ob_rep_lit)
    in
    bdd_check_limit t br.br_man;
    if Bdd.is_false diff then Bdd_discharged
    else
      match Bdd.any_sat br.br_man diff with
      | None -> Bdd_discharged
      | Some assignment ->
        let s = Array.make n_latches false in
        let x1 = Array.make n_pis false and x2 = Array.make n_pis false in
        List.iter
          (fun (v, b) ->
            if v < n_latches then s.(t.latch_of_pos.(v)) <- b
            else if v < n_latches + n_pis then x1.(v - n_latches) <- b
            else x2.(v - n_latches - n_pis) <- b)
          assignment;
        Bdd_maybe (s, x1, x2)
  with Bdd_blowup | Bdd.Limit_exceeded ->
    br.br_dead <- true;
    Bdd_out

(* ------------------------------------------------------------------ *)
(* SAT route: persistent per-lane solvers                             *)

let ensure_round t lane =
  match t.round with
  | None -> invalid_arg "Dispatch: no active round"
  | Some rd ->
    if lane.l_round <> rd.rd_id then begin
      let solver = lane.l_solver in
      if lane.l_act >= 0 then Sat.release solver lane.l_act;
      let raig = rd.rd_sr.Specreduce.raig in
      let act = Sat.new_var solver in
      let k = max 1 t.cfg.unroll in
      let s = Array.init (Aig.num_latches raig) (fun _ -> Sat.new_var solver) in
      (* the Q-hat assumptions hold at frames 1..k, guarded by the round
         literal *)
      let assume frame enc =
        if frame < k then
          Array.iter
            (fun ob ->
              let a = enc ob.Specreduce.ob_mem_lit and b = enc ob.Specreduce.ob_rep_lit in
              Sat.add_clause ~act solver [ Sat.Lit.negate a; b ];
              Sat.add_clause ~act solver [ a; Sat.Lit.negate b ])
            rd.rd_sr.Specreduce.obligations
      in
      let frames, xs =
        Aig.Cnf.unroll ~act ~on_frame:assume solver raig ~n:(k + 1)
          ~first_latch_var:(Array.get s)
      in
      lane.l_round <- rd.rd_id;
      lane.l_act <- act;
      lane.l_enck <- frames.(k);
      lane.l_s <- s;
      lane.l_xs <- xs
    end

type sat_result =
  | Sat_discharged of float  (* work *)
  | Sat_refuted of bool array * bool array array * float  (* (s, per-frame inputs, work) *)

let sat_solve t lane ob =
  poll t;
  t.check_budget ();
  ensure_round t lane;
  let solver = lane.l_solver in
  let p0 = Sat.num_propagations solver and c0 = Sat.num_conflicts solver in
  let work () =
    float (Sat.num_propagations solver - p0 + (conflict_work * (Sat.num_conflicts solver - c0)))
  in
  let d = Sat.new_var solver in
  let a2 = lane.l_enck ob.Specreduce.ob_mem_lit
  and b2 = lane.l_enck ob.Specreduce.ob_rep_lit in
  (* d -> (a2 XOR b2): the obligation fails at the last frame *)
  Sat.add_clause ~act:d solver [ a2; b2 ];
  Sat.add_clause ~act:d solver [ Sat.Lit.negate a2; Sat.Lit.negate b2 ];
  let result =
    match Sat.solve solver ~assumptions:[ Sat.Lit.pos lane.l_act; Sat.Lit.pos d ] with
    | Sat.Unsat -> Sat_discharged (work ())
    | Sat.Sat ->
      let read = Array.map (fun v -> Sat.value solver v) in
      Sat_refuted (read lane.l_s, Array.map read lane.l_xs, work ())
  in
  Sat.release solver d;
  result

(* ------------------------------------------------------------------ *)
(* The per-round discharge driver                                     *)

(* Discharge every obligation of [sr] against [partition], replaying
   counterexamples through the shared pool.  Returns (refuted, splits):
   the number of failed assumptions and the number of classes the
   replayed patterns created.  The caller rebuilds the reduction while
   [refuted > 0]. *)
let discharge t partition sr =
  t.round_ctr <- t.round_ctr + 1;
  t.round <- Some { rd_id = t.round_ctr; rd_sr = sr };
  let splits = ref 0 in
  let refuted = ref 0 in
  poll t;
  let bdd_obs, sat_obs =
    List.partition
      (fun ob -> route_obligation t ob = Bdd)
      (Array.to_list sr.Specreduce.obligations)
  in
  (* 1. BDD screen (coordinator-serial): unconstrained validity on the
     reduced circuit; counterexamples must pass the Q check on the
     original product before they refute, otherwise the obligation
     escalates to SAT.  A two-frame counterexample refutes only at depth
     1: at depth k > 1 the run must satisfy Q on k frames, which the
     check does not see, so the obligation escalates to SAT as well. *)
  let sat_obs = ref sat_obs in
  let br = lazy (bdd_state t sr.Specreduce.raig) in
  List.iter
    (fun ob ->
      if Specreduce.obligation_live partition ob then begin
        let br = Lazy.force br in
        if br.br_dead then sat_obs := ob :: !sat_obs
        else begin
          let made = Bdd.made_nodes br.br_man in
          let work () = float (node_work * (Bdd.made_nodes br.br_man - made)) in
          match bdd_solve t br sr.Specreduce.raig ob with
          | Bdd_discharged ->
            t.by_bdd <- t.by_bdd + 1;
            observe t ~cls:ob.Specreduce.ob_class ~engine:Bdd (work ())
          | Bdd_maybe (s, x1, x2) ->
            observe t ~cls:ob.Specreduce.ob_class ~engine:Bdd (work ());
            if t.cfg.unroll = 1 && Specreduce.q_holds t.product partition ~pi:x1 ~latch:s
            then begin
              t.by_bdd <- t.by_bdd + 1;
              incr refuted;
              replay_cex t partition ~splits ~s ~xs:[| x1; x2 |]
            end
            else sat_obs := ob :: !sat_obs
          | Bdd_out ->
            ban t ~cls:ob.Specreduce.ob_class ~engine:Bdd;
            sat_obs := ob :: !sat_obs
        end
      end)
    bdd_obs;
  (* 2. SAT (parallel over the persistent lanes): exact discharge under
     the Q-hat assumptions.  The partition is only read here on the
     coordinator — staleness is filtered before the batch, and no flush
     happens during it. *)
  let sat_obs =
    Array.of_list
      (List.filter (Specreduce.obligation_live partition) (List.rev !sat_obs))
  in
  let results = Parsweep.map t.sched ~f:(fun lane ob -> sat_solve t lane ob) sat_obs in
  Array.iteri
    (fun i result ->
      let ob = sat_obs.(i) in
      t.sat_solves <- t.sat_solves + 1;
      t.by_sat <- t.by_sat + 1;
      match result with
      | Sat_discharged dt -> observe t ~cls:ob.Specreduce.ob_class ~engine:Sat dt
      | Sat_refuted (s, xs, dt) ->
        observe t ~cls:ob.Specreduce.ob_class ~engine:Sat dt;
        incr refuted;
        replay_cex t partition ~splits ~s ~xs)
    results;
  (* 3. flush whatever the round buffered *)
  if Simpool.lanes t.pool > 0 then splits := !splits + Simpool.flush t.pool partition;
  (!refuted, !splits)

(* ------------------------------------------------------------------ *)

(* The dispatcher's run counters (its scheduler's are not reported: the
   sweep engine's own pool is the run's scheduler). *)
let harvest t =
  let solvers = List.map (fun l -> l.l_solver) (Parsweep.initialized_states t.sched) in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 solvers in
  {
    Counters.zero with
    Counters.sat_calls = t.sat_solves;
    conflicts = sum Sat.num_conflicts;
    propagations = sum Sat.num_propagations;
    restarts = sum Sat.num_restarts;
    encoded_vars = sum Sat.num_vars;
    peak_bdd_nodes = t.peak_nodes;
    spec_by_bdd = t.by_bdd;
    spec_by_sat = t.by_sat;
  }

let shutdown t = Parsweep.shutdown t.sched
