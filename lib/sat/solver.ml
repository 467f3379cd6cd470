(* A CDCL SAT solver: two-watched-literal propagation, first-UIP conflict
   analysis, VSIDS decision heuristic with an indexed binary heap, phase
   saving, Luby restarts and activity-based learned-clause reduction.

   This is the "combinational verification technique based on the
   introduction of extra variables representing intermediate signals" that
   the paper names as future work; the scorr engine can use it instead of
   BDDs for the refinement checks.

   Invariant relied on by the parallel sweep scheduler: ALL mutable
   state is confined to the record [t] below — no module-level
   references, caches or scratch buffers — so independent instances can
   run concurrently in separate domains without synchronization.  Keep
   it that way: any new scratch state belongs in [t]. *)

type clause = {
  mutable lits : int array;
  learned : bool;
  mutable act : float;
  mutable lbd : int; (* literal block distance at learn time; 0 for problem clauses *)
  act_tag : int; (* activation variable guarding this clause, or -1 *)
}

type result = Sat | Unsat

type proof_step = Step_add of int list | Step_delete of int list
(* DRAT-style trace events over packed literals: learned-clause additions
   (including the final clause an assumption-refuted solve implies) and
   clause deletions (learned-clause reduction, activation release). *)

(* lbool encoding: 0 = false, 1 = true, -1 = unknown *)
let l_undef = -1

type t = {
  mutable nvars : int;
  mutable clauses : clause list;
  mutable learnts : clause list;
  mutable n_learnts : int;
  mutable watches : clause list array; (* indexed by literal *)
  mutable assign : int array; (* per var: lbool *)
  mutable level : int array;
  mutable reason : clause option array;
  mutable polarity : bool array; (* saved phase *)
  mutable activity : float array;
  mutable trail : int array; (* literals in assignment order *)
  mutable trail_size : int;
  mutable trail_lim : int array; (* trail size at each decision level *)
  mutable n_levels : int;
  mutable qhead : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool;
  mutable seen : bool array; (* scratch for analyze *)
  (* VSIDS heap: heap of vars ordered by activity, with position index *)
  mutable heap : int array;
  mutable heap_size : int;
  mutable heap_pos : int array; (* -1 when not in heap *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable n_clauses : int; (* |clauses|, maintained so the hot path is O(1) *)
  mutable failed : int list;
      (* after an assumption-refuted solve: the failed-assumption core, a
         subset of the assumptions whose conjunction the clauses refute;
         [] after a globally unsat or Sat answer *)
  mutable proof : (proof_step -> unit) option;
  mutable on_input : (int list -> unit) option;
      (* observes every problem clause exactly as given to [add_clause]
         (activation guard included, before normalization) — the proof
         checker reconstructs the raw CNF through this *)
}

let create () =
  {
    nvars = 0;
    clauses = [];
    learnts = [];
    n_learnts = 0;
    watches = Array.make 2 [];
    assign = Array.make 1 l_undef;
    level = Array.make 1 0;
    reason = Array.make 1 None;
    polarity = Array.make 1 false;
    activity = Array.make 1 0.0;
    trail = Array.make 1 0;
    trail_size = 0;
    trail_lim = Array.make 16 0;
    n_levels = 0;
    qhead = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    seen = Array.make 1 false;
    heap = Array.make 1 0;
    heap_size = 0;
    heap_pos = Array.make 1 (-1);
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    n_clauses = 0;
    failed = [];
    proof = None;
    on_input = None;
  }

let set_proof_logger s f = s.proof <- f
let set_input_logger s f = s.on_input <- f

let log_proof s step = match s.proof with Some f -> f step | None -> ()

let grow_array a n dummy =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) dummy in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* --- VSIDS heap -------------------------------------------------------- *)

let heap_less s v w = s.activity.(v) > s.activity.(w)

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_less s s.heap.(i) s.heap.(p) then begin
      let tmp = s.heap.(i) in
      s.heap.(i) <- s.heap.(p);
      s.heap.(p) <- tmp;
      s.heap_pos.(s.heap.(i)) <- i;
      s.heap_pos.(s.heap.(p)) <- p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && heap_less s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_size && heap_less s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    let tmp = s.heap.(i) in
    s.heap.(i) <- s.heap.(!best);
    s.heap.(!best) <- tmp;
    s.heap_pos.(s.heap.(i)) <- i;
    s.heap_pos.(s.heap.(!best)) <- !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap <- grow_array s.heap (s.heap_size + 1) 0;
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    heap_up s s.heap_pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  s.heap.(0) <- s.heap.(s.heap_size);
  s.heap_pos.(s.heap.(0)) <- 0;
  s.heap_pos.(v) <- -1;
  if s.heap_size > 0 then heap_down s 0;
  v

(* --- variables --------------------------------------------------------- *)

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  s.watches <- grow_array s.watches (2 * s.nvars) [];
  s.assign <- grow_array s.assign s.nvars l_undef;
  s.level <- grow_array s.level s.nvars 0;
  s.reason <- grow_array s.reason s.nvars None;
  s.polarity <- grow_array s.polarity s.nvars false;
  s.activity <- grow_array s.activity s.nvars 0.0;
  s.trail <- grow_array s.trail s.nvars 0;
  s.seen <- grow_array s.seen s.nvars false;
  s.heap_pos <- grow_array s.heap_pos s.nvars (-1);
  s.assign.(v) <- l_undef;
  s.reason.(v) <- None;
  s.polarity.(v) <- false;
  s.activity.(v) <- 0.0;
  s.heap_pos.(v) <- -1;
  heap_insert s v;
  v

let ensure_vars s n =
  while s.nvars < n do
    ignore (new_var s)
  done

let value_var s v = s.assign.(v)

let value_lit s l =
  let a = s.assign.(Lit.var l) in
  if a = l_undef then l_undef else a lxor (l land 1)

(* --- activities -------------------------------------------------------- *)

let var_decay = 1.0 /. 0.95
let cla_decay = 1.0 /. 0.999

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

let bump_clause s c =
  c.act <- c.act +. s.cla_inc;
  if c.act > 1e20 then begin
    List.iter (fun c -> c.act <- c.act *. 1e-20) s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

(* --- assignment / trail ------------------------------------------------ *)

let decision_level s = s.n_levels

let enqueue s l reason =
  let v = Lit.var l in
  s.assign.(v) <- (if Lit.sign l then 1 else 0);
  s.polarity.(v) <- Lit.sign l;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

let new_decision_level s =
  s.trail_lim <- grow_array s.trail_lim (s.n_levels + 1) 0;
  s.trail_lim.(s.n_levels) <- s.trail_size;
  s.n_levels <- s.n_levels + 1

let cancel_until s lvl =
  if decision_level s > lvl then begin
    for i = s.trail_size - 1 downto s.trail_lim.(lvl) do
      let v = Lit.var s.trail.(i) in
      s.assign.(v) <- l_undef;
      s.reason.(v) <- None;
      heap_insert s v
    done;
    s.trail_size <- s.trail_lim.(lvl);
    s.qhead <- s.trail_size;
    s.n_levels <- lvl
  end

(* --- watched literals --------------------------------------------------- *)

let attach s c =
  s.watches.(Lit.negate c.lits.(0)) <- c :: s.watches.(Lit.negate c.lits.(0));
  s.watches.(Lit.negate c.lits.(1)) <- c :: s.watches.(Lit.negate c.lits.(1))

(* Propagate all enqueued facts; returns the conflicting clause if any.
   The watch list of a true literal [p] contains clauses in which [~p] is
   watched (we index watches by the literal whose truth triggers a visit). *)
let propagate s =
  let conflict = ref None in
  while !conflict = None && s.qhead < s.trail_size do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let ws = s.watches.(p) in
    s.watches.(p) <- [];
    let rec visit = function
      | [] -> ()
      | c :: rest -> (
        let false_lit = Lit.negate p in
        if c.lits.(0) = false_lit then begin
          c.lits.(0) <- c.lits.(1);
          c.lits.(1) <- false_lit
        end;
        if value_lit s c.lits.(0) = 1 then begin
          (* clause already satisfied: keep the watch *)
          s.watches.(p) <- c :: s.watches.(p);
          visit rest
        end
        else begin
          (* look for a new literal to watch *)
          let n = Array.length c.lits in
          let rec find i =
            if i >= n then -1 else if value_lit s c.lits.(i) <> 0 then i else find (i + 1)
          in
          let i = find 2 in
          if i >= 0 then begin
            c.lits.(1) <- c.lits.(i);
            c.lits.(i) <- false_lit;
            s.watches.(Lit.negate c.lits.(1)) <- c :: s.watches.(Lit.negate c.lits.(1));
            visit rest
          end
          else begin
            (* unit or conflicting *)
            s.watches.(p) <- c :: s.watches.(p);
            if value_lit s c.lits.(0) = 0 then begin
              (* conflict: restore remaining watches and stop *)
              s.qhead <- s.trail_size;
              conflict := Some c;
              List.iter (fun c -> s.watches.(p) <- c :: s.watches.(p)) rest
            end
            else begin
              enqueue s c.lits.(0) (Some c);
              visit rest
            end
          end
        end)
    in
    visit ws
  done;
  !conflict

(* --- clause addition ---------------------------------------------------- *)

exception Trivially_sat

(* [act >= 0] guards the clause with activation variable [act]: the stored
   clause is [~act \/ lits] and {!release}[ act] retires it.  Activation
   variables must only ever be assumed positively (never asserted by a
   clause), so no level-0 fact can depend on a guarded clause. *)
let add_clause ?(act = -1) s lits =
  if s.ok then begin
    let lits = if act >= 0 then Lit.neg act :: lits else lits in
    (match s.on_input with Some f -> f lits | None -> ());
    if decision_level s > 0 then cancel_until s 0;
    (* normalize: sort, drop duplicates, detect tautology and false lits *)
    let lits = List.sort_uniq compare lits in
    try
      let lits =
        List.filter
          (fun l ->
            if List.mem (Lit.negate l) lits then raise Trivially_sat;
            match value_lit s l with
            | 1 -> raise Trivially_sat
            | 0 -> false
            | _ -> true)
          lits
      in
      match lits with
      | [] -> s.ok <- false
      | [ l ] ->
        enqueue s l None;
        if propagate s <> None then s.ok <- false
      | _ ->
        let c = { lits = Array.of_list lits; learned = false; act = 0.0; lbd = 0; act_tag = act } in
        s.clauses <- c :: s.clauses;
        s.n_clauses <- s.n_clauses + 1;
        attach s c
    with Trivially_sat -> ()
  end

(* --- conflict analysis (first UIP) -------------------------------------- *)

let analyze s confl =
  let learnt = ref [] in
  let path_c = ref 0 in
  let p = ref (-1) in
  let index = ref (s.trail_size - 1) in
  let confl = ref (Some confl) in
  let continue = ref true in
  while !continue do
    let c = match !confl with Some c -> c | None -> assert false in
    if c.learned then bump_clause s c;
    let start = if !p = -1 then 0 else 1 in
    for i = start to Array.length c.lits - 1 do
      let q = c.lits.(i) in
      let v = Lit.var q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        bump_var s v;
        if s.level.(v) >= decision_level s then incr path_c
        else learnt := q :: !learnt
      end
    done;
    (* next literal to expand: most recent seen literal on the trail *)
    while not s.seen.(Lit.var s.trail.(!index)) do
      decr index
    done;
    p := s.trail.(!index);
    decr index;
    let v = Lit.var !p in
    s.seen.(v) <- false;
    confl := s.reason.(v);
    decr path_c;
    if !path_c <= 0 then continue := false
  done;
  let learnt = Lit.negate !p :: !learnt in
  (* clear seen flags *)
  List.iter (fun q -> s.seen.(Lit.var q) <- false) learnt;
  (* backtrack level: highest level among the non-asserting literals *)
  let bt_level =
    List.fold_left
      (fun acc q -> if Lit.negate q = !p then acc else max acc s.level.(Lit.var q))
      0 learnt
  in
  (Array.of_list learnt, bt_level)

(* Distinct decision levels among the literals — measured before
   backtracking, while the levels that produced the clause are current. *)
let compute_lbd s lits =
  let levels = ref [] in
  Array.iter
    (fun q ->
      let lv = s.level.(Lit.var q) in
      if lv > 0 && not (List.mem lv !levels) then levels := lv :: !levels)
    lits;
  List.length !levels

let record_learnt s lits bt_level =
  let lbd = compute_lbd s lits in
  log_proof s (Step_add (Array.to_list lits));
  cancel_until s bt_level;
  if Array.length lits = 1 then begin
    enqueue s lits.(0) None
  end
  else begin
    (* ensure lits.(1) is at the backtrack level so watches stay valid *)
    let hi = ref 1 in
    for i = 2 to Array.length lits - 1 do
      if s.level.(Lit.var lits.(i)) > s.level.(Lit.var lits.(!hi)) then hi := i
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!hi);
    lits.(!hi) <- tmp;
    let c = { lits; learned = true; act = 0.0; lbd; act_tag = -1 } in
    bump_clause s c;
    s.learnts <- c :: s.learnts;
    s.n_learnts <- s.n_learnts + 1;
    attach s c;
    enqueue s lits.(0) (Some c)
  end

(* --- learned clause reduction ------------------------------------------- *)

let locked s c =
  Array.length c.lits > 0
  &&
  let v = Lit.var c.lits.(0) in
  match s.reason.(v) with Some r -> r == c && s.assign.(v) <> l_undef | None -> false

let detach s c =
  let remove l = s.watches.(l) <- List.filter (fun c' -> c' != c) s.watches.(l) in
  remove (Lit.negate c.lits.(0));
  remove (Lit.negate c.lits.(1))

let reduce_db s =
  let sorted = List.sort (fun a b -> compare a.act b.act) s.learnts in
  let n = List.length sorted in
  let to_drop = n / 2 in
  let dropped = ref 0 in
  let keep =
    List.filter
      (fun c ->
        if !dropped < to_drop && (not (locked s c)) && Array.length c.lits > 2 then begin
          detach s c;
          log_proof s (Step_delete (Array.to_list c.lits));
          incr dropped;
          false
        end
        else true)
      sorted
  in
  s.learnts <- keep;
  s.n_learnts <- List.length keep

(* --- activation release -------------------------------------------------- *)

(* Retire activation variable [g]: the guarded problem clauses and every
   learnt mentioning [~g] are permanently satisfied once [~g] holds, so
   they are detached and dropped (activation-aware garbage collection)
   before the retiring unit is asserted. *)
let release s g =
  if s.ok then begin
    cancel_until s 0;
    let ng = Lit.neg g in
    let drop c =
      detach s c;
      log_proof s (Step_delete (Array.to_list c.lits));
      (* a dropped clause may linger as the reason of a level-0 fact;
         level-0 reasons are never dereferenced, but clear it anyway *)
      if Array.length c.lits > 0 then begin
        let v = Lit.var c.lits.(0) in
        match s.reason.(v) with Some r when r == c -> s.reason.(v) <- None | _ -> ()
      end
    in
    s.clauses <-
      List.filter
        (fun c ->
          if c.act_tag = g then begin
            drop c;
            s.n_clauses <- s.n_clauses - 1;
            false
          end
          else true)
        s.clauses;
    s.learnts <-
      List.filter
        (fun c ->
          if Array.exists (fun l -> l = ng) c.lits then begin
            drop c;
            s.n_learnts <- s.n_learnts - 1;
            false
          end
          else true)
        s.learnts;
    add_clause s [ ng ]
  end

(* --- search -------------------------------------------------------------- *)

(* Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let luby y x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  y ** float_of_int !seq

let pick_branch_var s =
  let rec go () =
    if s.heap_size = 0 then -1
    else
      let v = heap_pop s in
      if s.assign.(v) = l_undef then v else go ()
  in
  go ()

exception Found of result

(* Failed-assumption core: the assumption [a] is falsified by unit
   propagation from the clauses and the assumptions installed so far.
   Walk the implication graph backwards from [a]; every decision reached
   is an assumption (assumptions are installed before any branch
   decision), and together with [a] they form a subset of the assumptions
   whose conjunction the clauses already refute. *)
let analyze_final s a =
  s.failed <- [ a ];
  if decision_level s > 0 then begin
    s.seen.(Lit.var a) <- true;
    for i = s.trail_size - 1 downto s.trail_lim.(0) do
      let v = Lit.var s.trail.(i) in
      if s.seen.(v) then begin
        (match s.reason.(v) with
        | None -> s.failed <- s.trail.(i) :: s.failed
        | Some c ->
          for j = 1 to Array.length c.lits - 1 do
            let u = Lit.var c.lits.(j) in
            if s.level.(u) > 0 then s.seen.(u) <- true
          done);
        s.seen.(v) <- false
      end
    done;
    s.seen.(Lit.var a) <- false
  end

(* Search until a restart is due ([budget] conflicts), Sat, or Unsat.
   [assumptions] are re-installed as the first decisions after every
   restart or deep backjump; an array, so installing one is O(1). *)
let search s assumptions budget =
  let conflicts_here = ref 0 in
  try
    while true do
      match propagate s with
      | Some confl ->
        s.conflicts <- s.conflicts + 1;
        incr conflicts_here;
        if decision_level s = 0 then begin
          (* a contradiction at level 0 is independent of assumptions and
             decisions: the instance itself is unsatisfiable, permanently *)
          s.ok <- false;
          s.failed <- [];
          raise (Found Unsat)
        end;
        let learnt, bt = analyze s confl in
        record_learnt s learnt bt;
        s.var_inc <- s.var_inc *. var_decay;
        s.cla_inc <- s.cla_inc *. cla_decay
      | None ->
        if !conflicts_here >= budget then begin
          cancel_until s 0;
          raise Exit
        end;
        if s.n_learnts > 4000 + (2 * s.n_clauses) then reduce_db s;
        (* install pending assumptions as decisions *)
        if decision_level s < Array.length assumptions then begin
          let a = assumptions.(decision_level s) in
          match value_lit s a with
          | 0 ->
            (* assumption contradicted: extract the failed core *)
            analyze_final s a;
            raise (Found Unsat)
          | 1 -> new_decision_level s (* dummy level, already true *)
          | _ ->
            new_decision_level s;
            enqueue s a None
        end
        else begin
          let v = pick_branch_var s in
          if v < 0 then raise (Found Sat)
          else begin
            s.decisions <- s.decisions + 1;
            new_decision_level s;
            enqueue s (Lit.make v s.polarity.(v)) None
          end
        end
    done;
    assert false
  with
  | Exit -> None
  | Found r -> Some r

let solve ?(assumptions = []) s =
  s.failed <- [];
  if not s.ok then Unsat
  else begin
    cancel_until s 0;
    match propagate s with
    | Some _ ->
      s.ok <- false;
      log_proof s (Step_add []);
      Unsat
    | None ->
      let assumptions = Array.of_list assumptions in
      let restart = ref 0 in
      let rec loop () =
        let budget = int_of_float (100.0 *. luby 2.0 !restart) in
        if !restart > 0 then s.restarts <- s.restarts + 1;
        incr restart;
        match search s assumptions budget with
        | Some r -> r
        | None -> loop ()
      in
      let r = loop () in
      (* keep the model readable after Sat; always reusable afterwards *)
      if r = Unsat then begin
        cancel_until s 0;
        (* the refutation implies the negation of the failed core (the
           empty clause when the instance is unsatisfiable outright) *)
        log_proof s (Step_add (List.map Lit.negate s.failed))
      end;
      r
  end

let solve_under_assumptions s assumptions = solve ~assumptions s
let failed_assumptions s = s.failed

let model_value s v =
  match s.assign.(v) with
  | 1 -> true
  | 0 -> false
  | _ -> false (* unconstrained variable: any value works *)

let model s = Array.init s.nvars (fun v -> model_value s v)

let after_solve_cleanup s = cancel_until s 0

(* --- learned-clause exchange --------------------------------------------- *)

(* Learnt clauses confined to variables below [limit_var] were derived from
   clauses over those variables alone: selector and activation variables
   occur only negatively in the problem clauses, so resolution can never
   eliminate them — any derivation that touches a guarded clause leaves its
   guard literal in the resolvent.  Such clauses are consequences of the
   shared base encoding and are sound to import into any solver holding an
   identical copy of it. *)
let export_learnts s ~limit_var ~max_size ~max_lbd =
  List.filter_map
    (fun c ->
      if
        Array.length c.lits <= max_size
        && c.lbd <= max_lbd
        && Array.for_all (fun l -> Lit.var l < limit_var) c.lits
      then Some (Array.to_list c.lits)
      else None)
    s.learnts

(* Install a clause known to be entailed (an import from a sibling solver):
   stored as a learnt so reduction can drop it again. *)
let import_clause s lits =
  if s.ok then begin
    if decision_level s > 0 then cancel_until s 0;
    List.iter (fun l -> if Lit.var l >= s.nvars then ensure_vars s (Lit.var l + 1)) lits;
    let lits = List.sort_uniq compare lits in
    try
      let lits =
        List.filter
          (fun l ->
            if List.mem (Lit.negate l) lits then raise Trivially_sat;
            match value_lit s l with
            | 1 -> raise Trivially_sat
            | 0 -> false
            | _ -> true)
          lits
      in
      match lits with
      | [] -> s.ok <- false
      | [ l ] ->
        log_proof s (Step_add [ l ]);
        enqueue s l None;
        if propagate s <> None then s.ok <- false
      | _ ->
        log_proof s (Step_add lits);
        let c = { lits = Array.of_list lits; learned = true; act = 0.0; lbd = List.length lits; act_tag = -1 } in
        s.learnts <- c :: s.learnts;
        s.n_learnts <- s.n_learnts + 1;
        attach s c
    with Trivially_sat -> ()
  end

let num_vars s = s.nvars
let num_clauses s = s.n_clauses
let num_learnts s = s.n_learnts
let num_conflicts s = s.conflicts
let num_decisions s = s.decisions
let num_propagations s = s.propagations
let num_restarts s = s.restarts
let is_consistent s = s.ok
