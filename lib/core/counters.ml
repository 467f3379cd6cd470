(* The run counters of one verification, declared in one place.

   Every figure a run reports lives in the record below, and every
   counter also has one row in the table [fields]: its JSON key (bench
   rows, serve outcomes), its CLI label, its unit, the group it prints
   under, and the rule that combines two harvests.

   The sources — the two refinement engines, the sweep scheduler, the
   speculation screen and Verify's own loop — keep counting in their
   local mutable fields and atomics.  When a source is harvested it
   returns one record with its own counters set and the rest at [zero];
   Verify folds each harvest into its single accumulator with [combine].
   The CLI, bench and serve renderers iterate the table, so a new counter
   is one record field, one table row, and the code that increments it. *)

(* The record sits in its own module so that [Verify] can re-export it as
   [Verify.stats], labels included, with one [include]. *)
module Record = struct
  type stats = {
    iterations : int; (* refinement iterations, all rounds *)
    retime_rounds : int; (* times the retiming extension was invoked *)
    candidates : int; (* |F| of the last round *)
    classes : int; (* classes of the final relation *)
    peak_bdd_nodes : int;
    sat_calls : int;
    pool_lanes : int; (* counterexample patterns accumulated in the pool *)
    resim_splits : int; (* classes created by bit-parallel pattern replay *)
    batched_solves : int; (* one-per-class disjunctive solves / key scans *)
    cache_hits : int; (* classes skipped by the stability (UNSAT) cache *)
    static_splits : int; (* always 0: the static prefilter is gone *)
    spec_rounds : int; (* speculative reductions screened (0 = speculation off) *)
    spec_merges : int; (* candidate members merged onto representatives, all rounds *)
    refuted_assumptions : int; (* always 0: the screen never refutes *)
    spec_by_sim : int; (* always 0 *)
    spec_by_bdd : int; (* obligations the BDD screen proved *)
    spec_by_sat : int; (* obligations the screen left to the SAT sweep *)
    domains : int; (* worker lanes of the sweep scheduler *)
    lane_solves : int list; (* sweep tasks completed per lane *)
    sched_wait_seconds : float; (* coordinator idle time awaiting workers *)
    conflicts : int; (* SAT conflicts, summed over every solver of the run *)
    propagations : int; (* SAT propagations, likewise *)
    restarts : int; (* SAT restarts, likewise *)
    encoded_vars : int; (* SAT variables created, across every solver *)
    reused_clauses : int; (* clauses in place when a solve was issued: work not redone *)
    core_prunes : int; (* class re-solves skipped by failed-core transfer *)
    eq_pct : float; (* % of spec signals with an impl correspondence *)
    seconds : float;
    phase_seconds : (string * float) list; (* wall time per verification phase *)
    exhausted : string option; (* the blown budget behind an Unknown, if any *)
  }
end

include Record

type t = stats

(* Nothing counted yet.  [domains] starts at 1: the coordinator's lane
   always exists. *)
let zero =
  { iterations = 0; retime_rounds = 0; candidates = 0; classes = 0; peak_bdd_nodes = 0;
    sat_calls = 0; pool_lanes = 0; resim_splits = 0; batched_solves = 0; cache_hits = 0;
    static_splits = 0; spec_rounds = 0; spec_merges = 0; refuted_assumptions = 0;
    spec_by_sim = 0; spec_by_bdd = 0; spec_by_sat = 0; domains = 1; lane_solves = [];
    sched_wait_seconds = 0.0; conflicts = 0; propagations = 0; restarts = 0;
    encoded_vars = 0; reused_clauses = 0; core_prunes = 0; eq_pct = 0.0;
    seconds = 0.0; phase_seconds = []; exhausted = None }

(* --- the table ---------------------------------------------------------------- *)

type value = Int of int | Float of float | Ints of int list

(* How two harvests of one counter combine: [Sum] for work done, [Max]
   for peaks, [Lanes] adds per-lane lists element-wise, and [Result]
   marks a property of the final relation that Verify sets once (the
   left operand's value is kept). *)
type rule = Sum | Max | Lanes | Result

(* The CLI prints a group only when it has something to say. *)
type group = Fixpoint | Solver | Speculation | Scheduler

type field = {
  key : string; (* JSON key *)
  label : string; (* CLI label *)
  unit : string; (* "s" or "%" for float counters; "" otherwise *)
  group : group;
  rule : rule;
  get : t -> value;
  set : t -> value -> t;
}

let wrong_kind key = invalid_arg ("Counters: wrong value kind for " ^ key)

let int ?(rule = Sum) group key label get set =
  { key; label; unit = ""; group; rule; get = (fun t -> Int (get t));
    set = (fun t -> function Int n -> set t n | _ -> wrong_kind key) }

let float ?(rule = Sum) ~unit group key label get set =
  { key; label; unit; group; rule; get = (fun t -> Float (get t));
    set = (fun t -> function Float x -> set t x | _ -> wrong_kind key) }

let ints group key label get set =
  { key; label; unit = ""; group; rule = Lanes; get = (fun t -> Ints (get t));
    set = (fun t -> function Ints ns -> set t ns | _ -> wrong_kind key) }

(* One row per counter, in display order.  [seconds], [phase_seconds] and
   [exhausted] describe the run rather than count its work: each renderer
   reports them in its own way. *)
let fields =
  [
    int Fixpoint "iterations" "iterations" (fun t -> t.iterations) (fun t iterations ->
        { t with iterations });
    int Fixpoint "retime_rounds" "retime rounds" (fun t -> t.retime_rounds)
      (fun t retime_rounds -> { t with retime_rounds });
    int ~rule:Result Fixpoint "candidates" "candidates" (fun t -> t.candidates)
      (fun t candidates -> { t with candidates });
    int ~rule:Result Fixpoint "classes" "classes" (fun t -> t.classes) (fun t classes ->
        { t with classes });
    int ~rule:Max Fixpoint "peak_nodes" "peak BDD nodes" (fun t -> t.peak_bdd_nodes)
      (fun t peak_bdd_nodes -> { t with peak_bdd_nodes });
    int Fixpoint "sat_calls" "SAT calls" (fun t -> t.sat_calls) (fun t sat_calls ->
        { t with sat_calls });
    int Fixpoint "batched_solves" "batched solves" (fun t -> t.batched_solves)
      (fun t batched_solves -> { t with batched_solves });
    int Fixpoint "pool_lanes" "pool lanes" (fun t -> t.pool_lanes) (fun t pool_lanes ->
        { t with pool_lanes });
    int Fixpoint "resim_splits" "resim splits" (fun t -> t.resim_splits) (fun t resim_splits ->
        { t with resim_splits });
    int Fixpoint "cache_hits" "cache hits" (fun t -> t.cache_hits) (fun t cache_hits ->
        { t with cache_hits });
    int Fixpoint "static_splits" "static splits" (fun t -> t.static_splits)
      (fun t static_splits -> { t with static_splits });
    float ~rule:Result ~unit:"%" Fixpoint "eq_pct" "equivalences" (fun t -> t.eq_pct)
      (fun t eq_pct -> { t with eq_pct });
    int Solver "conflicts" "SAT conflicts" (fun t -> t.conflicts) (fun t conflicts ->
        { t with conflicts });
    int Solver "propagations" "propagations" (fun t -> t.propagations) (fun t propagations ->
        { t with propagations });
    int Solver "restarts" "restarts" (fun t -> t.restarts) (fun t restarts ->
        { t with restarts });
    int Solver "encoded_vars" "encoded vars" (fun t -> t.encoded_vars) (fun t encoded_vars ->
        { t with encoded_vars });
    int Solver "reused_clauses" "reused clauses" (fun t -> t.reused_clauses)
      (fun t reused_clauses -> { t with reused_clauses });
    int Solver "core_prunes" "core prunes" (fun t -> t.core_prunes) (fun t core_prunes ->
        { t with core_prunes });
    int Speculation "spec_rounds" "spec rounds" (fun t -> t.spec_rounds) (fun t spec_rounds ->
        { t with spec_rounds });
    int Speculation "spec_merges" "spec merges" (fun t -> t.spec_merges) (fun t spec_merges ->
        { t with spec_merges });
    int Speculation "refuted_assumptions" "refuted assumps" (fun t -> t.refuted_assumptions)
      (fun t refuted_assumptions -> { t with refuted_assumptions });
    int Speculation "spec_by_sim" "classes by sim" (fun t -> t.spec_by_sim)
      (fun t spec_by_sim -> { t with spec_by_sim });
    int Speculation "spec_by_bdd" "classes by BDD" (fun t -> t.spec_by_bdd)
      (fun t spec_by_bdd -> { t with spec_by_bdd });
    int Speculation "spec_by_sat" "classes by SAT" (fun t -> t.spec_by_sat)
      (fun t spec_by_sat -> { t with spec_by_sat });
    int ~rule:Max Scheduler "domains" "domains" (fun t -> t.domains) (fun t domains ->
        { t with domains });
    ints Scheduler "lane_solves" "lane solves" (fun t -> t.lane_solves) (fun t lane_solves ->
        { t with lane_solves });
    float ~unit:"s" Scheduler "sched_wait" "sched wait" (fun t -> t.sched_wait_seconds)
      (fun t sched_wait_seconds -> { t with sched_wait_seconds });
  ]

(* --- combining harvests ----------------------------------------------------------- *)

let rec add_lanes a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | x :: a, y :: b -> (x + y) :: add_lanes a b

(* Fields outside the table keep [a]'s values. *)
let combine a b =
  List.fold_left
    (fun acc f ->
      match (f.rule, f.get a, f.get b) with
      | Result, _, _ -> acc
      | Sum, Int x, Int y -> f.set acc (Int (x + y))
      | Sum, Float x, Float y -> f.set acc (Float (x +. y))
      | Max, Int x, Int y -> f.set acc (Int (max x y))
      | Lanes, Ints x, Ints y -> f.set acc (Ints (add_lanes x y))
      | _ -> wrong_kind f.key)
    a fields

(* --- rendering -------------------------------------------------------------------- *)

(* A peak still at 0 measured nothing (the run built no BDD); JSON spells
   that null. *)
let measured f v = not (f.rule = Max && v = Int 0)

(* The counters keyed by JSON key, in table order: the form the serve
   outcome carries.  [of_list] is its inverse; missing keys stay at
   [zero]. *)
let to_list t = List.map (fun f -> (f.key, f.get t)) fields

let of_list l =
  List.fold_left
    (fun t f -> match List.assoc_opt f.key l with Some v -> f.set t v | None -> t)
    zero fields

let shown t = function
  | Fixpoint -> true
  | Solver -> t.conflicts > 0 || t.propagations > 0
  | Speculation -> t.spec_rounds > 0
  | Scheduler -> t.domains > 1

let show f = function
  | Int n -> string_of_int n
  | Float x when f.unit = "%" -> Printf.sprintf "%.1f%%" x
  | Float x -> Printf.sprintf "%.2f %s" x f.unit
  | Ints ns -> String.concat "," (List.map string_of_int ns)

(* The CLI block: one "  label: value" line per counter of every group
   with something to say. *)
let render t =
  String.concat ""
    (List.filter_map
       (fun f ->
         if shown t f.group then
           Some (Printf.sprintf "  %-17s%s\n" (f.label ^ ":") (show f (f.get t)))
         else None)
       fields)
