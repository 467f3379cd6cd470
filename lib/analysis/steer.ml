(* Engine steering: turn static shape metrics into a rung ladder for the
   verification portfolio, plus the two dynamic rules the portfolio applies
   as rungs finish (past-solve-cost feedback).

   Static policy.  The BDD engine is the paper's method and wins on small
   state spaces; its failure mode is variable-order blowup, which tracks
   the number of state variables (product latches) and the combinational
   depth far better than gate count.  So: BDD first below the latch/level
   thresholds, SAT first above them.  The deeper SAT rungs (k = 2, 3)
   always follow — they are the only rungs that can prove circuits whose
   invariant is not 1-step inductive.

   Dynamic rule 1 (same-depth skip).  The greatest fixed point of the
   refinement at induction depth k is a property of the product machine,
   not of the engine computing it.  If a rung COMPLETES its fixed point —
   verdict Unknown with no exhausted budget — every other rung at the
   same depth would compute the same relation and fail the same way, so
   the portfolio skips them.  Skipping is conclusion-preserving: it
   removes provably redundant work, never a possible proof.

   Dynamic rule 2 (escalate on blowup).  A rung that aborts on "bdd
   nodes" has demonstrated the order blowup the static policy tries to
   predict; the remaining same-depth SAT rung still runs (its budget is
   independent), but no further BDD rung is scheduled. *)

type engine = Bdd | Sat

type rung = { engine : engine; induction : int }

type plan = {
  rungs : rung list;  (* in execution order *)
  bdd_first : bool;
  reason : string;  (* one-line trace of the static decision *)
}

(* Thresholds calibrated on the built-in suite: the largest BDD-friendly
   product there has 60 state variables (bus), while tx — 128 state
   variables — drives the BDD engine past a 1.5M-node peak without
   converging.  Levels guard the same failure through combinational
   depth. *)
let bdd_latch_limit = 96
let bdd_level_limit = 80

let plan ?(max_unroll = 3) ~product_latches ~levels () =
  let bdd_first = product_latches <= bdd_latch_limit && levels <= bdd_level_limit in
  let reason =
    if bdd_first then
      Printf.sprintf "bdd-first: %d state vars <= %d, %d levels <= %d" product_latches
        bdd_latch_limit levels bdd_level_limit
    else
      Printf.sprintf "sat-first: %d state vars > %d or %d levels > %d" product_latches
        bdd_latch_limit levels bdd_level_limit
  in
  let k1 =
    if bdd_first then [ { engine = Bdd; induction = 1 }; { engine = Sat; induction = 1 } ]
    else [ { engine = Sat; induction = 1 }; { engine = Bdd; induction = 1 } ]
  in
  let deeper =
    List.init (max 0 (max_unroll - 1)) (fun i -> { engine = Sat; induction = i + 2 })
  in
  { rungs = k1 @ deeper; bdd_first; reason }

(* Dynamic rule 1: [completed] computed its whole fixed point (Unknown,
   no blown budget) — which later rungs are now redundant? *)
let redundant_after ~completed rung = rung.induction <= completed.induction

(* Dynamic rule 2: should this rung be dropped given an earlier abort
   reason (the [exhausted] stats field of a finished rung)? *)
let drop_on_exhaustion ~reason rung =
  match reason with Some "bdd nodes" -> rung.engine = Bdd | _ -> false

(* Online per-class solve-cost model for the speculation dispatcher: an
   exponential moving average of past solve work, keyed on (class id,
   engine).  The dispatcher consults it before the static thresholds, so a
   class whose cones look BDD-friendly but whose obligations keep costing
   the BDD manager more than SAT migrates to SAT after a few rounds — and
   vice versa.  Exhaustion (node-limit blowup, budget refusal) is sticky: a
   banned (class, engine) pair is never routed to that engine again, which
   is the fallback path's contract. *)
module Cost = struct
  type t = {
    ema : (int * engine, float) Hashtbl.t;
    banned : (int * engine, unit) Hashtbl.t;
  }

  (* EMA smoothing: new estimate = alpha * sample + (1 - alpha) * old. *)
  let alpha = 0.5

  let create () = { ema = Hashtbl.create 64; banned = Hashtbl.create 16 }

  let observe t ~cls ~engine work =
    let key = (cls, engine) in
    let v =
      match Hashtbl.find_opt t.ema key with
      | None -> work
      | Some old -> (alpha *. work) +. ((1. -. alpha) *. old)
    in
    Hashtbl.replace t.ema key v

  let estimate t ~cls ~engine = Hashtbl.find_opt t.ema (cls, engine)
  let note_exhausted t ~cls ~engine = Hashtbl.replace t.banned (cls, engine) ()
  let exhausted t ~cls ~engine = Hashtbl.mem t.banned (cls, engine)

  (* Pick between the two proving engines for [cls]: banned engines are
     excluded; with both estimates present the cheaper EMA wins; a single
     estimate wins only while the other side has no data and the estimate
     beats [default] (the static-threshold choice) — otherwise fall back
     to [default]. *)
  let prefer t ~cls ~default =
    let pick e = Some e in
    let b_banned = exhausted t ~cls ~engine:Bdd in
    let s_banned = exhausted t ~cls ~engine:Sat in
    if b_banned && s_banned then None
    else if b_banned then pick Sat
    else if s_banned then pick Bdd
    else
      match (estimate t ~cls ~engine:Bdd, estimate t ~cls ~engine:Sat) with
      | Some b, Some s -> pick (if b <= s then Bdd else Sat)
      | _ -> pick default
end
