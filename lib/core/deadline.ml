(* Wall-clock deadline budgets, built on the monotonic-safe {!Clock}.

   A deadline is an absolute expiry instant plus a shared cancellation
   flag.  The flag is what makes the poll cheap and cooperative across
   worker domains: the first lane that observes [Clock.now () > at] sets
   it, and every other lane's next poll sees the flag without touching
   the wall clock again.  Engines poll inside rounds — once per class
   solve — so an abort lands within one class-solve of the expiry
   instead of one whole refinement round.

   Expiry never raises here: callers test {!expired} and raise
   [Budget_exceeded] themselves, the one budget abort of a run, so the
   abort path stays uniform with the call-count and node-count budgets.

   A deadline can also carry an {e external} cancellation flag — a shared
   atomic owned by someone outside the run, e.g. the serve daemon's
   per-job cancel.  The flag is deliberately separate from the internal
   [cancelled] latch: a portfolio rung whose time slice expires latches
   only its own deadline, while a job-level cancel must reach every rung
   the job will ever start.  Each rung therefore builds a fresh deadline
   for its slice and attaches the same external flag to all of them. *)

(* Raised by both engines, the speculation screen and Verify's own poll;
   it names the budget: "deadline", "sat calls", "bdd nodes",
   "iterations". *)
exception Budget_exceeded of string

type flag = bool Atomic.t

let flag () : flag = Atomic.make false
let cancel (f : flag) = Atomic.set f true
let cancelled (f : flag) = Atomic.get f

type t = {
  at : float; (* absolute Clock time of expiry; [infinity] = no deadline *)
  cancelled : bool Atomic.t; (* set once by whichever lane sees expiry first *)
  ext : flag option; (* external cancellation, e.g. a daemon job cancel *)
}

let none = { at = infinity; cancelled = Atomic.make false; ext = None }

(* [make ~seconds] starts the budget now; non-positive means unlimited. *)
let make ~seconds =
  if seconds <= 0.0 then none
  else { at = Clock.now () +. seconds; cancelled = Atomic.make false; ext = None }

let with_flag f t = { t with ext = Some f }

let active t = t.at < infinity || t.ext <> None

(* The external flag is read, never written: setting the internal latch
   from it would conflate "this slice ran out" with "the job was
   cancelled" on deadlines that share structure (notably [none]). *)
let expired t =
  Atomic.get t.cancelled
  || (match t.ext with Some f -> Atomic.get f | None -> false)
  || (t.at < infinity
     && Clock.now () > t.at
     &&
     (Atomic.set t.cancelled true;
      true))

let remaining t = if t.at = infinity then infinity else max 0.0 (t.at -. Clock.now ())
