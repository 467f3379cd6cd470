(** Static structural analysis over AIGs.

    Facts a solver never has to discover: per-node shape metrics,
    SAT-discharged structural reduction, input-support prefiltering, and
    static diagnostics — plus the policy that turns the metrics into an
    engine-steering plan for the verification portfolio.  Everything here
    is computed before (or between) fixed-point runs; nothing depends on
    the correspondence engines. *)

(** Per-node structural metrics: logic level, fanout, register distance,
    combinational cone size, structural-hash signatures. *)
module Metrics : sig
  type t = {
    n : int;
    level : int array;  (** combinational depth; inputs/latches/const = 0 *)
    latch_dist : int array;
        (** min register crossings back to a PI; [max_int] = autonomous *)
    fanout : int array;  (** references as AND fanin, latch next or PO *)
    cone : int array;  (** nodes in the combinational transitive fanin, inclusive *)
    signature : int64 array;  (** structural hash, polarity-normalized fanins *)
  }

  val infinity_dist : int
  val make : Aig.t -> t

  type summary = {
    pis : int;
    latches : int;
    ands : int;
    pos : int;
    levels : int;
    max_cone : int;
    max_fanout : int;
    max_latch_dist : int;
    autonomous : int;  (** nodes with no structural path from any PI *)
    distinct_signatures : int;
  }

  val summarize : Aig.t -> t -> summary
  val summary : Aig.t -> summary
end

(** Primary-input support closed through latch next-state functions; the
    static candidate-equivalence prefilter is built on its disjointness
    queries. *)
module Prefilter : sig
  type t

  val make : Aig.t -> t
  val empty : t -> int -> bool
  (** No structural path from any PI (autonomous signal). *)

  val intersects : t -> int -> int -> bool

  val compatible : t -> int -> int -> bool
  (** May the two nodes stay equivalence candidates?  [false] exactly when
      both supports are non-empty and disjoint — splitting such a pair
      from a candidate class costs zero solver calls, preserves verdict
      soundness, and can only lose a proof that hinges on a semantically
      input-free pair whose vacuity is not structural. *)

  val support_size : t -> int -> int
end

(** Structural reduction: two-level AND rewriting, constant propagation
    (via the base constructors) and FRAIG-lite merging, one SAT-discharged
    proof obligation per merge. *)
module Reduce : sig
  type stats = {
    ands_before : int;
    ands_after : int;
    rewrites : int;  (** two-level identity applications during rebuild *)
    fraig_merges : int;  (** SAT-proven cone merges applied *)
    sat_calls : int;
    refuted : int;
    rounds : int;
    obligations : (int * int) list;
        (** literal pairs of the ORIGINAL circuit proven combinationally
            equivalent (latches free) — one discharged obligation per
            merge *)
  }

  val run : ?seed:int -> Aig.t -> Aig.t * stats
  (** Sixteen rounds of the {!Transform.Fraig} kernel, rebuilt through
      {!smart_and}.  Semantics-preserving: PIs and POs (names, order) are preserved
      exactly, and every merge is valid in every state, so all input
      traces produce identical output traces.  Latches keep their
      relative order and initialization, but an unobservable latch may be
      garbage collected with its dead cone.  Idempotent up to
      SAT-counterexample timing: a second pass finds nothing left to
      merge. *)

  val check_obligations : Aig.t -> (int * int) list -> (int * int) list
  (** Independently re-prove recorded obligations on the original circuit
      with a fresh solver; returns the pairs that FAIL (empty = all merges
      confirmed). *)

  val smart_and : int ref -> Aig.t -> int -> int -> int
  (** [smart_and rewrites dst a b] builds AND(a, b) in [dst] through the
      two-level rewrite rules (absorption, contradiction, substitution,
      subsumption) on top of the base structural hashing, bumping
      [rewrites] whenever an identity fires.  The strashing entry point the
      speculative reducer shares with [run]. *)
end

(** Static diagnostics (facts; lint assigns severities). *)
module Diag : sig
  type t = {
    acyclic : bool;
    structure_error : string option;
    undriven_latches : int list;
    dead_nodes : int list;  (** AND nodes no PO depends on *)
    unobservable_latches : int list;
    constant_pos : (string * bool) list;  (** (name, complemented) stuck POs *)
  }

  val run : Aig.t -> t
  val clean : t -> bool
end

(** Shape metrics -> portfolio rung ladder, plus the dynamic skip rules. *)
module Steer : sig
  type engine = Bdd | Sat
  type rung = { engine : engine; induction : int }
  type plan = { rungs : rung list; bdd_first : bool; reason : string }

  val bdd_latch_limit : int
  val bdd_level_limit : int

  val plan : ?max_unroll:int -> product_latches:int -> levels:int -> unit -> plan

  val redundant_after : completed:rung -> rung -> bool
  (** After [completed] finished its whole fixed point (Unknown, no blown
      budget), rungs of depth [<= completed.induction] would compute the
      same — or a coarser — relation and fail identically; skip them. *)

  val drop_on_exhaustion : reason:string option -> rung -> bool
  (** Drop later BDD rungs once one aborted on the node budget. *)
end

(** One-stop report for `seqver analyze` and the bench shape columns. *)
type report = {
  name : string;
  metrics : Metrics.summary;
  reduce : Reduce.stats option;
  diag : Diag.t;
}

val report : ?reduce:bool -> name:string -> Aig.t -> report
val render : report -> string
val to_json : report -> string
