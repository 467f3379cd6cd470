(** Static structural analysis over AIGs.

    Facts a solver never has to discover: per-node shape metrics,
    SAT-discharged structural reduction and static diagnostics — plus the policy that turns the metrics into the
    engine of the verification portfolio's k = 1 rung.  Everything here
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

(** Shape metrics -> the engine of the portfolio's k = 1 rung. *)
module Steer : sig
  val bdd_latch_limit : int
  val bdd_level_limit : int

  val bdd_first : product_latches:int -> levels:int -> bool
  (** Run the BDD engine (rather than the SAT engine) at k = 1: the
      product has at most [bdd_latch_limit] state variables and at most
      [bdd_level_limit] combinational levels.  Both engines reach the same
      k = 1 fixed point, so this only picks the cheaper one. *)
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
