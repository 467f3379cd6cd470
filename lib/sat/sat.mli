(** A CDCL SAT solver.

    Two-watched-literal propagation, first-UIP clause learning, VSIDS
    branching, phase saving, Luby restarts and learned-clause reduction —
    the combinational engine "based on the introduction of extra variables
    representing intermediate signals" that the paper lists as future work.

    Typical use: create a solver, allocate variables, add clauses, then call
    {!solve} (optionally under assumptions, which enables incremental
    equivalence queries without copying the clause database).

    Domain safety: the solver keeps {e no} global mutable state — every
    clause, watch list, trail and heuristic counter lives inside its
    {!t} — so distinct instances may be driven concurrently from
    distinct domains (the parallel sweep scheduler relies on this).  A
    single instance is not thread-safe and must stay confined to one
    domain at a time. *)

(** Literals packed as ints ([2v] positive, [2v+1] negative). *)
module Lit : sig
  type t = int

  val make : int -> bool -> t
  (** [make v sign]: positive literal of [v] when [sign]. *)

  val pos : int -> t
  val neg : int -> t

  val var : t -> int
  val negate : t -> t

  val sign : t -> bool
  (** [true] iff the literal is positive. *)

  val to_int : t -> int
  (** DIMACS integer (1-based, sign = polarity). *)

  val of_int : int -> t
  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
end

type t
(** A solver instance (mutable). *)

type result = Sat | Unsat

type proof_step = Step_add of Lit.t list | Step_delete of Lit.t list
(** One DRAT trace event: a learned-clause addition (each RUP with respect
    to the clauses live when it was derived; the final addition of an
    assumption-refuted solve is the negated failed core) or an advisory
    clause deletion (learned-clause reduction, activation release). *)

val create : unit -> t

val new_var : t -> int
(** Allocate and return a fresh variable index. *)

val ensure_vars : t -> int -> unit
(** Make sure variables [0 .. n-1] exist. *)

val add_clause : ?act:int -> t -> Lit.t list -> unit
(** Add a clause (at decision level 0).  Tautologies are dropped; an empty
    clause makes the instance permanently inconsistent.

    [?act] guards the clause with an activation variable: the stored clause
    is [~act \/ lits], so it only bites while [act] is assumed, and
    {!release} retires it for good.  Activation variables must never be
    forced true by a clause — only assumed — so that no permanent (level-0)
    fact can come to depend on a guarded clause. *)

val solve : ?assumptions:Lit.t list -> t -> result
(** Solve under optional assumptions.  Assumptions are temporary: they hold
    for this call only.  After [Sat] the model is readable with {!value} /
    {!model}; after [Unsat] under assumptions, {!failed_assumptions} is the
    failed core. *)

val solve_under_assumptions : t -> Lit.t list -> result
(** [solve_under_assumptions s a = solve ~assumptions:a s]. *)

val failed_assumptions : t -> Lit.t list
(** After an [Unsat] answer: a subset of the assumptions whose conjunction
    the clauses refute (the failed core), or [[]] when the instance is
    unsatisfiable regardless of assumptions.  Reset by every {!solve}. *)

val release : t -> int -> unit
(** Retire activation variable [g]: assert [~g] permanently, first
    dropping every clause guarded by [g] and every learned clause
    mentioning [~g] (activation-aware garbage collection — the retired
    selector's clauses do not keep burdening propagation). *)

val set_proof_logger : t -> (proof_step -> unit) option -> unit
(** Stream DRAT trace events ({!proof_step}) to the callback: learned
    clauses as they are recorded, deletions as clauses are dropped, and on
    every [Unsat] answer a final addition of the negated failed core (the
    empty clause when unconditionally unsatisfiable). *)

val set_input_logger : t -> (Lit.t list -> unit) option -> unit
(** Observe every problem clause exactly as handed to {!add_clause}
    (activation guard included, before normalization) — an independent
    checker reconstructs the raw CNF through this. *)

val value : t -> int -> bool
(** Model value of a variable after a [Sat] answer (arbitrary but fixed for
    unconstrained variables). *)

val value_lit : t -> Lit.t -> bool
(** Model value of a literal: {!value} of its variable, complemented for
    negative literals. *)

val model : t -> bool array

val is_consistent : t -> bool
(** [false] once an empty clause has been derived at level 0. *)

(** {1 Statistics} *)

val num_vars : t -> int
val num_clauses : t -> int
val num_learnts : t -> int
val num_conflicts : t -> int
val num_decisions : t -> int
val num_propagations : t -> int
val num_restarts : t -> int

(** {1 DIMACS and DRAT} *)

module Dimacs : sig
  type cnf = { nvars : int; clauses : int list list }

  val parse_string : string -> cnf
  val to_string : cnf -> string
  val load_into : t -> cnf -> unit

  type drat_step = Add of int list | Delete of int list
  (** One line of a textual DRAT proof trace, literals as DIMACS
      integers: an addition (required to be RUP against the clauses in
      force when it appears) or an advisory deletion ([d] prefix). *)

  val drat_to_string : drat_step list -> string
  val drat_parse_string : string -> drat_step list
  (** @raise Failure on malformed input. *)

  (** Reverse-unit-propagation replay: an independent unit-propagation
      engine (occurrence lists, no CDCL machinery shared with the solver)
      that verifies each trace addition against the accumulated clause
      set and then answers implication queries. *)
  module Rup : sig
    type t

    val create : unit -> t

    val add_input : t -> int list -> unit
    (** Install a problem clause (trusted, not checked). *)

    val replay : t -> drat_step list -> (unit, string) Stdlib.result
    (** Verify every [Add] is RUP, installing it; apply deletions.
        [Error] names the first addition that fails. *)

    val holds : t -> int list -> bool
    (** Is the clause forced by unit propagation from the current set?
        (Asserting the negation of every literal propagates to a
        conflict.)  Leaves the state untouched. *)
  end
end
