(** Equivalence certificates.

    An [Equivalent] verdict of {!Scorr.Verify} rests on a long fixed-point
    computation; the maximum signal correspondence relation it computes is
    an {e inductive invariant} of the product machine, so it can be
    exported and re-validated independently with cheap combinational
    checks.  A certificate records that relation (equivalence classes of
    polarity-normalized product-machine literals), fingerprints of the two
    circuits, and the options needed to rebuild the product; {!check}
    re-proves the three conditions of the theorem — base case, induction
    step, output coverage — with fresh SAT queries that share nothing with
    the engine that found the relation. *)

type t = {
  relation : Scorr.Relation.t;
      (** the relation, the fingerprints of the two circuits and the
          options needed to rebuild the product *)
  prereduce : int option;
      (** when the relation was computed on the FRAIG-reduced pair
          (speculative runs with the analysis layer on), the reduction
          seed: checking replays {!Analysis.Reduce.run} on the original
          circuits — re-proving every merge obligation with a fresh
          solver — before rebuilding the product *)
  proof : Sat.Dimacs.drat_step list list option;
      (** optional DRAT trace: one segment per non-trivial checker
          obligation, in the checker's deterministic traversal order —
          produced by {!prove}, consumed by {!check} in proof mode *)
}

val matches_digests : spec_digest:string -> impl_digest:string -> t -> bool
(** Was this certificate emitted for exactly these circuit fingerprints?
    Identity only — {!check} remains the independent soundness gate. *)

(** {1 Emission} *)

type emit_error =
  | Not_proved of string  (** the verdict was not [Equivalent] *)
  | Unsupported of string  (** the relation is not self-certifying *)

val explain_emit_error : emit_error -> string

val of_run :
  options:Scorr.Verify.options ->
  spec:Aig.t ->
  impl:Aig.t ->
  Scorr.verdict * Scorr.Product.t * Scorr.Partition.t option ->
  (t, emit_error) result
(** Certificate of a {!Scorr.Verify.run_with_relation} result, under the
    options that produced it.  Fails on non-[Equivalent] verdicts and on
    relations computed under reachability don't-cares (those hold only
    inside the care set, so Q alone need not be inductive). *)

(** {1 Independent checking} *)

type check_error =
  | Fingerprint_mismatch of { subject : string; expected : string; got : string }
  | Shape_mismatch of { expected : int; got : int }
  | Bad_literal of int
  | Bad_header of string
  | Not_initial of { lit_a : int; lit_b : int; frame : int }
  | Not_inductive of { lit_a : int; lit_b : int }
  | Output_unproved of string
  | Reduction_invalid of { subject : string; failed : int }
      (** replaying the pre-reduction left merge obligations unproved *)
  | Proof_missing  (** proof-mode check, but the certificate has no trace *)
  | Proof_invalid of string  (** a trace step failed RUP verification *)

val explain_check_error : check_error -> string

val check : ?use_proof:bool -> spec:Aig.t -> impl:Aig.t -> t -> (unit, check_error) result
(** Re-validate the certificate against the two circuits without trusting
    the fixed-point loop: fingerprints, the claims every relation is held
    to ({!Scorr.Relation.flaw}: [Bad_header] for the retiming rounds,
    [Bad_literal] for a literal outside the product), product shape, the
    base case in the first [induction] frames from the initial state, the k-step
    induction from a free state, and coverage of every output pair.

    With [use_proof] (default [false]), no SAT solving happens at all:
    the certificate must embed a DRAT trace ({!prove}), and every
    obligation is discharged by replaying its trace segment through an
    independent reverse-unit-propagation engine
    ({!Sat.Dimacs.Rup}) against the reconstructed CNF — each traced
    clause is verified RUP before use, and the obligation passes only if
    unit propagation then forces the staged selector false.  Mutated or
    truncated traces are rejected ([Proof_invalid]). *)

val prove : spec:Aig.t -> impl:Aig.t -> t -> (t, check_error) result
(** Run the solving checker while recording a DRAT trace of every
    refutation; on success, returns the certificate with [proof] filled
    (one segment per obligation, in traversal order). *)

(** {1 Serialization}

    A certificate is a {!Scorr.Relation} file with header [seqver-cert 1],
    an optional [prereduced] seed after [retime-rounds], and an optional
    proof section as its tail. *)

val to_string : t -> string
val parse_string : string -> t
(** @raise Scorr.Relation.Parse_error on malformed input. *)

val to_file : string -> t -> unit
val parse_file : string -> t

val resume_of_file : seed:int -> string -> Scorr.Checkpoint.t
(** Read a resume point from either kind of relation file.  A checkpoint
    is returned as written; a certificate's relation seeds a run like a
    checkpoint taken after zero iterations, under the resuming run's
    [seed] (a certificate records none, so a normalization that differs
    is refused by {!Scorr.Checkpoint.seed_partition}).
    @raise Scorr.Relation.Parse_error on a malformed file.
    @raise Scorr.Checkpoint.Incompatible on a pre-reduced certificate:
    resumed runs verify the circuits as given. *)
