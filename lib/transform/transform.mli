(** Sequential synthesis transformations.

    The passes that produce the "retimed and optimized" implementations
    the paper verifies: retiming, cut-based rewriting, fraiging and latch
    sweeping all preserve sequential behaviour (each is property-tested
    against simulation and exhaustive product exploration); {!Mutate}
    deliberately breaks it for negative testing. *)

(** Register moves across gates (the transformations of Leiserson/Saxe as
    applied in the paper's benchmark flow). *)
module Retime : sig
  val forward_step : ?max_moves:int -> Aig.t -> Aig.t option
  (** One pass of forward moves: every AND whose fanins are both latch
      outputs becomes a latch over the AND of the data inputs, with the
      initial value pushed through the gate.  [None] when no move
      applies. *)

  val forward : ?max_steps:int -> Aig.t -> Aig.t
  (** Iterate {!forward_step}. *)

  val backward_step : ?max_moves:int -> Aig.t -> Aig.t option
  (** One pass of backward moves: a latch whose next-state is an AND is
      split into latches on the AND's fanins; initial values are justified
      by a preimage of the old initial value. *)

  val backward : ?max_steps:int -> Aig.t -> Aig.t
end

(** Combinational restructuring (the kerneling / script.rugged stand-in). *)
module Opt : sig
  val rewrite : ?seed:int -> ?p:float -> ?k:int -> Aig.t -> Aig.t
  (** Cut-based resynthesis: with probability [p] per node, compute the
      truth table of a [k]-input cut and rebuild the cone by Shannon
      expansion in a seeded random variable order. *)

  val latch_sweep : Aig.t -> Aig.t
  (** Replace registers that provably stay at their initial value by
      constants (greatest fixed point of a stuck-at analysis). *)

  val dedup_latches : Aig.t -> Aig.t
  (** Merge latches with identical next-state literal and initial value. *)
end

(** Fraiging: SAT sweeping of combinationally equivalent nodes.  The one
    FRAIG kernel: {!Analysis.Reduce} runs the same merge finder and
    rebuild. *)
module Fraig : sig
  type stats = {
    sat_calls : int;
    merged : int;
    refuted : int;
    rounds : int;
    obligations : (int * int) list;
        (** one per merge: literal pairs of the ORIGINAL circuit proven
            combinationally equivalent (latches free) *)
  }

  val find_merges : rng:Random.State.t -> rounds:int -> Aig.t -> int array * stats
  (** Partition AND nodes by random-simulation signature (normalized for
      polarity), prove or refute candidates against class representatives
      with one SAT call each, and feed counterexamples back as patterns,
      for at most [rounds] rounds.  Returns, per node, the original
      literal it merges into (or -1). *)

  val rebuild : and_:(Aig.t -> int -> int -> int) -> Aig.t -> int array -> Aig.t
  (** Apply the merges of {!find_merges}, building every other AND with
      [and_ dst], and collect dead cones.  PIs and POs are preserved. *)

  val sweep : ?seed:int -> Aig.t -> Aig.t * stats
  (** Four rounds of {!find_merges}, then {!rebuild} with plain
      structural hashing. *)
end

(** Fault injection for negative tests. *)
module Mutate : sig
  type fault =
    | Flip_fanin_polarity of int
    | And_to_or of int
    | Flip_latch_init of int
    | Swap_latch_nexts of int * int
    | Stuck_output of string

  val pp_fault : Format.formatter -> fault -> unit

  val pick_fault : seed:int -> Aig.t -> fault option
  (** A random applicable fault, or [None] for degenerate circuits. *)

  val apply : Aig.t -> fault -> Aig.t

  val observable_mutant : ?attempts:int -> seed:int -> Aig.t -> (Aig.t * fault) option
  (** A mutant that provably differs from the original on bounded random
      simulation (so tests exercise detectable faults). *)
end
