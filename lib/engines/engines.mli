(** Combinational functions of AIG nodes as BDDs — the "state-of-the-art
    combinational verification techniques" the paper's method lifts to
    sequential circuits. *)

(** The one AIG-to-BDD builder: node functions under a caller-chosen
    variable mapping. *)
module Aig_bdd : sig
  val build :
    ?and_:(Bdd.t -> Bdd.t -> Bdd.t) ->
    Bdd.manager ->
    Aig.t ->
    pi_var:(int -> Bdd.t) ->
    latch_var:(int -> Bdd.t) ->
    int ->
    Bdd.t
  (** [build m aig ~pi_var ~latch_var] maps AIG literals to BDDs.  Node
      functions are built lazily on first request and memoized by node
      id, so only the requested cones are built; [pi_var] and [latch_var]
      are called at most once per index.  [and_] (default
      [Bdd.mk_and m]) builds every AND node, so a caller can poll a node
      budget or simplify intermediate results.  The PI/latch mapping
      choice serves combinational checking (latches free), traversal
      (latches = state variables) and the frames of signal correspondence
      (latches = initial constants or next-state functions). *)
end
