(** Combinational equivalence checking — the "state-of-the-art
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

(** Equivalence of two combinational(ly viewed) AIGs: latch outputs are
    treated as free inputs, so [Equivalent] means equal in every state. *)
module Cec : sig
  type engine = [ `Bdd | `Sat | `Hybrid ]

  type counterexample = { cex_pis : bool array; cex_latches : bool array }

  type verdict = Equivalent | Different of counterexample

  val interface_compatible : Aig.t -> Aig.t -> bool

  val check : ?engine:engine -> Aig.t -> Aig.t -> verdict
  (** Compare all outputs (paired by name).  [`Hybrid] simulates first and
      only calls SAT on simulation-indistinguishable pairs.
      @raise Invalid_argument on interface or output-name mismatch. *)

  val check_bdd : Aig.t -> Aig.t -> verdict
  val check_sat : Aig.t -> Aig.t -> verdict
  val check_hybrid : ?seed:int -> ?n_words:int -> Aig.t -> Aig.t -> verdict

  val confirm_counterexample : Aig.t -> Aig.t -> counterexample -> bool
  (** Validate a counterexample by simulation. *)

  (** Reusable SAT context for repeated pair queries. *)
  type sat_ctx = {
    solver : Sat.t;
    pi_vars : int array;
    latch_vars : int array;
    lit1 : int -> Sat.Lit.t;
    lit2 : int -> Sat.Lit.t;
  }

  val make_sat_ctx : Aig.t -> Aig.t -> sat_ctx
  val sat_lits_equal : sat_ctx -> Sat.Lit.t -> Sat.Lit.t -> counterexample option
end
