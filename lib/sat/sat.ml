(* Public API of the SAT library; see sat.mli. *)

module Lit = Lit

type t = Solver.t
type result = Solver.result = Sat | Unsat
type proof_step = Solver.proof_step = Step_add of Lit.t list | Step_delete of Lit.t list

let create = Solver.create
let new_var = Solver.new_var
let ensure_vars = Solver.ensure_vars
let add_clause = Solver.add_clause
let solve = Solver.solve
let solve_under_assumptions = Solver.solve_under_assumptions
let failed_assumptions = Solver.failed_assumptions
let release = Solver.release
let set_proof_logger = Solver.set_proof_logger
let set_input_logger = Solver.set_input_logger
let value = Solver.model_value

let value_lit s l =
  let v = Solver.model_value s (Lit.var l) in
  if Lit.sign l then v else not v

let model = Solver.model
let is_consistent = Solver.is_consistent
let num_vars = Solver.num_vars
let num_clauses = Solver.num_clauses
let num_learnts = Solver.num_learnts
let num_conflicts = Solver.num_conflicts
let num_decisions = Solver.num_decisions
let num_propagations = Solver.num_propagations
let num_restarts = Solver.num_restarts

module Dimacs = Dimacs
