(* Public flat API of the BDD package; see bdd.mli. *)

type manager = Node.manager
type t = Node.t

let create = Node.create
let clear_caches = Node.clear_caches
let nvars = Node.nvars
let live_nodes = Node.live_nodes
let made_nodes = Node.made_nodes
let var = Node.var
let nvar = Node.nvar
let level = Node.level
let one = Node.one
let zero = Node.zero
let is_true f = f = Node.one
let is_false f = f = Node.zero
let equal = Int.equal
let leq = Node.leq
let id f = f

let mk_not = Ops.mk_not
let mk_and = Node.mk_and
let mk_or = Node.mk_or
let mk_xor = Node.mk_xor
let mk_xnor = Ops.mk_xnor
let mk_nand = Ops.mk_nand
let mk_nor = Ops.mk_nor
let mk_imp = Ops.mk_imp
let mk_iff = Ops.mk_iff
let ite = Node.ite
let big_and = Ops.big_and
let big_or = Ops.big_or
let cube = Ops.cube

let cofactor = Ops.cofactor
let exists = Ops.exists
let forall = Ops.forall
let and_exists = Ops.and_exists
let compose = Ops.compose
let vector_compose = Ops.vector_compose
let rename = Ops.rename
let constrain = Ops.constrain
let restrict = Ops.restrict

let support = Analyze.support
let size = Analyze.size
let size_list = Analyze.size_list
let size_at_most = Analyze.size_at_most
let eval = Analyze.eval
let sat_count = Analyze.sat_count
let any_sat = Analyze.any_sat
let all_sat = Analyze.all_sat
let pp = Analyze.pp
let to_dot = Analyze.to_dot

module Reorder = Reorder

exception Limit_exceeded = Node.Limit_exceeded

let set_node_limit = Node.set_node_limit
