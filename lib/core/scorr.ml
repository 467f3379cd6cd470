(* Public API of the signal-correspondence library; see scorr.mli. *)

module Counters = Counters
module Product = Product
module Partition = Partition
module Clock = Clock
module Deadline = Deadline
module Parsweep = Parsweep
module Simpool = Simpool
module Simseed = Simseed
module Ternseed = Ternseed
module Specreduce = Specreduce
module Engine_bdd = Engine_bdd
module Engine_sat = Engine_sat
module Retime_aug = Retime_aug
module Relation = Relation
module Checkpoint = Checkpoint
module Verify = Verify

type options = Verify.options
type stats = Verify.stats
type verdict = Verify.verdict =
  | Equivalent of stats
  | Not_equivalent of { frame : int; trace : bool array array option; stats : stats }
  | Unknown of stats

let default_options = Verify.default_options
let check = Verify.run
let register_correspondence = Verify.register_correspondence
let portfolio = Verify.portfolio
let verdict_stats = Verify.verdict_stats
