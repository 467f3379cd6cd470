(* Public API of the AIG-to-BDD library; see engines.mli. *)

module Aig_bdd = Aig_bdd
