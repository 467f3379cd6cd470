(* Breadth-first symbolic state-space traversal of an AIG — the
   conventional sequential equivalence checking algorithm (Table 1's
   baseline), optionally exploiting functional dependencies [6] when
   computing images of the frontier. *)

type budget = {
  max_iterations : int;
  max_live_nodes : int;
  max_seconds : float;
}

let default_budget =
  { max_iterations = max_int; max_live_nodes = 2_000_000; max_seconds = 60.0 }

type stats = {
  iterations : int; (* traversal depth reached *)
  peak_nodes : int; (* unique-table high-water mark *)
  dependencies_found : int;
  seconds : float;
}

type outcome =
  | Fixpoint of Bdd.t (* the exact reachable set (over cs vars) *)
  | Property_violation of int (* depth at which the property failed *)
  | Budget_exceeded of string

type result = { outcome : outcome; stats : stats }

(* Traverse from the initial state.  [property] (over pi, cs), when given,
   is required to hold for every reached state and input; its violation
   stops the traversal.  With [use_fundep], each frontier is compressed by
   functional-dependency detection before the image is taken. *)
let run ?(budget = default_budget) ?(use_fundep = false) ?property trans =
  let m = trans.Trans.m in
  Bdd.set_node_limit m budget.max_live_nodes;
  let start = Sys.time () in
  let peak = ref (Bdd.live_nodes m) in
  let deps_found = ref 0 in
  let note_peak () = peak := max !peak (Bdd.live_nodes m) in
  let finish outcome iterations =
    {
      outcome;
      stats =
        {
          iterations;
          peak_nodes = !peak;
          dependencies_found = !deps_found;
          seconds = Sys.time () -. start;
        };
    }
  in
  let bad =
    match property with Some p -> Bdd.mk_not m p | None -> Bdd.zero
  in
  let cs_list = Array.to_list trans.Trans.cs_vars in
  let deepest = ref 0 in
  let rec loop reached frontier depth =
    deepest := max !deepest depth;
    note_peak ();
    if Trans.has_bad_state trans frontier bad then finish (Property_violation depth) depth
    else if Sys.time () -. start > budget.max_seconds then
      finish (Budget_exceeded "time") depth
    else if Bdd.live_nodes m > budget.max_live_nodes then
      finish (Budget_exceeded "nodes") depth
    else if depth >= budget.max_iterations then finish (Budget_exceeded "iterations") depth
    else begin
      let img =
        if use_fundep then begin
          let deps, compressed = Fundep.detect m frontier ~candidates:cs_list in
          deps_found := !deps_found + List.length deps;
          if deps = [] then Trans.image trans frontier
          else begin
            let subst = Fundep.substitution m ~nvars:(Bdd.nvars m) deps in
            let next_fns =
              Array.map (fun f -> Bdd.vector_compose m f subst) trans.Trans.next_fns
            in
            Trans.image_with trans ~next_fns compressed
          end
        end
        else Trans.image trans frontier
      in
      note_peak ();
      let fresh = Bdd.mk_and m img (Bdd.mk_not m reached) in
      if Bdd.is_false fresh then finish (Fixpoint reached) depth
      else loop (Bdd.mk_or m reached img) fresh (depth + 1)
    end
  in
  let result =
    try loop trans.Trans.init trans.Trans.init 0
    with Bdd.Limit_exceeded -> finish (Budget_exceeded "nodes") !deepest
  in
  Bdd.set_node_limit m max_int;
  result

(* Sequential equivalence via traversal of a product machine: the property
   is "all output pairs agree". *)
let check_equivalence ?budget ?use_fundep trans =
  let property = Trans.property_all_outputs_one trans in
  run ?budget ?use_fundep ~property trans

let count_states trans reached =
  Bdd.sat_count trans.Trans.m ~nvars:(Bdd.nvars trans.Trans.m) reached
  /. (2.0 ** float_of_int (Bdd.nvars trans.Trans.m - Array.length trans.Trans.cs_vars))
