(* Building BDDs for the nodes of an AIG: the one AIG-to-BDD builder of the
   code base.  The variable mapping for PIs and latch outputs is supplied
   by the caller, so the same code serves combinational equivalence
   (latches as free inputs), symbolic traversal (latches as current-state
   variables), and the current-, initial- and next-frame functions of
   signal correspondence (latches as state variables, initial constants or
   next-state functions).  [and_] lets a caller poll a node budget or
   simplify intermediate results before they are memoized.

   Functions are built lazily, on the first request of a node, and
   memoized by node id: only the cones a caller asks about are ever
   built. *)

let build ?and_ m aig ~pi_var ~latch_var =
  let and_ = match and_ with Some f -> f | None -> Bdd.mk_and m in
  let memo = Array.make (Aig.num_nodes aig) None in
  let rec node id =
    match memo.(id) with
    | Some f -> f
    | None ->
      let f =
        match Aig.node aig id with
        | Aig.Const -> Bdd.zero
        | Aig.Pi i -> pi_var i
        | Aig.Latch i -> latch_var i
        | Aig.And (a, b) -> and_ (lit a) (lit b)
      in
      memo.(id) <- Some f;
      f
  and lit l =
    let f = node (Aig.node_of_lit l) in
    if Aig.lit_is_compl l then Bdd.mk_not m f else f
  in
  lit
