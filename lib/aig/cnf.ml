(* Tseitin encoding of AIG combinational logic into a SAT solver: one SAT
   variable per AND node plus the caller-supplied variables for PIs and
   latch outputs.  The "extra variables representing intermediate signals"
   of the paper's future-work section. *)

(* Encode the combinational structure of [t].  [pi_var i] / [latch_var i]
   give the SAT variable of input i / latch i (created by the caller, so
   several unrollings can share or rename them).  When [act] is given, every
   emitted clause is guarded by that activation variable, so releasing it
   retracts the whole encoding from a persistent solver.  Returns a function
   from AIG literal to SAT literal. *)
let encode ?act solver t ~pi_var ~latch_var =
  let add cl = Sat.add_clause ?act solver cl in
  let n = Graph.num_nodes t in
  let var_of = Array.make n (-1) in
  (* constant node: a frozen variable forced to false once per solver *)
  let const_var = Sat.new_var solver in
  add [ Sat.Lit.neg const_var ];
  var_of.(0) <- const_var;
  let sat_lit l =
    let v = var_of.(Graph.node_of_lit l) in
    Sat.Lit.make v (not (Graph.lit_is_compl l))
  in
  for id = 1 to n - 1 do
    match Graph.node t id with
    | Graph.Const -> ()
    | Graph.Pi i -> var_of.(id) <- pi_var i
    | Graph.Latch i -> var_of.(id) <- latch_var i
    | Graph.And (a, b) ->
      let v = Sat.new_var solver in
      var_of.(id) <- v;
      let la = sat_lit a and lb = sat_lit b in
      let lv = Sat.Lit.pos v in
      (* v <-> a & b *)
      add [ Sat.Lit.negate lv; la ];
      add [ Sat.Lit.negate lv; lb ];
      add [ lv; Sat.Lit.negate la; Sat.Lit.negate lb ]
  done;
  sat_lit

(* Fresh SAT variables for each PI and latch, then encode. *)
let encode_fresh solver t =
  let pi_vars = Array.init (Graph.num_pis t) (fun _ -> Sat.new_var solver) in
  let latch_vars = Array.init (Graph.num_latches t) (fun _ -> Sat.new_var solver) in
  let lit_of =
    encode solver t ~pi_var:(fun i -> pi_vars.(i)) ~latch_var:(fun i -> latch_vars.(i))
  in
  (pi_vars, latch_vars, lit_of)

(* One frame step: fresh variables tied to the next-state functions of the
   frame whose literal map is [lit_of] — the next frame's latch
   variables. *)
let tie_next ?act solver t lit_of =
  Array.init (Graph.num_latches t) (fun j ->
      let v = Sat.new_var solver in
      let next = lit_of (Graph.latch_next t j) in
      Sat.add_clause ?act solver [ Sat.Lit.neg v; next ];
      Sat.add_clause ?act solver [ Sat.Lit.pos v; Sat.Lit.negate next ];
      v)

(* Chain [n] frames of [t] inside [solver]: each frame gets fresh input
   variables and its own encoding; [first_latch_var] supplies frame 0's
   latch variables and every later frame reads its predecessor's
   [tie_next] variables.  [on_frame i lit_of] runs right after frame [i]
   is encoded, before it is tied, so per-frame constraints keep their
   place in the clause order.  Returns each frame's literal map and input
   variables. *)
let unroll ?act ?(on_frame = fun _ _ -> ()) solver t ~n ~first_latch_var =
  let latch_var = ref first_latch_var in
  let frames =
    Array.init n (fun i ->
        let x = Array.init (Graph.num_pis t) (fun _ -> Sat.new_var solver) in
        let lit_of = encode ?act solver t ~pi_var:(fun j -> x.(j)) ~latch_var:!latch_var in
        on_frame i lit_of;
        if i < n - 1 then begin
          let next = tie_next ?act solver t lit_of in
          latch_var := fun j -> next.(j)
        end;
        (lit_of, x))
  in
  (Array.map fst frames, Array.map snd frames)
