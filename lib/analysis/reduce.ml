(* Structural reduction: one-level rewriting + constant propagation +
   FRAIG-lite merging of equivalent cones.

   The pass has two stages.  First, the FRAIG kernel of [Transform.Fraig]:
   random simulation partitions the AND nodes into candidate classes by
   (polarity-normalized) signature and a SAT solver discharges one proof
   obligation per candidate merge: the merge is applied only on an UNSAT
   answer, i.e. only when the two cones are combinationally equivalent for
   every input AND every state (latches are free variables), so every merge
   is valid in any reachable or unreachable state — the
   semantics-preservation argument is per-merge and machine-checked, and
   the discharged obligations are returned so a caller (or test) can replay
   them independently with [check_obligations].  Second, the graph is
   rebuilt bottom-up through a rewriting constructor that applies the
   two-level AND identities — absorption, substitution, subsumption,
   contradiction — on top of the base strashing/constant folding of
   [Aig.mk_and]; each rewrite is justified by a named Boolean identity, not
   by a solver.

   Primary inputs and primary outputs (names, order) are preserved
   exactly, so any input trace drives the reduced circuit to the same
   output trace as the original.  Latches keep their relative order and
   initialization, but a latch no output can reach may be garbage
   collected with the rest of its dead cone (observationally invisible by
   construction). *)

type stats = {
  ands_before : int;
  ands_after : int;
  rewrites : int;  (* two-level identity applications during rebuild *)
  fraig_merges : int;  (* SAT-proven cone merges applied *)
  sat_calls : int;
  refuted : int;  (* candidate merges disproved by a counterexample *)
  rounds : int;
  obligations : (int * int) list;
      (* the discharged proof obligations: literal pairs of the ORIGINAL
         circuit proven combinationally equivalent (latches free) *)
}

(* --- the rewriting constructor ---------------------------------------------- *)

(* Two-level lookahead on top of [Aig.mk_and].  [count] is bumped once per
   identity applied.  All rules are stated for [a AND b]:

     absorption      a /\ (a /\ y)        = a /\ y
     contradiction   a /\ (~a /\ y)       = 0
     substitution    a /\ ~(a /\ y)       = a /\ ~y
     subsumption     ~a /\ ~(a /\ y)      = ~a
     sharing-clash   (x /\ y) /\ (~x /\ v) = 0

   Substitution recurses through the constructor, so a chain of nested
   ANDs collapses in one rebuild pass. *)
let rec smart_and count dst a b =
  let decomp l =
    match Aig.node dst (Aig.node_of_lit l) with
    | Aig.And (x, y) -> Some (x, y)
    | Aig.Const | Aig.Pi _ | Aig.Latch _ -> None
  in
  let rule_vs a b =
    (* identities driven by [b]'s top node; [None] = no rule fires *)
    match decomp b with
    | None -> None
    | Some (x, y) ->
      if Aig.lit_is_compl b then
        if a = x then Some (smart_and count dst a (Aig.lit_not y)) (* substitution *)
        else if a = y then Some (smart_and count dst a (Aig.lit_not x))
        else if a = Aig.lit_not x || a = Aig.lit_not y then Some a (* subsumption *)
        else None
      else if a = x || a = y then Some b (* absorption *)
      else if a = Aig.lit_not x || a = Aig.lit_not y then Some Aig.lit_false
        (* contradiction *)
      else
        (* sharing-clash: both conjunctions, complementary conjunct *)
        match decomp a with
        | Some (u, v)
          when (not (Aig.lit_is_compl a))
               && (x = Aig.lit_not u || x = Aig.lit_not v || y = Aig.lit_not u
                 || y = Aig.lit_not v) ->
          Some Aig.lit_false
        | _ -> None
  in
  match rule_vs a b with
  | Some l ->
    incr count;
    l
  | None -> (
    match rule_vs b a with
    | Some l ->
      incr count;
      l
    | None -> Aig.mk_and dst a b)

(* --- the pass ------------------------------------------------------------------ *)

(* Stage one is the shared FRAIG kernel ([Transform.Fraig]) with sixteen
   rounds; stage two is its merge-applying rebuild through [smart_and]. *)
let run ?(seed = 7) aig =
  let merge_to, fs =
    Transform.Fraig.find_merges
      ~rng:(Random.State.make [| seed; 0xa9a1; Aig.num_nodes aig |])
      ~rounds:16 aig
  in
  let rewrites = ref 0 in
  let reduced = Transform.Fraig.rebuild ~and_:(smart_and rewrites) aig merge_to in
  ( reduced,
    {
      ands_before = Aig.num_ands aig;
      ands_after = Aig.num_ands reduced;
      rewrites = !rewrites;
      fraig_merges = fs.Transform.Fraig.merged;
      sat_calls = fs.sat_calls;
      refuted = fs.refuted;
      rounds = fs.rounds;
      obligations = fs.obligations;
    } )

(* --- independent replay of the proof obligations ------------------------------ *)

(* Re-prove each recorded merge on the ORIGINAL circuit with a fresh
   solver: for every obligation (a, b), check that a XOR b is
   unsatisfiable with latches as free variables.  Returns the obligations
   that fail (empty list = all merges independently confirmed). *)
let check_obligations aig obligations =
  let solver = Sat.create () in
  let _, _, sat_lit = Aig.Cnf.encode_fresh solver aig in
  List.filter
    (fun (a, b) ->
      let va = sat_lit a and vb = sat_lit b in
      let sel = Sat.Lit.pos (Sat.new_var solver) in
      let nsel = Sat.Lit.negate sel in
      Sat.add_clause solver [ nsel; va; vb ];
      Sat.add_clause solver [ nsel; Sat.Lit.negate va; Sat.Lit.negate vb ];
      let r = Sat.solve ~assumptions:[ sel ] solver in
      Sat.add_clause solver [ nsel ];
      r <> Sat.Unsat)
    obligations
