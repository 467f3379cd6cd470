(* Fraiging (SAT sweeping): merge combinationally equivalent AIG nodes.

   Random simulation partitions nodes into candidate classes by signature
   (normalized for polarity); a SAT solver then proves or refutes each
   candidate against its class representative, with counterexamples fed
   back as new simulation patterns.  Latch outputs are treated as free
   inputs, so merges are valid in any state — the combinational notion of
   equivalence the paper's method builds on.

   This is the one FRAIG kernel of the code base: [find_merges] and
   [rebuild] also drive the structural reduction of [Analysis.Reduce],
   which only differs in its seed salt, its round count and the AND
   constructor of the rebuild. *)

type stats = {
  sat_calls : int;
  merged : int;
  refuted : int;
  rounds : int;
  obligations : (int * int) list;
      (* one per merge: literal pairs of the ORIGINAL circuit proven
         combinationally equivalent (latches free), in proof order *)
}

let n_words = 4

(* Random simulation signatures over one 64-bit word per pattern; latches
   get random words too (free variables), matching the SAT obligation. *)
let signatures aig patterns =
  let n = Aig.num_nodes aig in
  let width = List.length patterns in
  let sigs = Array.make n [||] in
  List.iteri
    (fun w (pi_words, latch_words) ->
      let values = Aig.Sim.eval_comb aig ~pi_words ~latch_words in
      for id = 0 to n - 1 do
        if w = 0 then sigs.(id) <- Array.make width 0L;
        sigs.(id).(w) <- values.(id)
      done)
    patterns;
  sigs

(* The merge finder: at most [rounds] rounds of simulate, classify, prove;
   a round that adds no counterexample pattern ends the search.  Returns
   [merge_to] — for each node the original literal it merges into, or -1
   — and the run's statistics. *)
let find_merges ~rng ~rounds aig =
  let n = Aig.num_nodes aig in
  let merge_to = Array.make n (-1) in
  let sat_calls = ref 0 and merged = ref 0 and refuted = ref 0 and n_rounds = ref 0 in
  let obligations = ref [] in
  if Aig.num_ands aig > 0 then begin
    let fresh_pattern () =
      ( Array.init (Aig.num_pis aig) (fun _ -> Random.State.int64 rng Int64.max_int),
        Array.init (Aig.num_latches aig) (fun _ -> Random.State.int64 rng Int64.max_int) )
    in
    let patterns = ref (List.init n_words (fun _ -> fresh_pattern ())) in
    let solver = Sat.create () in
    let pi_vars, latch_vars, sat_lit = Aig.Cnf.encode_fresh solver aig in
    let distinct : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
    let round () =
      incr n_rounds;
      let sigs = signatures aig !patterns in
      let normalize s =
        if Int64.logand s.(0) 1L = 1L then (true, Array.map Int64.lognot s)
        else (false, Array.copy s)
      in
      let classes : (int64 array, (int * bool) list) Hashtbl.t = Hashtbl.create 256 in
      for id = n - 1 downto 1 do
        match Aig.node aig id with
        | Aig.And _ when merge_to.(id) < 0 ->
          let compl, key = normalize sigs.(id) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt classes key) in
          Hashtbl.replace classes key ((id, compl) :: prev)
        | Aig.And _ | Aig.Const | Aig.Pi _ | Aig.Latch _ -> ()
      done;
      let n_cex = ref 0 in
      let prove rep rep_compl (id, compl) =
        if id <> rep && merge_to.(id) < 0 && not (Hashtbl.mem distinct (rep, id)) then begin
          let pol = compl <> rep_compl in
          let l_rep = Aig.lit_of_node rep in
          let l_id =
            if pol then Aig.lit_not (Aig.lit_of_node id) else Aig.lit_of_node id
          in
          (* obligation: l_rep XOR l_id is unsatisfiable (latches free) *)
          let sel = Sat.Lit.pos (Sat.new_var solver) in
          let nsel = Sat.Lit.negate sel in
          let va = sat_lit l_rep and vb = sat_lit l_id in
          Sat.add_clause solver [ nsel; va; vb ];
          Sat.add_clause solver [ nsel; Sat.Lit.negate va; Sat.Lit.negate vb ];
          incr sat_calls;
          (match Sat.solve ~assumptions:[ sel ] solver with
          | Sat.Unsat ->
            incr merged;
            merge_to.(id) <- (if pol then Aig.lit_not l_rep else l_rep);
            obligations := (l_rep, l_id) :: !obligations
          | Sat.Sat ->
            incr refuted;
            Hashtbl.replace distinct (rep, id) ();
            incr n_cex;
            let word_of v = if Sat.value solver v then -1L else 0L in
            patterns := (Array.map word_of pi_vars, Array.map word_of latch_vars) :: !patterns);
          Sat.add_clause solver [ nsel ]
        end
      in
      Hashtbl.iter
        (fun _ members ->
          match List.sort compare members with
          | [] | [ _ ] -> ()
          | (rep, rep_compl) :: rest -> List.iter (prove rep rep_compl) rest)
        classes;
      !n_cex
    in
    let rec iterate k = if k > 0 && round () > 0 then iterate (k - 1) in
    iterate rounds
  end;
  ( merge_to,
    {
      sat_calls = !sat_calls;
      merged = !merged;
      refuted = !refuted;
      rounds = !n_rounds;
      obligations = List.rev !obligations;
    } )

(* The merge-applying rebuild: every merged node becomes its target's
   image, every other AND goes through [and_ dst], and the dead cones are
   collected.  PIs and POs (names, order) are preserved exactly; latches
   keep their relative order and initialization. *)
let rebuild ~and_ aig merge_to =
  let n = Aig.num_nodes aig in
  let dst = Aig.create () in
  let map = Array.make n (-1) in
  map.(0) <- 0;
  let pi_lits = Array.of_list (List.map (fun _ -> Aig.add_pi dst) (Aig.pis aig)) in
  let latch_lits =
    Array.init (Aig.num_latches aig) (fun i -> Aig.add_latch dst ~init:(Aig.latch_init aig i))
  in
  let tr_lit l = map.(Aig.node_of_lit l) lxor (l land 1) in
  for id = 0 to n - 1 do
    map.(id) <-
      (match Aig.node aig id with
      | Aig.Const -> 0
      | Aig.Pi i -> pi_lits.(i)
      | Aig.Latch i -> latch_lits.(i)
      | Aig.And (a, b) ->
        if merge_to.(id) >= 0 then tr_lit merge_to.(id) else and_ dst (tr_lit a) (tr_lit b))
  done;
  Array.iteri
    (fun i l -> Aig.set_latch_next dst l ~next:(tr_lit (Aig.latch_next aig i)))
    latch_lits;
  List.iter (fun (name, l) -> Aig.add_po dst name (tr_lit l)) (Aig.pos aig);
  fst (Aig.cleanup dst)

let sweep ?(seed = 7) aig =
  let merge_to, stats =
    find_merges ~rng:(Random.State.make [| seed; 0xf4a16 |]) ~rounds:4 aig
  in
  (rebuild ~and_:Aig.mk_and aig merge_to, stats)
