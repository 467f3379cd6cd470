(* Combinational equivalence checking of two AIGs: the "powerful base
   verification algorithm" that the paper's method lifts to sequential
   circuits.  Latch outputs are treated as free inputs (cut points), so
   this is exactly the check available once a register correspondence is
   known.

   Three engines: monolithic BDDs, SAT on the Tseitin encoding, and a
   simulation-first hybrid that only calls SAT on simulation-equivalent
   output pairs. *)

type engine = [ `Bdd | `Sat | `Hybrid ]

type counterexample = { cex_pis : bool array; cex_latches : bool array }

type verdict = Equivalent | Different of counterexample

let interface_compatible a1 a2 =
  Aig.num_pis a1 = Aig.num_pis a2 && Aig.num_latches a1 = Aig.num_latches a2

let paired_outputs a1 a2 =
  let o1 = Aig.pos a1 and o2 = Aig.pos a2 in
  if List.length o1 <> List.length o2 then
    invalid_arg "Cec: output counts differ";
  List.map
    (fun (name, l1) ->
      match List.assoc_opt name o2 with
      | Some l2 -> (name, l1, l2)
      | None -> invalid_arg (Printf.sprintf "Cec: output %s missing" name))
    o1

(* --- BDD engine ---------------------------------------------------------- *)

let check_bdd a1 a2 =
  if not (interface_compatible a1 a2) then invalid_arg "Cec.check_bdd: interfaces";
  let m = Bdd.create () in
  let n_pis = Aig.num_pis a1 in
  let pi_var i = Bdd.var m i in
  let latch_var i = Bdd.var m (n_pis + i) in
  let f1 = Aig_bdd.build m a1 ~pi_var ~latch_var in
  let f2 = Aig_bdd.build m a2 ~pi_var ~latch_var in
  let n_latches = Aig.num_latches a1 in
  let rec scan = function
    | [] -> Equivalent
    | (_, l1, l2) :: rest ->
      let diff = Bdd.mk_xor m (f1 l1) (f2 l2) in
      if Bdd.is_false diff then scan rest
      else
        let cube = match Bdd.any_sat m diff with Some c -> c | None -> assert false in
        let assign = Array.make (n_pis + n_latches) false in
        List.iter (fun (v, b) -> assign.(v) <- b) cube;
        Different
          {
            cex_pis = Array.sub assign 0 n_pis;
            cex_latches = Array.sub assign n_pis n_latches;
          }
  in
  scan (paired_outputs a1 a2)

(* --- SAT engine ----------------------------------------------------------- *)

(* A reusable SAT context holding both circuits over shared input/latch
   variables; pair checks are assumption-based so learned clauses are kept
   across queries. *)
type sat_ctx = {
  solver : Sat.t;
  pi_vars : int array;
  latch_vars : int array;
  lit1 : int -> Sat.Lit.t;
  lit2 : int -> Sat.Lit.t;
}

let make_sat_ctx a1 a2 =
  if not (interface_compatible a1 a2) then invalid_arg "Cec.make_sat_ctx: interfaces";
  let solver = Sat.create () in
  let pi_vars = Array.init (Aig.num_pis a1) (fun _ -> Sat.new_var solver) in
  let latch_vars = Array.init (Aig.num_latches a1) (fun _ -> Sat.new_var solver) in
  let lit1 =
    Aig.Cnf.encode solver a1 ~pi_var:(fun i -> pi_vars.(i))
      ~latch_var:(fun i -> latch_vars.(i))
  in
  let lit2 =
    Aig.Cnf.encode solver a2 ~pi_var:(fun i -> pi_vars.(i))
      ~latch_var:(fun i -> latch_vars.(i))
  in
  { solver; pi_vars; latch_vars; lit1; lit2 }

(* Are two SAT literals equivalent under the context's clauses?  Adds a
   fresh selector encoding (s -> l1 <> l2) and solves under assumption s. *)
let sat_lits_equal ctx sl1 sl2 =
  let s = Sat.new_var ctx.solver in
  let sl = Sat.Lit.pos s in
  let ns = Sat.Lit.negate sl in
  Sat.add_clause ctx.solver [ ns; sl1; sl2 ];
  Sat.add_clause ctx.solver [ ns; Sat.Lit.negate sl1; Sat.Lit.negate sl2 ];
  match Sat.solve ~assumptions:[ sl ] ctx.solver with
  | Sat.Unsat ->
    (* retire the selector so the clauses become vacuous *)
    Sat.add_clause ctx.solver [ ns ];
    None
  | Sat.Sat ->
    let cex_pis = Array.map (fun v -> Sat.value ctx.solver v) ctx.pi_vars in
    let cex_latches = Array.map (fun v -> Sat.value ctx.solver v) ctx.latch_vars in
    Sat.add_clause ctx.solver [ ns ];
    Some { cex_pis; cex_latches }

let check_sat a1 a2 =
  let ctx = make_sat_ctx a1 a2 in
  let rec scan = function
    | [] -> Equivalent
    | (_, l1, l2) :: rest -> (
      match sat_lits_equal ctx (ctx.lit1 l1) (ctx.lit2 l2) with
      | None -> scan rest
      | Some cex -> Different cex)
  in
  scan (paired_outputs a1 a2)

(* --- hybrid engine --------------------------------------------------------- *)

(* Random simulation first: a differing pattern is extracted directly; SAT
   confirms only the pairs simulation cannot distinguish. *)
let check_hybrid ?(seed = 1) ?(n_words = 16) a1 a2 =
  if not (interface_compatible a1 a2) then invalid_arg "Cec.check_hybrid: interfaces";
  let n_pis = Aig.num_pis a1 and n_latches = Aig.num_latches a1 in
  let rng = Random.State.make [| seed |] in
  let word () = Random.State.int64 rng Int64.max_int in
  let outputs = paired_outputs a1 a2 in
  let sim_difference () =
    let rec try_words k =
      if k = 0 then None
      else begin
        let pi_words = Array.init n_pis (fun _ -> word ()) in
        let latch_words = Array.init n_latches (fun _ -> word ()) in
        let v1 = Aig.Sim.eval_comb a1 ~pi_words ~latch_words in
        let v2 = Aig.Sim.eval_comb a2 ~pi_words ~latch_words in
        let diff =
          List.find_map
            (fun (_, l1, l2) ->
              let d = Int64.logxor (Aig.Sim.lit_word v1 l1) (Aig.Sim.lit_word v2 l2) in
              if d = 0L then None
              else begin
                (* locate a differing bit position *)
                let rec bit i = if Int64.logand (Int64.shift_right_logical d i) 1L = 1L then i else bit (i + 1) in
                Some (bit 0, pi_words, latch_words)
              end)
            outputs
        in
        match diff with None -> try_words (k - 1) | some -> some
      end
    in
    try_words n_words
  in
  match sim_difference () with
  | Some (bit, pi_words, latch_words) ->
    let get words i = Int64.logand (Int64.shift_right_logical words.(i) bit) 1L = 1L in
    Different
      {
        cex_pis = Array.init n_pis (get pi_words);
        cex_latches = Array.init n_latches (get latch_words);
      }
  | None -> check_sat a1 a2

let check ?(engine = `Hybrid) a1 a2 =
  match engine with
  | `Bdd -> check_bdd a1 a2
  | `Sat -> check_sat a1 a2
  | `Hybrid -> check_hybrid a1 a2

(* Validate a counterexample by simulation: true when the outputs really
   differ under the assignment. *)
let confirm_counterexample a1 a2 cex =
  let to_words arr = Array.map (fun b -> if b then -1L else 0L) arr in
  let v1 = Aig.Sim.eval_comb a1 ~pi_words:(to_words cex.cex_pis) ~latch_words:(to_words cex.cex_latches) in
  let v2 = Aig.Sim.eval_comb a2 ~pi_words:(to_words cex.cex_pis) ~latch_words:(to_words cex.cex_latches) in
  List.exists
    (fun (_, l1, l2) ->
      Int64.logand 1L (Int64.logxor (Aig.Sim.lit_word v1 l1) (Aig.Sim.lit_word v2 l2))
      = 1L)
    (paired_outputs a1 a2)
