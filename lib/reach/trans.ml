(* Symbolic transition system of an AIG: BDD next-state functions, initial
   state cube, output functions, and a partitioned-relation image operator
   with early quantification.  The substrate of the conventional
   state-space-traversal approach the paper compares against. *)

type t = {
  m : Bdd.manager;
  aig : Aig.t;
  n_pis : int;
  n_latches : int;
  pi_vars : int array; (* BDD variable indices of the inputs *)
  cs_vars : int array; (* current-state variables *)
  ns_vars : int array; (* next-state variables *)
  next_fns : Bdd.t array; (* over (pi, cs) *)
  init : Bdd.t; (* cube over cs *)
  outputs : (string * Bdd.t) list; (* over (pi, cs) *)
  bdd_of_lit : int -> Bdd.t; (* any AIG literal over (pi, cs) *)
}

(* Variable layout: inputs first, then current/next state interleaved
   (cs_i and ns_i adjacent) — the classical order for image computation.
   [latch_order], when given, lists latch indices in the order their
   variable pairs should be placed (essential for product machines, whose
   corresponding state bits must sit together).  [node_limit] installs a
   hard budget on the manager; construction itself can raise
   {!Bdd.Limit_exceeded}. *)
let make ?node_limit ?latch_order aig =
  let m = Bdd.create () in
  (match node_limit with Some l -> Bdd.set_node_limit m l | None -> ());
  let n_pis = Aig.num_pis aig in
  let n_latches = Aig.num_latches aig in
  let position =
    let pos = Array.init n_latches Fun.id in
    (match latch_order with
    | Some order -> Array.iteri (fun p i -> pos.(i) <- p) order
    | None -> ());
    pos
  in
  let pi_vars = Array.init n_pis (fun i -> i) in
  let cs_vars = Array.init n_latches (fun i -> n_pis + (2 * position.(i))) in
  let ns_vars = Array.init n_latches (fun i -> n_pis + (2 * position.(i)) + 1) in
  let bdd_of_lit =
    Engines.Aig_bdd.build m aig
      ~pi_var:(fun i -> Bdd.var m pi_vars.(i))
      ~latch_var:(fun i -> Bdd.var m cs_vars.(i))
  in
  let next_fns = Array.init n_latches (fun i -> bdd_of_lit (Aig.latch_next aig i)) in
  let init =
    Bdd.cube m (List.init n_latches (fun i -> (cs_vars.(i), Aig.latch_init aig i)))
  in
  let outputs = List.map (fun (name, l) -> (name, bdd_of_lit l)) (Aig.pos aig) in
  { m; aig; n_pis; n_latches; pi_vars; cs_vars; ns_vars; next_fns; init; outputs;
    bdd_of_lit }

(* Image of a state set [from] (over cs): exists pi, cs.
   from /\ /\_i (ns_i <-> delta_i), renamed back to cs variables.
   The conjunction is processed latch by latch; a variable is quantified
   as soon as no remaining partition mentions it (early quantification). *)
let image_with t ~next_fns from =
  let m = t.m in
  let n = t.n_latches in
  if n = 0 then if Bdd.is_false from then Bdd.zero else Bdd.one
  else begin
    (* last partition index in which each (pi|cs) variable occurs *)
    let last_use = Hashtbl.create 64 in
    Array.iteri (fun v _ -> Hashtbl.replace last_use t.pi_vars.(v) (-1)) t.pi_vars;
    Array.iteri (fun v _ -> Hashtbl.replace last_use t.cs_vars.(v) (-1)) t.cs_vars;
    for i = 0 to n - 1 do
      List.iter
        (fun v -> if Hashtbl.mem last_use v then Hashtbl.replace last_use v i)
        (Bdd.support m next_fns.(i))
    done;
    let due = Array.make n [] in
    let immediately = ref [] in
    Hashtbl.iter
      (fun v i -> if i < 0 then immediately := v :: !immediately else due.(i) <- v :: due.(i))
      last_use;
    let acc = ref (Bdd.exists m !immediately from) in
    for i = 0 to n - 1 do
      let part = Bdd.mk_iff m (Bdd.var m t.ns_vars.(i)) next_fns.(i) in
      acc := Bdd.and_exists m due.(i) !acc part
    done;
    (* rename ns -> cs *)
    let perm = Array.to_list (Array.mapi (fun i ns -> (ns, t.cs_vars.(i))) t.ns_vars) in
    Bdd.rename m !acc perm
  end

let image t from = image_with t ~next_fns:t.next_fns from

(* States (over cs) that can produce [bad] (over pi, cs) for some input. *)
let has_bad_state t reached bad =
  not (Bdd.is_false (Bdd.mk_and t.m reached bad))

(* The "all corresponding outputs agree" condition is supplied by product
   machines; for plain model checking any property over (pi, cs) works. *)
let property_all_outputs_one t =
  List.fold_left (fun acc (_, f) -> Bdd.mk_and t.m acc f) Bdd.one t.outputs
