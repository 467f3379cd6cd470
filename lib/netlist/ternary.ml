(* X-valued (ternary) simulation of circuits, started from the defined
   initial state with every primary input held at X.  A latch whose value
   stays a definite constant over the reachable ternary states is stuck at
   that constant on every real run: the facts are sound invariants usable
   both as lint diagnostics and as seed information for the signal
   correspondence fixed point (ABC's `scorr -c` ternary init, and the
   structural reduction spirit of FRAIG-BMC). *)

type v = F | T | X

let v_not = function F -> T | T -> F | X -> X
let v_and a b = match (a, b) with F, _ | _, F -> F | T, T -> T | _ -> X
let v_or a b = match (a, b) with T, _ | _, T -> T | F, F -> F | _ -> X
let v_xor a b = match (a, b) with X, _ | _, X -> X | _ -> if a = b then F else T
let of_bool b = if b then T else F
let to_string = function F -> "0" | T -> "1" | X -> "x"

let gate_eval fn (values : v array) (fanins : int array) =
  let fold f init = Array.fold_left (fun acc i -> f acc values.(i)) init fanins in
  match fn with
  | Circuit.And -> fold v_and T
  | Circuit.Or -> fold v_or F
  | Circuit.Nand -> v_not (fold v_and T)
  | Circuit.Nor -> v_not (fold v_or F)
  | Circuit.Xor -> fold v_xor F
  | Circuit.Xnor -> v_not (fold v_xor F)
  | Circuit.Not -> v_not values.(fanins.(0))
  | Circuit.Buf -> values.(fanins.(0))
  | Circuit.Const0 -> F
  | Circuit.Const1 -> T

(* Evaluate the combinational logic under all-X inputs and the given latch
   valuation; returns one value per net.  Requires a well-formed circuit
   (acyclic, latches closed): run the structural checks first. *)
let eval_comb c ~latch =
  let values = Array.make (Circuit.num_nets c) X in
  List.iter (fun l -> values.(l) <- latch l) (Circuit.latches c);
  List.iter
    (fun net ->
      match Circuit.node c net with
      | Circuit.Gate (fn, fanins) -> values.(net) <- gate_eval fn values fanins
      | Circuit.Input | Circuit.Latch _ -> ())
    (Circuit.topo_order c);
  values

(* Latches provably stuck at a constant, over latch-indexed states: [init]
   is the initial state and [step] one ternary frame (all inputs X) from a
   state to its successor.  Two phases:
   1. walk the ternary state sequence from [init] for at most [max_steps]
      steps (stopping early when a state repeats), taking the meet over
      every visited state: a latch definite and unchanging across the walk
      is a candidate fact;
   2. prune the candidates to an inductively closed subset: from the state
      "facts at their constants, everything else X", one ternary step must
      reproduce every fact.  Pruning repeats until stable.
   Phase 2 makes the result sound even when the walk is cut off before the
   state sequence revisits a state: the surviving facts hold initially
   (phase 1) and are preserved by every transition (phase 2).  Returns
   (latch index, constant) in ascending index order. *)
let stuck ?(max_steps = 64) ~init step =
  let n = Array.length init in
  if n = 0 then []
  else begin
    let key state = String.concat "" (Array.to_list (Array.map to_string state)) in
    let seen = Hashtbl.create 64 in
    let meet = Array.copy init in
    let state = ref init in
    (try
       for _ = 1 to max_steps do
         let k = key !state in
         if Hashtbl.mem seen k then raise Exit;
         Hashtbl.add seen k ();
         state := step !state;
         Array.iteri (fun i v -> if meet.(i) <> v then meet.(i) <- X) !state
       done
     with Exit -> ());
    let rec prune facts =
      let source = Array.make n X in
      List.iter (fun (i, b) -> source.(i) <- of_bool b) facts;
      (* non-fact latches are X in the source state, so [next] is exactly
         the inductive-step valuation *)
      let next = step source in
      let kept = List.filter (fun (i, b) -> next.(i) = of_bool b) facts in
      if List.length kept = List.length facts then facts else prune kept
    in
    prune
      (List.filter_map
         (fun i -> match meet.(i) with F -> Some (i, false) | T -> Some (i, true) | X -> None)
         (List.init n Fun.id))
  end

let stuck_latches ?max_steps c =
  let latches = Array.of_list (Circuit.latches c) in
  let index = Array.make (Circuit.num_nets c) (-1) in
  Array.iteri (fun i l -> index.(l) <- i) latches;
  let step state =
    let values = eval_comb c ~latch:(fun l -> state.(index.(l))) in
    Array.map (fun l -> values.(Circuit.latch_data c l)) latches
  in
  let init = Array.map (fun l -> of_bool (Circuit.latch_init c l)) latches in
  List.map (fun (i, b) -> (latches.(i), b)) (stuck ?max_steps ~init step)
