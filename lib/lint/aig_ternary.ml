(* X-valued (ternary) simulation of AIGs, started from the defined initial
   state with every primary input held at X.  Ascending node ids are a
   topological order (AND fanins reference earlier nodes), so one array
   pass per frame evaluates the whole graph.

   Two consumers: the stuck-latch lint rule, and the signal-correspondence
   seeding in the core library — per-node ternary signatures over the first
   frames of the walk separate nodes that provably differ on some reachable
   ternary state, which refines the initial partition without any SAT
   calls (the spirit of ABC's `scorr` ternary initialization). *)

type v = Netlist.Ternary.v = F | T | X

let v_not = function F -> T | T -> F | X -> X
let v_and a b = match (a, b) with F, _ | _, F -> F | T, T -> T | _ -> X
let of_bool b = if b then T else F
let to_string = function F -> "0" | T -> "1" | X -> "x"

let lit_val values l =
  let v = values.(Aig.node_of_lit l) in
  if Aig.lit_is_compl l then v_not v else v

(* One combinational frame under all-X inputs and the given latch
   valuation (by latch index); returns one value per node id.  Requires a
   well-formed AIG (latches closed, fanins backward): run [Aig_check]
   first. *)
let eval aig ~latch =
  let n = Aig.num_nodes aig in
  let values = Array.make n X in
  values.(0) <- F;
  for id = 1 to n - 1 do
    values.(id) <-
      (match Aig.node aig id with
      | Aig.Const -> F
      | Aig.Pi _ -> X
      | Aig.Latch i -> latch i
      | Aig.And (a, b) -> v_and (lit_val values a) (lit_val values b))
  done;
  values

let next_state aig values =
  Array.init (Aig.num_latches aig) (fun i -> lit_val values (Aig.latch_next aig i))

let initial_state aig =
  Array.init (Aig.num_latches aig) (fun i -> of_bool (Aig.latch_init aig i))

let state_key state =
  String.concat "" (Array.to_list (Array.map to_string state))

(* Latches provably stuck at a constant: the shared walk and inductive
   prune of [Netlist.Ternary.stuck], stepped by AIG frames. *)
let stuck_latches ?max_steps aig =
  Netlist.Ternary.stuck ?max_steps ~init:(initial_state aig) (fun state ->
      next_state aig (eval aig ~latch:(Array.get state)))

(* Per-node ternary signatures over the first frames of the walk, packed
   as (mask, value) int pairs: bit k of [mask] is set when the node had a
   definite value on frame k, and bit k of [value] holds that value.  Two
   nodes whose signatures are definitely unequal on some frame
   ([mask_a land mask_b land (val_a lxor val_b) <> 0]) differ on a
   reachable state of every real run, so they can never be sequentially
   equivalent — a sound reason to split them apart when seeding the
   signal-correspondence partition. *)
let signatures ?(max_steps = 62) aig =
  let max_steps = min max_steps 62 in
  let n = Aig.num_nodes aig in
  let masks = Array.make n 0 in
  let vals = Array.make n 0 in
  let seen = Hashtbl.create 64 in
  let state = ref (initial_state aig) in
  (try
     for k = 0 to max_steps - 1 do
       let st = !state in
       let key = state_key st in
       if Hashtbl.mem seen key then raise Exit;
       Hashtbl.add seen key ();
       let values = eval aig ~latch:(fun i -> st.(i)) in
       for id = 0 to n - 1 do
         match values.(id) with
         | X -> ()
         | F -> masks.(id) <- masks.(id) lor (1 lsl k)
         | T ->
           masks.(id) <- masks.(id) lor (1 lsl k);
           vals.(id) <- vals.(id) lor (1 lsl k)
       done;
       state := next_state aig values
     done
   with Exit -> ());
  Array.init n (fun id -> (masks.(id), vals.(id)))
