(* And-Inverter Graphs with structural hashing.

   Literals follow the AIGER convention: literal [2n] is node [n], literal
   [2n+1] its complement; node 0 is the constant false, so literal 0 is
   false and literal 1 is true.  AND nodes store normalized fanin literals
   (smaller first), and the structural hash guarantees that no two distinct
   AND nodes have the same fanins.  All sequential algorithms of the
   library (signal correspondence, traversal, fraiging) run on this
   representation. *)

type node =
  | Const
  | Pi of int (* primary-input index *)
  | Latch of int (* latch index *)
  | And of int * int (* fanin literals, fst <= snd *)

type latch_info = { node_id : int; mutable next : int; init : bool }

type t = {
  mutable nodes : node array;
  mutable n : int;
  mutable rev_pis : int list; (* node ids *)
  mutable n_pis : int;
  mutable lat : latch_info array;
  mutable n_latches : int;
  mutable rev_pos : (string * int) list; (* name, literal *)
  strash : (int * int, int) Hashtbl.t;
}

(* --- literals ------------------------------------------------------------ *)

let lit_of_node n = 2 * n
let node_of_lit l = l lsr 1
let lit_is_compl l = l land 1 = 1
let lit_not l = l lxor 1
let lit_false = 0
let lit_true = 1

(* --- construction --------------------------------------------------------- *)

let create () =
  {
    nodes = Array.make 64 Const;
    n = 1;
    (* node 0 is the constant *)
    rev_pis = [];
    n_pis = 0;
    lat = Array.make 8 { node_id = -1; next = 0; init = false };
    n_latches = 0;
    rev_pos = [];
    strash = Hashtbl.create 1024;
  }

let fresh t node =
  if t.n = Array.length t.nodes then begin
    let bigger = Array.make (2 * t.n) Const in
    Array.blit t.nodes 0 bigger 0 t.n;
    t.nodes <- bigger
  end;
  t.nodes.(t.n) <- node;
  t.n <- t.n + 1;
  t.n - 1

let add_pi t =
  let id = fresh t (Pi t.n_pis) in
  t.rev_pis <- id :: t.rev_pis;
  t.n_pis <- t.n_pis + 1;
  lit_of_node id

let add_latch t ~init =
  let idx = t.n_latches in
  let id = fresh t (Latch idx) in
  if t.n_latches = Array.length t.lat then begin
    let bigger = Array.make (2 * t.n_latches) t.lat.(0) in
    Array.blit t.lat 0 bigger 0 t.n_latches;
    t.lat <- bigger
  end;
  t.lat.(idx) <- { node_id = id; next = -1; init };
  t.n_latches <- t.n_latches + 1;
  lit_of_node id

let set_latch_next t lit ~next =
  let id = node_of_lit lit in
  if lit_is_compl lit then invalid_arg "Aig.set_latch_next: complemented latch literal";
  match t.nodes.(id) with
  | Latch idx -> t.lat.(idx).next <- next
  | Const | Pi _ | And _ -> invalid_arg "Aig.set_latch_next: not a latch"

let mk_and t a b =
  let a, b = if a <= b then (a, b) else (b, a) in
  if a = lit_false then lit_false
  else if a = lit_true then b
  else if a = b then a
  else if a = lit_not b then lit_false
  else begin
    match Hashtbl.find_opt t.strash (a, b) with
    | Some id -> lit_of_node id
    | None ->
      let id = fresh t (And (a, b)) in
      Hashtbl.add t.strash (a, b) id;
      lit_of_node id
  end

let mk_or t a b = lit_not (mk_and t (lit_not a) (lit_not b))
let mk_xor t a b = mk_or t (mk_and t a (lit_not b)) (mk_and t (lit_not a) b)
let mk_xnor t a b = lit_not (mk_xor t a b)
let mk_mux t ~sel ~t1 ~t0 = mk_or t (mk_and t sel t1) (mk_and t (lit_not sel) t0)
let mk_ands t lits = List.fold_left (mk_and t) lit_true lits
let mk_ors t lits = List.fold_left (mk_or t) lit_false lits

let add_po t name lit = t.rev_pos <- (name, lit) :: t.rev_pos

(* --- accessors ------------------------------------------------------------ *)

let num_nodes t = t.n
let num_pis t = t.n_pis
let num_latches t = t.n_latches
let node t id = t.nodes.(id)
let pis t = List.rev t.rev_pis
let pos t = List.rev t.rev_pos
let latch_ids t = List.init t.n_latches (fun i -> t.lat.(i).node_id)
let latch_next t i = t.lat.(i).next
let latch_init t i = t.lat.(i).init
let latch_node t i = t.lat.(i).node_id

let num_ands t =
  let count = ref 0 in
  for id = 0 to t.n - 1 do
    match t.nodes.(id) with And _ -> incr count | Const | Pi _ | Latch _ -> ()
  done;
  !count

let pi_index t id =
  match t.nodes.(id) with
  | Pi i -> i
  | Const | Latch _ | And _ -> invalid_arg "Aig.pi_index"

let latch_index t id =
  match t.nodes.(id) with
  | Latch i -> i
  | Const | Pi _ | And _ -> invalid_arg "Aig.latch_index"

let validate t =
  try
    for i = 0 to t.n_latches - 1 do
      if t.lat.(i).next < 0 then failwith (Printf.sprintf "latch %d has no next-state" i)
    done;
    for id = 1 to t.n - 1 do
      match t.nodes.(id) with
      | And (a, b) ->
        if node_of_lit a >= id || node_of_lit b >= id then
          failwith (Printf.sprintf "and node %d references a later node" id)
      | Const | Pi _ | Latch _ -> ()
    done;
    Ok ()
  with Failure msg -> Error msg

(* --- generic copy --------------------------------------------------------- *)

(* Copy the combinational structure of [src] into [dst]: PIs and latches of
   [src] are mapped through the supplied functions, AND nodes are rebuilt
   (and therefore re-hashed) in [dst].  Returns a translator for [src]
   literals.  Latch next-state functions and POs are not transferred. *)
let copy_into dst ~src ~pi_lit ~latch_lit =
  let map = Array.make src.n (-1) in
  map.(0) <- 0;
  for id = 1 to src.n - 1 do
    map.(id) <-
      (match src.nodes.(id) with
      | Const -> 0
      | Pi i -> pi_lit i
      | Latch i -> latch_lit i
      | And (a, b) ->
        let tr l = map.(node_of_lit l) lxor (l land 1) in
        mk_and dst (tr a) (tr b))
  done;
  fun l ->
    if node_of_lit l >= src.n then invalid_arg "Aig.copy_into: foreign literal"
    else map.(node_of_lit l) lxor (l land 1)

(* Structural cleanup: keep only nodes reachable from the POs, where a
   reached latch also pulls in its next-state cone (sequential
   reachability of logic, not of states).  PIs are always kept so the
   interface is stable; unused latches are garbage collected. *)
let cleanup t =
  let reachable = Array.make t.n false in
  reachable.(0) <- true;
  let rec mark id =
    if not reachable.(id) then begin
      reachable.(id) <- true;
      match t.nodes.(id) with
      | And (a, b) ->
        mark (node_of_lit a);
        mark (node_of_lit b)
      | Latch i -> mark (node_of_lit t.lat.(i).next)
      | Const | Pi _ -> ()
    end
  in
  List.iter mark (List.rev t.rev_pis);
  List.iter (fun (_, l) -> mark (node_of_lit l)) t.rev_pos;
  let fresh_aig = create () in
  let map = Array.make t.n (-1) in
  map.(0) <- 0;
  for id = 1 to t.n - 1 do
    if reachable.(id) then
      map.(id) <-
        (match t.nodes.(id) with
        | Const -> 0
        | Pi _ -> add_pi fresh_aig
        | Latch i -> add_latch fresh_aig ~init:t.lat.(i).init
        | And (a, b) ->
          let tr l = map.(node_of_lit l) lxor (l land 1) in
          mk_and fresh_aig (tr a) (tr b))
  done;
  let tr l = map.(node_of_lit l) lxor (l land 1) in
  for i = 0 to t.n_latches - 1 do
    let info = t.lat.(i) in
    if reachable.(info.node_id) then
      set_latch_next fresh_aig map.(info.node_id) ~next:(tr info.next)
  done;
  List.iter (fun (name, l) -> add_po fresh_aig name (tr l)) (List.rev t.rev_pos);
  (fresh_aig, tr)

let pp_stats ppf t =
  Format.fprintf ppf "aig: %d pis, %d pos, %d latches, %d ands" (num_pis t)
    (List.length t.rev_pos) t.n_latches (num_ands t)
