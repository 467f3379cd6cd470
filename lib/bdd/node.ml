(* The flat node store of the BDD package: every node of a manager lives
   in three growable int arrays, and a BDD is an int edge.

   An edge is [(index lsl 1) lor complement].  Index 0 is the single
   terminal, so the edge [0] is the constant one and [1] its complement,
   zero.  Node [i] tests variable [var.(i)] and has else-edge [lo.(i)] and
   then-edge [hi.(i)].  A stored then-edge is never complemented; [mk]
   moves a complement on the then-edge to the result edge, which keeps the
   representation canonical: within one manager two edges denote the same
   function iff they are equal ints.

   The branching order is given by [level_of_var]; the variable with the
   smallest level is tested first.  The terminal sits below every variable
   (conceptual level [max_int]).

   Nodes are hash-consed through an open-addressed unique table with linear
   probing.  There is no garbage collection: the store only grows, and the
   node budget counts stored nodes. *)

type t = int

exception Limit_exceeded

type manager = {
  mutable var : int array; (* by node index; [var.(0)] is unused *)
  mutable lo : int array; (* else-edge *)
  mutable hi : int array; (* then-edge, never complemented *)
  mutable n_nodes : int; (* next free index: the terminal plus stored nodes *)
  mutable unique : int array; (* node indices, 0 = empty slot *)
  mutable node_limit : int;
  mutable level_of_var : int array;
  mutable nvars : int;
  (* the computed cache: direct-mapped and lossy, one slot per hash *)
  mutable c_a : int array; (* first operand, -1 = empty slot *)
  mutable c_b : int array;
  mutable c_c : int array; (* third operand shifted left, or'ed with the op tag *)
  mutable c_r : int array;
  (* per-traversal visited marks: node [i] is visited iff [mark.(i) = epoch] *)
  mutable mark : int array;
  mutable epoch : int;
}

let one = 0
let zero = 1
let is_const f = f < 2
let index f = f lsr 1
let is_compl f = f land 1 = 1
let regular f = f land lnot 1
let neg f = f lxor 1

let initial_nodes = 1 lsl 10
let max_cache = 1 lsl 18

let create () =
  {
    var = Array.make initial_nodes (-1);
    lo = Array.make initial_nodes 0;
    hi = Array.make initial_nodes 0;
    n_nodes = 1;
    unique = Array.make (2 * initial_nodes) 0;
    node_limit = max_int;
    level_of_var = Array.make 16 0;
    nvars = 0;
    c_a = Array.make initial_nodes (-1);
    c_b = Array.make initial_nodes 0;
    c_c = Array.make initial_nodes 0;
    c_r = Array.make initial_nodes 0;
    mark = Array.make initial_nodes 0;
    epoch = 0;
  }

let clear_caches m = Array.fill m.c_a 0 (Array.length m.c_a) (-1)

let nvars m = m.nvars

(* Grow the level table so that variable [v] exists; fresh variables are
   appended at the bottom of the current order. *)
let ensure_var m v =
  if v < 0 then invalid_arg "Bdd: negative variable";
  if v >= m.nvars then begin
    let needed = v + 1 in
    if needed > Array.length m.level_of_var then begin
      let bigger = Array.make (max needed (2 * Array.length m.level_of_var)) 0 in
      Array.blit m.level_of_var 0 bigger 0 m.nvars;
      m.level_of_var <- bigger
    end;
    for i = m.nvars to v do
      m.level_of_var.(i) <- i
    done;
    m.nvars <- needed
  end

let level m v = m.level_of_var.(v)
let terminal_level = max_int

let top_var m f = m.var.(index f)

let top_level m f =
  if is_const f then terminal_level else m.level_of_var.(m.var.(index f))

(* Cofactors of [f] with respect to the variable at level [lv]; identity
   when [f] does not test that level at its root.  The complement bit of
   [f] distributes over both branches. *)
let low m f = m.lo.(index f) lxor (f land 1)
let high m f = m.hi.(index f) lxor (f land 1)
let cofactor0 m f lv = if top_level m f = lv then low m f else f
let cofactor1 m f lv = if top_level m f = lv then high m f else f

(* Multiplicative hash with a final fold, so that the low bits used as a
   table index depend on every bit of the operands. *)
let hash3 a b c =
  let h = (a * 0x9E3779B1) + (b * 0x85EBCA77) + (c * 0xC2B2AE3D) in
  let h = (h lxor (h lsr 31)) * 0x27D4EB2F165667C5 in
  h lxor (h lsr 29)

(* Per-call memo tables keyed by int edges. *)
module Memo = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = hash3 x 0 0 land max_int
end)

(* Double the store; the unique table is rebuilt at twice the store's
   capacity.  The computed cache is replaced, empty, by one with a slot
   per node of capacity, up to [max_cache]: a larger cache made each
   short-lived manager (one per speculation screen round) allocate
   megabytes it never filled. *)
let grow m =
  let cap = Array.length m.var in
  let cap' = 2 * cap in
  let extend a fill =
    let b = Array.make cap' fill in
    Array.blit a 0 b 0 m.n_nodes;
    b
  in
  m.var <- extend m.var (-1);
  m.lo <- extend m.lo 0;
  m.hi <- extend m.hi 0;
  m.mark <- extend m.mark 0;
  let unique = Array.make (2 * cap') 0 in
  let mask = Array.length unique - 1 in
  for i = 1 to m.n_nodes - 1 do
    let s = ref (hash3 m.var.(i) m.lo.(i) m.hi.(i) land mask) in
    while unique.(!s) <> 0 do
      s := (!s + 1) land mask
    done;
    unique.(!s) <- i
  done;
  m.unique <- unique;
  let slots = min max_cache cap' in
  if slots > Array.length m.c_a then begin
    m.c_a <- Array.make slots (-1);
    m.c_b <- Array.make slots 0;
    m.c_c <- Array.make slots 0;
    m.c_r <- Array.make slots 0
  end

(* The node with regular then-edge [hi]: find it or store it. *)
let find_or_add m v lo hi =
  let unique = m.unique in
  let mask = Array.length unique - 1 in
  let rec probe s =
    let i = unique.(s) in
    if i = 0 then begin
      if m.n_nodes - 1 >= m.node_limit then raise Limit_exceeded;
      let i = m.n_nodes in
      m.var.(i) <- v;
      m.lo.(i) <- lo;
      m.hi.(i) <- hi;
      m.n_nodes <- i + 1;
      unique.(s) <- i;
      if m.n_nodes = Array.length m.var then grow m;
      i lsl 1
    end
    else if m.var.(i) = v && m.lo.(i) = lo && m.hi.(i) = hi then i lsl 1
    else probe ((s + 1) land mask)
  in
  probe (hash3 v lo hi land mask)

(* The single node constructor: enforces reduction (no redundant test),
   the regular then-edge, and uniqueness (hash-consing). *)
let mk m v ~lo ~hi =
  if lo = hi then lo
  else if is_compl hi then neg (find_or_add m v (neg lo) (neg hi))
  else find_or_add m v lo hi

let var m v =
  ensure_var m v;
  mk m v ~lo:zero ~hi:one

let nvar m v = neg (var m v)

let live_nodes m = m.n_nodes - 1
let made_nodes = live_nodes

(* Computed-cache access.  The op tag (below 4) sits in the low bits of
   the third key; a slot keeps the last result stored under its hash. *)
let cache_slot m a b c = hash3 a b c land (Array.length m.c_a - 1)

let cache_find m a b tagged =
  let s = cache_slot m a b tagged in
  if m.c_a.(s) = a && m.c_b.(s) = b && m.c_c.(s) = tagged then m.c_r.(s) else -1

let cache_add m a b tagged r =
  let s = cache_slot m a b tagged in
  m.c_a.(s) <- a;
  m.c_b.(s) <- b;
  m.c_c.(s) <- tagged;
  m.c_r.(s) <- r

(* The apply core.  [mk_and], [mk_xor] and [ite] recurse on the topmost
   level of their operands and share the computed cache; they live next to
   the store so that the recursion reads its arrays directly. *)

let tag_and = 0
let tag_xor = 1
let tag_ite = 2

let rec mk_and m f g =
  if f = g || g = one then f
  else if f = one then g
  else if f = zero || g = zero || f = neg g then zero
  else if f < g then and_step m f g
  else and_step m g f

and and_step m f g =
  let r = cache_find m f g tag_and in
  if r >= 0 then r
  else begin
    let i = index f and j = index g in
    let cf = f land 1 and cg = g land 1 in
    let vf = m.var.(i) and vg = m.var.(j) in
    let lf = m.level_of_var.(vf) and lg = m.level_of_var.(vg) in
    let r =
      if lf = lg then
        let lo = mk_and m (m.lo.(i) lxor cf) (m.lo.(j) lxor cg) in
        let hi = mk_and m (m.hi.(i) lxor cf) (m.hi.(j) lxor cg) in
        mk m vf ~lo ~hi
      else if lf < lg then
        let lo = mk_and m (m.lo.(i) lxor cf) g in
        let hi = mk_and m (m.hi.(i) lxor cf) g in
        mk m vf ~lo ~hi
      else
        let lo = mk_and m f (m.lo.(j) lxor cg) in
        let hi = mk_and m f (m.hi.(j) lxor cg) in
        mk m vg ~lo ~hi
    in
    cache_add m f g tag_and r;
    r
  end

(* Complement parity is stripped before the cache lookup: f xor g equals
   regular(f) xor regular(g), complemented by the parity. *)
let rec mk_xor m f g =
  let parity = (f lxor g) land 1 in
  let f = regular f and g = regular g in
  if f = g then zero lxor parity
  else if f = one then neg g lxor parity
  else if g = one then neg f lxor parity
  else if f < g then xor_step m f g lxor parity
  else xor_step m g f lxor parity

and xor_step m f g =
  let r = cache_find m f g tag_xor in
  if r >= 0 then r
  else begin
    let i = index f and j = index g in
    let vf = m.var.(i) and vg = m.var.(j) in
    let lf = m.level_of_var.(vf) and lg = m.level_of_var.(vg) in
    let r =
      if lf = lg then
        let lo = mk_xor m m.lo.(i) m.lo.(j) in
        let hi = mk_xor m m.hi.(i) m.hi.(j) in
        mk m vf ~lo ~hi
      else if lf < lg then
        let lo = mk_xor m m.lo.(i) g in
        let hi = mk_xor m m.hi.(i) g in
        mk m vf ~lo ~hi
      else
        let lo = mk_xor m f m.lo.(j) in
        let hi = mk_xor m f m.hi.(j) in
        mk m vg ~lo ~hi
    in
    cache_add m f g tag_xor r;
    r
  end

let mk_or m f g = neg (mk_and m (neg f) (neg g))

(* If-then-else in the standard triple form: a regular condition and a
   regular then-branch, the result complemented when the then-branch was;
   triples with a constant or repeated branch reduce to [mk_and]. *)
let rec ite m f g h =
  if f = one then g
  else if f = zero then h
  else if g = h then g
  else if is_compl f then ite m (neg f) h g
  else if g = f || g = one then mk_or m f h
  else if h = f || h = zero then mk_and m f g
  else if g = neg f || g = zero then mk_and m (neg f) h
  else if h = neg f || h = one then mk_or m (neg f) g
  else if is_compl g then neg (ite_step m f (neg g) (neg h))
  else ite_step m f g h

and ite_step m f g h =
  let tagged = (h lsl 2) lor tag_ite in
  let r = cache_find m f g tagged in
  if r >= 0 then r
  else begin
    let lf = top_level m f and lg = top_level m g and lh = top_level m h in
    let lv = min lf (min lg lh) in
    let v =
      if lf = lv then top_var m f else if lg = lv then top_var m g else top_var m h
    in
    let lo =
      ite m
        (if lf = lv then low m f else f)
        (if lg = lv then low m g else g)
        (if lh = lv then low m h else h)
    in
    let hi =
      ite m
        (if lf = lv then high m f else f)
        (if lg = lv then high m g else g)
        (if lh = lv then high m h else h)
    in
    let r = mk m v ~lo ~hi in
    cache_add m f g tagged r;
    r
  end

(* Start a traversal that marks visited nodes. *)
let next_epoch m =
  m.epoch <- m.epoch + 1;
  m.epoch

(* Install a new global order.  Only callers that subsequently rebuild all
   their roots (see {!Reorder}) may use this; existing nodes built under the
   old order keep their structure and become stale. *)
let set_level_of_var m levels =
  if Array.length levels <> m.nvars then
    invalid_arg "Bdd: set_level_of_var: wrong length";
  Array.blit levels 0 m.level_of_var 0 m.nvars

let set_node_limit m limit = m.node_limit <- limit
