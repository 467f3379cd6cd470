(* Structural support cones of the product machine, closed through latch
   next-state functions: cone(v) is the set of nodes reachable from v by
   walking AND fanins and from each latch into its next-state cone, to a
   fixed point.  Stored as one bitset row per node.

   The cones drive the dirty-class scheduler: a class proven stable at
   partition version V only needs re-examination when a later split moved
   a node that its members structurally depend on (or that depends on
   them).  The check is a heuristic over-approximation direction-wise, so
   engines confirm a zero-split sweep with a strict pass before reporting
   the fixed point. *)

type t = {
  n : int;
  words : int; (* words per row *)
  table : int64 array; (* n rows of [words] int64s *)
  pis : int array; (* PI node ids, for the input-support projections *)
}

let set_bit t row id =
  let idx = (row * t.words) + (id lsr 6) in
  t.table.(idx) <- Int64.logor t.table.(idx) (Int64.shift_left 1L (id land 63))

let test_bit t row id =
  Int64.logand t.table.((row * t.words) + (id lsr 6)) (Int64.shift_left 1L (id land 63))
  <> 0L

(* row_dst |= row_src; returns whether row_dst changed *)
let union_into t dst src =
  if dst = src then false
  else begin
    let changed = ref false in
    let db = dst * t.words and sb = src * t.words in
    for w = 0 to t.words - 1 do
      let v = Int64.logor t.table.(db + w) t.table.(sb + w) in
      if v <> t.table.(db + w) then begin
        t.table.(db + w) <- v;
        changed := true
      end
    done;
    !changed
  end

let make aig =
  let n = Aig.num_nodes aig in
  let words = (n + 63) / 64 in
  let t =
    { n; words; table = Array.make (n * words) 0L; pis = Array.of_list (Aig.pis aig) }
  in
  for id = 0 to n - 1 do
    set_bit t id id
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for id = 0 to n - 1 do
      match Aig.node aig id with
      | Aig.Const | Aig.Pi _ -> ()
      | Aig.And (a, b) ->
        if union_into t id (Aig.node_of_lit a) then changed := true;
        if union_into t id (Aig.node_of_lit b) then changed := true
      | Aig.Latch i ->
        if union_into t id (Aig.node_of_lit (Aig.latch_next aig i)) then changed := true
    done
  done;
  t

let in_cone t ~node ~of_ = node < t.n && of_ < t.n && test_bit t of_ node

(* --- static candidate prefilter ------------------------------------------------ *)

(* Projection of a cone onto the primary inputs.  Structural PI support
   over-approximates semantic support, so two signals with disjoint
   non-empty PI supports can only be equivalent if both are semantically
   input-free; splitting such a pair from a candidate class costs zero
   solver calls and preserves verdict soundness (splits never fabricate an
   equivalence).  Signals with EMPTY structural support — autonomous
   counters, stuck constants — are never split from anything: they are
   exactly the candidates whose equivalences live beyond the inputs'
   reach. *)
let pi_nonempty t row = Array.exists (fun pi -> test_bit t row pi) t.pis

let pi_compatible t a b =
  a >= t.n || b >= t.n
  || (not (pi_nonempty t a))
  || (not (pi_nonempty t b))
  || Array.exists (fun pi -> test_bit t a pi && test_bit t b pi) t.pis

(* Split one class into the connected components of PI-support
   compatibility; [true] when the class split.  Compatibility is not
   transitive, so comparing each member with one subgroup representative
   would separate two members that share an input whenever the
   representative shares none with one of them.  Any member with an
   empty support is compatible with all, so such a class stays whole;
   otherwise members sharing an input are joined, input by input. *)
let prefilter_class t partition cls =
  let mems = Partition.members partition cls in
  if List.exists (fun m -> m >= t.n || not (pi_nonempty t m)) mems then false
  else begin
    let root = Hashtbl.create 16 in
    let rec find m =
      match Hashtbl.find_opt root m with
      | Some r when r <> m ->
        let r' = find r in
        Hashtbl.replace root m r';
        r'
      | Some _ | None -> m
    in
    Array.iter
      (fun pi ->
        match List.filter (fun m -> test_bit t m pi) mems with
        | [] -> ()
        | first :: rest ->
          let r = find first in
          List.iter (fun m -> if find m <> r then Hashtbl.replace root (find m) r) rest)
      t.pis;
    Partition.refine_class partition cls ~equal:(fun a b -> find a = find b)
  end

(* Must class [cls], proven stable at partition version [proved_at], be
   re-examined?  Yes when its own membership changed since, or when any
   node moved since then is structurally coupled to a member (either
   direction of the cone relation). *)
let suspect t partition cls ~proved_at =
  Partition.touched_version partition cls > proved_at
  ||
  match Partition.moved_since partition proved_at with
  | None -> true (* journal segment too long to scan: assume dirty *)
  | Some moved ->
    let mems = Partition.members partition cls in
    List.exists
      (fun d ->
        List.exists
          (fun m -> in_cone t ~node:d ~of_:m || in_cone t ~node:m ~of_:d)
          mems)
      moved
