(* Variable (re)ordering.

   Stored nodes are never rewritten, so reordering is performed by
   rebuilding root functions inside a fresh manager that carries the new
   order.  This is the honest substitute for in-place dynamic sifting
   documented in DESIGN.md: a static order good for circuits
   (interleaving related variable groups) plus an optional greedy
   improvement pass. *)

open Node

(* Rebuild [roots] of [src] inside [dst]; [dst] may use any variable
   order.  Rebuilding commutes with negation, so the memo keys on the
   regular edge. *)
let copy_to ~src ~dst roots =
  let memo = Memo.create 64 in
  let rec go f =
    if is_const f then f
    else begin
      let i = index f in
      let r =
        match Memo.find_opt memo i with
        | Some r -> r
        | None ->
          let lo = go src.lo.(i) and hi = go src.hi.(i) in
          let r = Node.ite dst (Node.var dst src.var.(i)) hi lo in
          Memo.add memo i r;
          r
      in
      r lxor (f land 1)
    end
  in
  List.map go roots

(* Fresh manager whose order places variable [order.(i)] at level [i]. *)
let manager_with_order order =
  let dst = create () in
  let n = Array.length order in
  ensure_var dst (n - 1);
  let levels = Array.make n 0 in
  Array.iteri (fun lv v -> levels.(v) <- lv) order;
  set_level_of_var dst levels;
  dst

let with_order ~src ~order roots =
  let dst = manager_with_order order in
  (dst, copy_to ~src ~dst roots)

(* Interleave k groups of variables: [ [a0;a1]; [b0;b1] ] gives the order
   a0 b0 a1 b1.  Used to interleave specification and implementation state
   variables, the classical good order for product machines. *)
let interleave groups =
  let rec round acc groups =
    let heads, tails =
      List.fold_right
        (fun g (hs, ts) ->
          match g with [] -> (hs, ts) | h :: t -> (h :: hs, t :: ts))
        groups ([], [])
    in
    match heads with
    | [] -> List.rev acc
    | _ -> round (List.rev_append heads acc) tails
  in
  round [] groups

(* Greedy sifting-by-rebuild: repeatedly try swapping adjacent levels and
   keep a swap when it shrinks the shared size of the roots.  [max_passes]
   bounds the cost; each accepted or rejected swap is a full rebuild. *)
let sift ?(max_passes = 1) m roots =
  let n = nvars m in
  if n <= 1 then (m, roots)
  else begin
    let current_order =
      let order = Array.make n 0 in
      for v = 0 to n - 1 do
        order.(level m v) <- v
      done;
      order
    in
    let best_m = ref m and best_roots = ref roots in
    let best_size = ref (Analyze.size_list m roots) in
    for _pass = 1 to max_passes do
      for lv = 0 to n - 2 do
        let order = Array.copy current_order in
        let tmp = order.(lv) in
        order.(lv) <- order.(lv + 1);
        order.(lv + 1) <- tmp;
        let m', roots' = with_order ~src:!best_m ~order !best_roots in
        let size' = Analyze.size_list m' roots' in
        if size' < !best_size then begin
          best_m := m';
          best_roots := roots';
          best_size := size';
          Array.blit order 0 current_order 0 n
        end
      done
    done;
    (!best_m, !best_roots)
  end
