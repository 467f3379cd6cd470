(* Structural queries on BDDs: support, size, evaluation, model counting,
   model extraction and printing.  Walks over shared nodes mark visited
   node indices with the manager's traversal epoch instead of allocating a
   visited set. *)

open Node

(* Visit every node reachable from [roots] once, in depth-first order;
   [visit i] may raise to stop the walk. *)
let iter_nodes m roots visit =
  let e = next_epoch m in
  let rec go f =
    if not (is_const f) then begin
      let i = index f in
      if m.mark.(i) <> e then begin
        m.mark.(i) <- e;
        visit i;
        go m.lo.(i);
        go m.hi.(i)
      end
    end
  in
  List.iter go roots

let support m f =
  let vars = ref [] in
  iter_nodes m [ f ] (fun i -> vars := m.var.(i) :: !vars);
  List.sort_uniq compare !vars

let size_list m fs =
  let n = ref 0 in
  iter_nodes m fs (fun _ -> incr n);
  !n

let size m f = size_list m [ f ]

(* [size_at_most m f k] is [Some n] when the DAG has n <= k nodes, [None]
   otherwise; the walk stops as soon as the bound is exceeded, so probing
   a huge function for smallness is cheap. *)
let size_at_most m f k =
  let e = next_epoch m in
  let n = ref 0 in
  (* false once more than [k] nodes have been seen *)
  let rec within f =
    is_const f
    ||
    let i = index f in
    m.mark.(i) = e
    || begin
      m.mark.(i) <- e;
      incr n;
      !n <= k && within m.lo.(i) && within m.hi.(i)
    end
  in
  if within f then Some !n else None

let rec eval m f env =
  if is_const f then f = one
  else
    let i = index f in
    eval m ((if env m.var.(i) then m.hi.(i) else m.lo.(i)) lxor (f land 1)) env

(* Number of satisfying assignments over [nvars] variables: the fraction
   of satisfying points, which negation complements, scaled by 2^nvars. *)
let sat_count m ~nvars f =
  let memo = Memo.create 64 in
  let rec density f =
    if is_const f then if f = one then 1.0 else 0.0
    else begin
      let i = index f in
      let d =
        match Memo.find_opt memo i with
        | Some d -> d
        | None ->
          let d = 0.5 *. (density m.lo.(i) +. density m.hi.(i)) in
          Memo.add memo i d;
          d
      in
      if is_compl f then 1.0 -. d else d
    end
  in
  density f *. (2.0 ** float_of_int nvars)

(* One satisfying assignment as a partial cube, or [None] if unsat.  The
   walk tries the then-branch first; in a reduced BDD every branch other
   than [zero] is satisfiable, so it never backtracks more than one step. *)
let any_sat m f =
  let rec go acc f =
    if f = zero then None
    else if f = one then Some (List.rev acc)
    else
      let v = top_var m f in
      match go ((v, true) :: acc) (high m f) with
      | Some cube -> Some cube
      | None -> go ((v, false) :: acc) (low m f)
  in
  go [] f

(* All satisfying partial cubes, for tests on small functions. *)
let all_sat m f =
  let rec go acc f k =
    if f = zero then k
    else if f = one then List.rev acc :: k
    else
      let v = top_var m f in
      go ((v, true) :: acc) (high m f) (go ((v, false) :: acc) (low m f) k)
  in
  go [] f []

let pp ?(max_cubes = 8) m ppf f =
  if f = zero then Format.fprintf ppf "false"
  else if f = one then Format.fprintf ppf "true"
  else begin
    let cubes = all_sat m f in
    let shown = List.filteri (fun i _ -> i < max_cubes) cubes in
    let pp_lit ppf (v, b) = Format.fprintf ppf "%sx%d" (if b then "" else "~") v in
    let pp_cube ppf cube =
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.fprintf ppf ".")
        pp_lit ppf cube
    in
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf " + ")
      pp_cube ppf shown;
    if List.length cubes > max_cubes then Format.fprintf ppf " + ..."
  end

(* Graphviz rendering: one box for the terminal [1], dashed else-edges,
   and a dot-headed arrow on every complemented edge. *)
let to_dot m ppf f =
  let edge ppf e =
    Format.fprintf ppf "n%d%s" (index e)
      (if is_compl e then " [arrowhead=odot]" else "")
  in
  Format.fprintf ppf "digraph bdd {@.";
  Format.fprintf ppf "  n0 [label=\"1\",shape=box];@.";
  Format.fprintf ppf "  root [shape=point];@.";
  Format.fprintf ppf "  root -> %a;@." edge f;
  iter_nodes m [ f ] (fun i ->
      Format.fprintf ppf "  n%d [label=\"x%d\"];@." i m.var.(i);
      Format.fprintf ppf "  n%d -> n%d [style=dashed%s];@." i (index m.lo.(i))
        (if is_compl m.lo.(i) then ",arrowhead=odot" else "");
      Format.fprintf ppf "  n%d -> %a;@." i edge m.hi.(i));
  Format.fprintf ppf "}@."
