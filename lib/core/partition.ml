(* Equivalence classes over the candidate signals of a product machine.

   Each candidate node carries a normalization polarity fixed by the
   reference valuation (paper Section 3): the normalized function of node
   [v] is [f_v] itself when the reference value is 1 and its complement
   otherwise, so all class members agree (value 1) at the reference point
   and antivalent signals share a class.

   Refinement only ever splits classes, mirroring the greatest fixed-point
   iteration; the number of classes is monotonically non-decreasing and
   bounded by |F|, which bounds the iteration count (paper Theorem 2). *)

type t = {
  class_of : int array; (* node id -> class id, or -1 for non-candidates *)
  pol : bool array; (* node id -> true when normalization complements *)
  mutable members : int list array; (* class id -> member node ids, sorted *)
  mutable n_classes : int;
  mutable version : int; (* bumped once per refinement event that splits *)
}

let create ~n_nodes ~candidates ~pol =
  let class_of = Array.make n_nodes (-1) in
  List.iter (fun id -> class_of.(id) <- 0) candidates;
  let members = Array.make (max 16 n_nodes) [] in
  members.(0) <- List.sort_uniq compare candidates;
  { class_of; pol; members; n_classes = 1; version = 0 }

let n_classes t = t.n_classes
let class_of t id = t.class_of.(id)
let polarity t id = t.pol.(id)
let members t cls = t.members.(cls)
let is_candidate t id = t.class_of.(id) >= 0
let version t = t.version

(* A refinement event that splits: bump the version once. *)
let begin_event t = t.version <- t.version + 1

(* Normalized literal of a candidate: value 1 at the reference point. *)
let norm_lit t id = Aig.lit_of_node id lor (if t.pol.(id) then 1 else 0)

let representative t cls =
  match t.members.(cls) with
  | rep :: _ -> rep
  | [] -> invalid_arg "Partition.representative: empty class"

let fresh_class t =
  if t.n_classes = Array.length t.members then begin
    let bigger = Array.make (2 * t.n_classes) [] in
    Array.blit t.members 0 bigger 0 t.n_classes;
    t.members <- bigger
  end;
  t.n_classes <- t.n_classes + 1;
  t.n_classes - 1

(* Split every class by a key function on its members; members sharing a
   key stay together.  The subgroup containing the old representative
   keeps the class id.  Returns the number of classes created. *)
let refine_by_key t key =
  let created = ref 0 in
  let bumped = ref false in
  let bump () =
    if not !bumped then begin
      begin_event t;
      bumped := true
    end
  in
  for cls = 0 to t.n_classes - 1 do
    match t.members.(cls) with
    | [] | [ _ ] -> ()
    | rep :: _ as mems ->
      let groups = Hashtbl.create 8 in
      let order = ref [] in
      List.iter
        (fun id ->
          let k = key id in
          match Hashtbl.find_opt groups k with
          | Some l -> Hashtbl.replace groups k (id :: l)
          | None ->
            order := k :: !order;
            Hashtbl.replace groups k [ id ])
        mems;
      if Hashtbl.length groups > 1 then begin
        bump ();
        let rep_key = key rep in
        List.iter
          (fun k ->
            let group = List.rev (Hashtbl.find groups k) in
            let target = if k = rep_key then cls else fresh_class t in
            if k <> rep_key then incr created;
            t.members.(target) <- group;
            List.iter (fun id -> t.class_of.(id) <- target) group)
          (List.rev !order)
      end
  done;
  !created

(* Split one class using a pairwise test against subgroup representatives:
   a member joins the first subgroup whose representative it matches.
   Returns true if the class split. *)
let refine_class t cls ~equal =
  match t.members.(cls) with
  | [] | [ _ ] -> false
  | mems ->
    let subgroups = ref [] in
    (* (rep, members rev) list, in discovery order *)
    List.iter
      (fun id ->
        let rec place = function
          | [] -> subgroups := !subgroups @ [ (id, ref [ id ]) ]
          | (rep, group) :: rest -> if equal rep id then group := id :: !group else place rest
        in
        place !subgroups)
      mems;
    match !subgroups with
    | [] | [ _ ] -> false
    | (_, first) :: rest ->
      begin_event t;
      t.members.(cls) <- List.rev !first;
      List.iter
        (fun (_, group) ->
          let target = fresh_class t in
          let group = List.rev !group in
          t.members.(target) <- group;
          List.iter (fun id -> t.class_of.(id) <- target) group)
        rest;
      true

(* Are two candidate literals provably equal under the current partition?
   Same class and consistent relative polarity. *)
let lits_equal t la lb =
  let na = Aig.node_of_lit la and nb = Aig.node_of_lit lb in
  t.class_of.(na) >= 0
  && t.class_of.(na) = t.class_of.(nb)
  &&
  let pa = Aig.lit_is_compl la <> t.pol.(na) in
  let pb = Aig.lit_is_compl lb <> t.pol.(nb) in
  pa = pb

(* All (representative, member) pairs of every multi-member class: the
   equality constraints whose conjunction is the correspondence condition
   Q (Definition 1). *)
let constraint_pairs t =
  let acc = ref [] in
  for cls = 0 to t.n_classes - 1 do
    match t.members.(cls) with
    | [] | [ _ ] -> ()
    | rep :: rest -> List.iter (fun id -> acc := (rep, id) :: !acc) rest
  done;
  !acc

let multi_member_classes t =
  let acc = ref [] in
  for cls = t.n_classes - 1 downto 0 do
    match t.members.(cls) with
    | [] | [ _ ] -> ()
    | _ -> acc := cls :: !acc
  done;
  !acc

let pp ppf t =
  Format.fprintf ppf "partition: %d classes@." t.n_classes;
  for cls = 0 to t.n_classes - 1 do
    match t.members.(cls) with
    | [] | [ _ ] -> ()
    | mems ->
      Format.fprintf ppf "  class %d: %s@." cls
        (String.concat " "
           (List.map
              (fun id -> Printf.sprintf "%s%d" (if t.pol.(id) then "~" else "") id)
              mems))
  done
