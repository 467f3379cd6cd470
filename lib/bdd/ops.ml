(* Boolean operations on ROBDDs with complement edges, built on the apply
   core of {!Node}; negation is free.  Traversal-style operations
   (quantification, composition, restrict) use a per-call memo keyed by
   int edges. *)

open Node

(* Two edges as one memo key; edges stay far below 2^31. *)
let pair a b = (a lsl 31) lor b

let mk_not _m f = neg f
let mk_nand m f g = neg (mk_and m f g)
let mk_nor m f g = neg (mk_or m f g)
let mk_xnor m f g = neg (mk_xor m f g)
let mk_imp m f g = mk_or m (neg f) g
let mk_iff = mk_xnor

(* A traversal memoized on the regular edge, for operations that commute
   with negation: [go] sees only regular non-constant edges. *)
let negation_invariant memo go f =
  if is_const f then f
  else
    let f' = regular f in
    let r =
      match Memo.find_opt memo f' with
      | Some r -> r
      | None ->
        let r = go f' in
        Memo.add memo f' r;
        r
    in
    r lxor (f land 1)

(* Restrict a single variable to a constant. *)
let cofactor m f v value =
  ensure_var m v;
  let lv = level m v in
  let memo = Memo.create 64 in
  let rec go f =
    negation_invariant memo
      (fun f ->
        let l = top_level m f in
        if l > lv then f
        else if l = lv then if value then high m f else low m f
        else mk m (top_var m f) ~lo:(go (low m f)) ~hi:(go (high m f)))
      f
  in
  go f

let var_set m vars =
  let in_set = Array.make (List.fold_left max (-1) vars + 1) false in
  List.iter
    (fun v ->
      ensure_var m v;
      in_set.(v) <- true)
    vars;
  fun v -> v < Array.length in_set && in_set.(v)

let exists m vars f =
  let quantified = var_set m vars in
  let memo = Memo.create 64 in
  let rec go f =
    if is_const f then f
    else
      match Memo.find_opt memo f with
      | Some r -> r
      | None ->
        let lo = go (low m f) and hi = go (high m f) in
        let v = top_var m f in
        let r = if quantified v then mk_or m lo hi else mk m v ~lo ~hi in
        Memo.add memo f r;
        r
  in
  go f

let forall m vars f = neg (exists m vars (neg f))

(* exists vars (f /\ g), the workhorse of image computation.  Conjunction
   and quantification are interleaved so the full conjunction is never
   built when a branch collapses early. *)
let and_exists m vars f g =
  let quantified = var_set m vars in
  let memo = Memo.create 64 in
  let rec go f g =
    if f = zero || g = zero || f = neg g then zero
    else if f = one && g = one then one
    else begin
      let f, g = if f <= g then (f, g) else (g, f) in
      let key = pair f g in
      match Memo.find_opt memo key with
      | Some r -> r
      | None ->
        let lf = top_level m f and lg = top_level m g in
        let lv = min lf lg in
        let v = if lf = lv then top_var m f else top_var m g in
        let f0 = cofactor0 m f lv and f1 = cofactor1 m f lv in
        let g0 = cofactor0 m g lv and g1 = cofactor1 m g lv in
        let r =
          if quantified v then
            let lo = go f0 g0 in
            if lo = one then one else mk_or m lo (go f1 g1)
          else mk m v ~lo:(go f0 g0) ~hi:(go f1 g1)
        in
        Memo.add memo key r;
        r
    end
  in
  go f g

let compose m f v g =
  ensure_var m v;
  let lv = level m v in
  let memo = Memo.create 64 in
  let rec go f =
    negation_invariant memo
      (fun f ->
        let l = top_level m f in
        if l > lv then f
        else if l = lv then ite m g (high m f) (low m f)
        else
          let lo = go (low m f) and hi = go (high m f) in
          (* [g] may mention variables ordered above [f]'s top variable;
             rebuilding through [ite] keeps the result canonical in every
             case. *)
          ite m (var m (top_var m f)) hi lo)
      f
  in
  go f

let vector_compose m f subst =
  let memo = Memo.create 64 in
  let rec go f =
    negation_invariant memo
      (fun f ->
        let lo = go (low m f) and hi = go (high m f) in
        let v = top_var m f in
        let gv =
          if v < Array.length subst then
            match subst.(v) with Some g -> g | None -> var m v
          else var m v
        in
        ite m gv hi lo)
      f
  in
  go f

(* Coudert–Madre generalized cofactor and restrict.  Both commute with
   negation of [f], so the memo keys on the regular edge of [f] and the
   result takes [f]'s complement bit back. *)
let constrain m f c =
  if c = zero then invalid_arg "Bdd.constrain: empty care set";
  let memo = Memo.create 64 in
  let rec go f c =
    if c = one || is_const f then f
    else if f = c then one
    else if f = neg c then zero
    else begin
      let parity = f land 1 in
      let f = regular f in
      let key = pair f c in
      let r =
        match Memo.find_opt memo key with
        | Some r -> r
        | None ->
          let lf = top_level m f and lc = top_level m c in
          let lv = min lf lc in
          let v = if lf = lv then top_var m f else top_var m c in
          let f0 = cofactor0 m f lv and f1 = cofactor1 m f lv in
          let c0 = cofactor0 m c lv and c1 = cofactor1 m c lv in
          let r =
            if c1 = zero then go f0 c0
            else if c0 = zero then go f1 c1
            else mk m v ~lo:(go f0 c0) ~hi:(go f1 c1)
          in
          Memo.add memo key r;
          r
      in
      r lxor parity
    end
  in
  go f c

let restrict m f ~care =
  if care = zero then invalid_arg "Bdd.restrict: empty care set";
  let memo = Memo.create 64 in
  let rec go f c =
    if c = one || is_const f then f
    else if f = c then one
    else if f = neg c then zero
    else begin
      let parity = f land 1 in
      let f = regular f in
      let key = pair f c in
      let r =
        match Memo.find_opt memo key with
        | Some r -> r
        | None ->
          let lvf = top_level m f and lvc = top_level m c in
          let r =
            if lvc < lvf then
              (* the care set tests a variable [f] ignores: drop it *)
              go f (mk_or m (low m c) (high m c))
            else begin
              let f0 = cofactor0 m f lvf and f1 = cofactor1 m f lvf in
              let c0 = cofactor0 m c lvf and c1 = cofactor1 m c lvf in
              if c1 = zero then go f0 c0
              else if c0 = zero then go f1 c1
              else mk m (top_var m f) ~lo:(go f0 c0) ~hi:(go f1 c1)
            end
          in
          Memo.add memo key r;
          r
      in
      r lxor parity
    end
  in
  go f care

(* Rename variables according to [perm] (an association list old -> new).
   Implemented through vector composition, so it is safe even when the
   renaming is not order-preserving. *)
let rename m f perm =
  let max_var = List.fold_left (fun acc (o, _) -> max acc o) (-1) perm in
  let subst = Array.make (max_var + 1) None in
  List.iter (fun (o, n) -> subst.(o) <- Some (var m n)) perm;
  vector_compose m f subst

let big_and m fs = List.fold_left (mk_and m) one fs
let big_or m fs = List.fold_left (mk_or m) zero fs

let cube m lits =
  List.fold_left
    (fun acc (v, value) ->
      let lit = if value then var m v else nvar m v in
      mk_and m acc lit)
    one lits
