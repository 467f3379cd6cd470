(* BDD package tests: every operation is cross-checked against a brute-force
   truth-table semantics on random small formulas. *)

(* A tiny formula language with a reference evaluator. *)
type formula =
  | F_var of int
  | F_not of formula
  | F_and of formula * formula
  | F_or of formula * formula
  | F_xor of formula * formula
  | F_ite of formula * formula * formula

let rec eval_formula env = function
  | F_var v -> env v
  | F_not f -> not (eval_formula env f)
  | F_and (f, g) -> eval_formula env f && eval_formula env g
  | F_or (f, g) -> eval_formula env f || eval_formula env g
  | F_xor (f, g) -> eval_formula env f <> eval_formula env g
  | F_ite (f, g, h) -> if eval_formula env f then eval_formula env g else eval_formula env h

let rec build m = function
  | F_var v -> Bdd.var m v
  | F_not f -> Bdd.mk_not m (build m f)
  | F_and (f, g) -> Bdd.mk_and m (build m f) (build m g)
  | F_or (f, g) -> Bdd.mk_or m (build m f) (build m g)
  | F_xor (f, g) -> Bdd.mk_xor m (build m f) (build m g)
  | F_ite (f, g, h) -> Bdd.ite m (build m f) (build m g) (build m h)

let nvars_tt = 5

let formula_gen_over nvars =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then map (fun v -> F_var v) (int_bound (nvars - 1))
      else
        frequency
          [ (1, map (fun v -> F_var v) (int_bound (nvars - 1)));
            (2, map (fun f -> F_not f) (self (n - 1)));
            (3, map2 (fun f g -> F_and (f, g)) (self (n / 2)) (self (n / 2)));
            (3, map2 (fun f g -> F_or (f, g)) (self (n / 2)) (self (n / 2)));
            (2, map2 (fun f g -> F_xor (f, g)) (self (n / 2)) (self (n / 2)));
            (1,
             map3 (fun f g h -> F_ite (f, g, h)) (self (n / 3)) (self (n / 3)) (self (n / 3)));
          ])

let formula_gen = formula_gen_over nvars_tt

let rec pp_formula ppf = function
  | F_var v -> Format.fprintf ppf "x%d" v
  | F_not f -> Format.fprintf ppf "!(%a)" pp_formula f
  | F_and (f, g) -> Format.fprintf ppf "(%a & %a)" pp_formula f pp_formula g
  | F_or (f, g) -> Format.fprintf ppf "(%a | %a)" pp_formula f pp_formula g
  | F_xor (f, g) -> Format.fprintf ppf "(%a ^ %a)" pp_formula f pp_formula g
  | F_ite (f, g, h) ->
    Format.fprintf ppf "ite(%a,%a,%a)" pp_formula f pp_formula g pp_formula h

let arbitrary_formula =
  QCheck.make formula_gen ~print:(Format.asprintf "%a" pp_formula)

let env_of_int bits v = bits land (1 lsl v) <> 0

let forall_envs p =
  let rec go bits = bits >= 1 lsl nvars_tt || (p (env_of_int bits) && go (bits + 1)) in
  go 0

let prop name count p =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arbitrary_formula p)

let prop2 name count p =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count (QCheck.pair arbitrary_formula arbitrary_formula) p)

(* Wider formulas for properties that need no truth table. *)
let arbitrary_wide_formula =
  QCheck.make (formula_gen_over 7) ~print:(Format.asprintf "%a" pp_formula)

let prop2_wide name count p =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count (QCheck.pair arbitrary_wide_formula arbitrary_wide_formula) p)

(* --- unit tests --------------------------------------------------------- *)

let test_constants () =
  let m = Bdd.create () in
  Alcotest.(check bool) "one is true" true (Bdd.is_true Bdd.one);
  Alcotest.(check bool) "zero is false" true (Bdd.is_false Bdd.zero);
  Alcotest.(check bool) "not one = zero" true (Bdd.equal (Bdd.mk_not m Bdd.one) Bdd.zero);
  Alcotest.(check bool) "x & !x = 0" true
    (Bdd.is_false (Bdd.mk_and m (Bdd.var m 0) (Bdd.nvar m 0)));
  Alcotest.(check bool) "x | !x = 1" true
    (Bdd.is_true (Bdd.mk_or m (Bdd.var m 0) (Bdd.nvar m 0)))

let test_hashcons () =
  let m = Bdd.create () in
  let f = Bdd.mk_and m (Bdd.var m 0) (Bdd.var m 1) in
  let g = Bdd.mk_and m (Bdd.var m 1) (Bdd.var m 0) in
  Alcotest.(check bool) "and commutes canonically" true (Bdd.equal f g);
  let h = Bdd.mk_not m (Bdd.mk_or m (Bdd.nvar m 0) (Bdd.nvar m 1)) in
  Alcotest.(check bool) "de morgan canonically" true (Bdd.equal f h)

let test_cofactor () =
  let m = Bdd.create () in
  let f = Bdd.mk_xor m (Bdd.var m 0) (Bdd.var m 1) in
  let f1 = Bdd.cofactor m f 0 true in
  Alcotest.(check bool) "xor cofactor" true (Bdd.equal f1 (Bdd.nvar m 1))

let test_quantify () =
  let m = Bdd.create () in
  let f = Bdd.mk_and m (Bdd.var m 0) (Bdd.var m 1) in
  Alcotest.(check bool) "exists x0 (x0&x1) = x1" true
    (Bdd.equal (Bdd.exists m [ 0 ] f) (Bdd.var m 1));
  Alcotest.(check bool) "forall x0 (x0&x1) = 0" true
    (Bdd.is_false (Bdd.forall m [ 0 ] f))

let test_compose () =
  let m = Bdd.create () in
  let f = Bdd.mk_xor m (Bdd.var m 0) (Bdd.var m 1) in
  let g = Bdd.mk_and m (Bdd.var m 2) (Bdd.var m 3) in
  let h = Bdd.compose m f 0 g in
  let expect = Bdd.mk_xor m g (Bdd.var m 1) in
  Alcotest.(check bool) "compose xor" true (Bdd.equal h expect)

let test_sat_count () =
  let m = Bdd.create () in
  let f = Bdd.mk_or m (Bdd.var m 0) (Bdd.var m 1) in
  Alcotest.(check (float 0.001)) "or over 2 vars" 3.0 (Bdd.sat_count m ~nvars:2 f);
  Alcotest.(check (float 0.001)) "or over 3 vars" 6.0 (Bdd.sat_count m ~nvars:3 f)

let test_support () =
  let m = Bdd.create () in
  let f = Bdd.mk_and m (Bdd.var m 4) (Bdd.mk_or m (Bdd.var m 1) (Bdd.var m 2)) in
  Alcotest.(check (list int)) "support" [ 1; 2; 4 ] (Bdd.support m f)

let test_restrict_example () =
  let m = Bdd.create () in
  (* f = x0 & x1, care = x0: restrict should not need x0 anymore *)
  let f = Bdd.mk_and m (Bdd.var m 0) (Bdd.var m 1) in
  let r = Bdd.restrict m f ~care:(Bdd.var m 0) in
  Alcotest.(check bool) "restrict drops x0" true (Bdd.equal r (Bdd.var m 1))

(* --- property tests ----------------------------------------------------- *)

let agree_tt f =
  let m = Bdd.create () in
  let b = build m f in
  forall_envs (fun env -> Bdd.eval m b env = eval_formula env f)

let quantify_exists_ok f =
  let m = Bdd.create () in
  let b = build m f in
  let q = Bdd.exists m [ 0; 2 ] b in
  forall_envs (fun env ->
      let expect =
        List.exists
          (fun (b0, b2) ->
            let env' v = if v = 0 then b0 else if v = 2 then b2 else env v in
            eval_formula env' f)
          [ (false, false); (false, true); (true, false); (true, true) ]
      in
      Bdd.eval m q env = expect)

let and_exists_ok (f, g) =
  let m = Bdd.create () in
  let bf = build m f and bg = build m g in
  let direct = Bdd.exists m [ 1; 3 ] (Bdd.mk_and m bf bg) in
  let fused = Bdd.and_exists m [ 1; 3 ] bf bg in
  Bdd.equal direct fused

let compose_ok (f, g) =
  let m = Bdd.create () in
  let bf = build m f and bg = build m g in
  let c = Bdd.compose m bf 1 bg in
  forall_envs (fun env ->
      let env' v = if v = 1 then eval_formula env g else env v in
      Bdd.eval m c env = eval_formula env' f)

let vector_compose_ok (f, g) =
  let m = Bdd.create () in
  let bf = build m f and bg = build m g in
  let subst = Array.make nvars_tt None in
  subst.(0) <- Some bg;
  subst.(2) <- Some (Bdd.mk_not m bg);
  let c = Bdd.vector_compose m bf subst in
  forall_envs (fun env ->
      let gv = eval_formula env g in
      let env' v = if v = 0 then gv else if v = 2 then not gv else env v in
      Bdd.eval m c env = eval_formula env' f)

let restrict_sound (f, g) =
  (* restrict agrees with f wherever the care set holds *)
  let m = Bdd.create () in
  let bf = build m f and care = build m g in
  QCheck.assume (not (Bdd.is_false care));
  let r = Bdd.restrict m bf ~care in
  forall_envs (fun env -> (not (Bdd.eval m care env)) || Bdd.eval m r env = Bdd.eval m bf env)

let constrain_sound (f, g) =
  let m = Bdd.create () in
  let bf = build m f and c = build m g in
  QCheck.assume (not (Bdd.is_false c));
  let r = Bdd.constrain m bf c in
  forall_envs (fun env -> (not (Bdd.eval m c env)) || Bdd.eval m r env = Bdd.eval m bf env)

let any_sat_ok f =
  let m = Bdd.create () in
  let b = build m f in
  match Bdd.any_sat m b with
  | None -> Bdd.is_false b
  | Some cube ->
    let env v = match List.assoc_opt v cube with Some b -> b | None -> false in
    Bdd.eval m b env

let sat_count_ok f =
  let m = Bdd.create () in
  let b = build m f in
  let expect = ref 0 in
  for bits = 0 to (1 lsl nvars_tt) - 1 do
    if eval_formula (env_of_int bits) f then incr expect
  done;
  abs_float (Bdd.sat_count m ~nvars:nvars_tt b -. float_of_int !expect) < 0.5

(* Rebuilt roots, a function and its complement, evaluate in their new
   manager as the originals do in theirs. *)
let rebuilt_agree m b (m', roots') =
  match roots' with
  | [ b'; nb' ] ->
    forall_envs (fun env ->
        let v = Bdd.eval m b env in
        Bdd.eval m' b' env = v && Bdd.eval m' nb' env = not v)
  | _ -> false

let reorder_preserves f =
  let m = Bdd.create () in
  let b = build m f in
  (* force all nvars_tt variables to exist so orders are total *)
  let _ = Bdd.var m (nvars_tt - 1) in
  let order = Array.init nvars_tt (fun i -> nvars_tt - 1 - i) in
  rebuilt_agree m b (Bdd.Reorder.with_order ~src:m ~order [ b; Bdd.mk_not m b ])

let sift_preserves f =
  let m = Bdd.create () in
  let b = build m f in
  let _ = Bdd.var m (nvars_tt - 1) in
  rebuilt_agree m b (Bdd.Reorder.sift m [ b; Bdd.mk_not m b ])

(* --- complement edges --------------------------------------------------- *)

let not_involution f =
  let m = Bdd.create () in
  let b = build m f in
  let made = Bdd.made_nodes m in
  let nb = Bdd.mk_not m b in
  Bdd.equal (Bdd.mk_not m nb) b && Bdd.made_nodes m = made

let not_differs f =
  let m = Bdd.create () in
  let b = build m f in
  not (Bdd.equal b (Bdd.mk_not m b))

let not_same_size f =
  let m = Bdd.create () in
  let b = build m f in
  Bdd.size m b = Bdd.size m (Bdd.mk_not m b)

let not_sat_count f =
  let m = Bdd.create () in
  let b = build m f in
  let total = float_of_int (1 lsl nvars_tt) in
  abs_float
    (Bdd.sat_count m ~nvars:nvars_tt (Bdd.mk_not m b)
    -. (total -. Bdd.sat_count m ~nvars:nvars_tt b))
  < 0.5

let canonical (f, g) =
  (* semantically equal formulas yield equal edges *)
  let m = Bdd.create () in
  let bf = build m f and bg = build m g in
  let sem_equal = forall_envs (fun env -> eval_formula env f = eval_formula env g) in
  Bdd.equal bf bg = sem_equal

let test_size_at_most () =
  let m = Bdd.create () in
  let f = Bdd.mk_xor m (Bdd.mk_xor m (Bdd.var m 0) (Bdd.var m 1)) (Bdd.var m 2) in
  let n = Bdd.size m f in
  Alcotest.(check (option int)) "within bound" (Some n) (Bdd.size_at_most m f n);
  Alcotest.(check (option int)) "over bound" None (Bdd.size_at_most m f (n - 1));
  Alcotest.(check (option int)) "terminal" (Some 0) (Bdd.size_at_most m Bdd.one 0)

(* [leq f g] against the built test [f /\ not g = 0], on random pairs, on
   pairs where the implication holds by construction, and on constants
   and complement edges; the store must not grow by a node, and a second
   call (answered from the computed cache) must agree. *)
let leq_ok (f, g) =
  let m = Bdd.create () in
  let bf = build m f and bg = build m g in
  let bfg = Bdd.mk_and m bf bg and bfog = Bdd.mk_or m bf bg in
  let nf = Bdd.mk_not m bf in
  let pairs =
    [ (bf, bg); (bg, bf); (bfg, bg); (bf, bfog); (bg, Bdd.mk_xnor m bf bg);
      (bf, nf); (nf, bf); (bf, Bdd.one); (Bdd.zero, bf); (Bdd.one, bf); (bf, Bdd.zero) ]
  in
  let live = Bdd.live_nodes m in
  let got = List.map (fun (a, b) -> Bdd.leq m a b) pairs in
  let unchanged = Bdd.live_nodes m = live in
  let expect = List.map (fun (a, b) -> Bdd.is_false (Bdd.mk_and m a (Bdd.mk_not m b))) pairs in
  unchanged && got = expect && List.map (fun (a, b) -> Bdd.leq m a b) pairs = expect

let test_leq_complement_edges () =
  let m = Bdd.create () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let f = Bdd.mk_and m x y in
  let live = Bdd.live_nodes m in
  Alcotest.(check bool) "x&y implies x" true (Bdd.leq m f x);
  Alcotest.(check bool) "x does not imply x&y" false (Bdd.leq m x f);
  Alcotest.(check bool) "!x implies !(x&y)" true (Bdd.leq m (Bdd.mk_not m x) (Bdd.mk_not m f));
  Alcotest.(check bool) "x&y does not imply !(x&y)" false (Bdd.leq m f (Bdd.mk_not m f));
  Alcotest.(check bool) "!(x&y) does not imply x&y" false (Bdd.leq m (Bdd.mk_not m f) f);
  Alcotest.(check bool) "x implies one" true (Bdd.leq m x Bdd.one);
  Alcotest.(check bool) "zero implies !x" true (Bdd.leq m Bdd.zero (Bdd.mk_not m x));
  Alcotest.(check bool) "one does not imply x" false (Bdd.leq m Bdd.one x);
  Alcotest.(check bool) "x does not imply zero" false (Bdd.leq m x Bdd.zero);
  Alcotest.(check int) "no node made" live (Bdd.live_nodes m)

let test_node_limit () =
  let m = Bdd.create () in
  Bdd.set_node_limit m 8;
  match
    (* a parity chain of 20 variables needs far more than 8 nodes *)
    List.fold_left
      (fun acc v -> Bdd.mk_xor m acc (Bdd.var m v))
      Bdd.zero
      (List.init 20 (fun i -> i))
  with
  | exception Bdd.Limit_exceeded -> ()
  | _ -> Alcotest.fail "expected Limit_exceeded"

let test_memo_entries_clearing () =
  let m = Bdd.create () in
  let f = Bdd.mk_and m (Bdd.var m 0) (Bdd.var m 1) in
  let g = Bdd.mk_or m f (Bdd.var m 2) in
  ignore (Bdd.mk_xor m f g);
  Bdd.clear_caches m;
  (* results remain canonical after clearing *)
  let f' = Bdd.mk_and m (Bdd.var m 0) (Bdd.var m 1) in
  Alcotest.(check bool) "hash-consing survives" true (Bdd.equal f f');
  (* The computed cache is lossy and bounded: a function built through
     more operations than it has slots must still come out canonical.
     [x = y] over 16-bit words ordered x0..x15 y0..y15 has about 2^17
     nodes. *)
  let bits = 16 in
  let x i = Bdd.var m i and y i = Bdd.var m (bits + i) in
  let eq_bit i = Bdd.mk_iff m (x i) (y i) in
  let upward = Bdd.big_and m (List.init bits eq_bit) in
  let downward = Bdd.big_and m (List.rev (List.init bits eq_bit)) in
  let differ = Bdd.big_or m (List.init bits (fun i -> Bdd.mk_xor m (x i) (y i))) in
  Alcotest.(check bool) "more nodes than cache slots" true (Bdd.made_nodes m > 1 lsl 18);
  Alcotest.(check bool) "association order" true (Bdd.equal upward downward);
  Alcotest.(check bool) "de morgan" true (Bdd.equal upward (Bdd.mk_not m differ));
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 200 do
    let word = Random.State.int rng (1 lsl bits) in
    let other = if Random.State.bool rng then word else Random.State.int rng (1 lsl bits) in
    let env v = if v < bits then word land (1 lsl v) <> 0 else other land (1 lsl (v - bits)) <> 0 in
    Alcotest.(check bool) "evaluates x = y" (word = other) (Bdd.eval m upward env)
  done

let test_interleave () =
  let order = Bdd.Reorder.interleave [ [ 0; 1; 2 ]; [ 3; 4 ] ] in
  Alcotest.(check (list int)) "interleave" [ 0; 3; 1; 4; 2 ] order

let suite =
  [ Alcotest.test_case "constants" `Quick test_constants;
    Alcotest.test_case "hashcons canonical" `Quick test_hashcons;
    Alcotest.test_case "cofactor" `Quick test_cofactor;
    Alcotest.test_case "quantify" `Quick test_quantify;
    Alcotest.test_case "compose" `Quick test_compose;
    Alcotest.test_case "sat_count" `Quick test_sat_count;
    Alcotest.test_case "support" `Quick test_support;
    Alcotest.test_case "restrict example" `Quick test_restrict_example;
    Alcotest.test_case "interleave" `Quick test_interleave;
    Alcotest.test_case "size_at_most" `Quick test_size_at_most;
    Alcotest.test_case "node limit" `Quick test_node_limit;
    Alcotest.test_case "memo entries" `Quick test_memo_entries_clearing;
    Alcotest.test_case "leq on complement edges" `Quick test_leq_complement_edges;
    prop "bdd agrees with truth table" 300 agree_tt;
    prop "exists agrees with expansion" 150 quantify_exists_ok;
    prop2 "and_exists = exists of and" 150 and_exists_ok;
    prop2 "compose semantics" 150 compose_ok;
    prop2 "vector_compose semantics" 150 vector_compose_ok;
    prop2 "restrict sound on care set" 150 restrict_sound;
    prop2 "constrain sound on care set" 150 constrain_sound;
    prop "any_sat returns a model" 200 any_sat_ok;
    prop "sat_count exact" 200 sat_count_ok;
    prop "reorder preserves semantics" 100 reorder_preserves;
    prop "sift preserves semantics" 50 sift_preserves;
    prop2 "canonicity" 200 canonical;
    prop "mk_not is a free involution" 200 not_involution;
    prop "a function differs from its complement" 200 not_differs;
    prop "complement has the same size" 200 not_same_size;
    prop "complement sat_count" 200 not_sat_count;
    prop2_wide "leq = (f and not g) is zero, no node made" 300 leq_ok;
  ]

let () = Alcotest.run "bdd" [ ("bdd", suite) ]
