(* Unit tests of the partition data structure underlying the fixed point:
   the refinement laws it must satisfy for Theorem 2 to apply. *)

let mk_partition ?(n = 10) ?(pol = []) candidates =
  let pol_arr = Array.make n false in
  List.iter (fun i -> pol_arr.(i) <- true) pol;
  Scorr.Partition.create ~n_nodes:n ~candidates ~pol:pol_arr

let members_sorted p cls = List.sort compare (Scorr.Partition.members p cls)

let test_initial_single_class () =
  let p = mk_partition [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "one class" 1 (Scorr.Partition.n_classes p);
  Alcotest.(check (list int)) "all members" [ 1; 2; 3; 4 ] (members_sorted p 0);
  Alcotest.(check bool) "candidate" true (Scorr.Partition.is_candidate p 2);
  Alcotest.(check bool) "non-candidate" false (Scorr.Partition.is_candidate p 7);
  Alcotest.(check int) "class of non-candidate" (-1) (Scorr.Partition.class_of p 7)

let test_refine_by_key () =
  let p = mk_partition [ 1; 2; 3; 4; 5 ] in
  let created = Scorr.Partition.refine_by_key p (fun id -> id mod 2) in
  Alcotest.(check int) "one new class" 1 created;
  Alcotest.(check int) "two classes" 2 (Scorr.Partition.n_classes p);
  (* the representative (smallest id = 1) keeps the old class id *)
  Alcotest.(check (list int)) "odd group keeps class 0" [ 1; 3; 5 ] (members_sorted p 0);
  Alcotest.(check (list int)) "even group" [ 2; 4 ] (members_sorted p 1);
  (* stable under the same key *)
  Alcotest.(check int) "idempotent" 0 (Scorr.Partition.refine_by_key p (fun id -> id mod 2))

let test_refine_class_pairwise () =
  let p = mk_partition [ 1; 2; 3; 4; 5; 6 ] in
  (* equal iff same tercile *)
  let changed = Scorr.Partition.refine_class p 0 ~equal:(fun a b -> (a - 1) / 2 = (b - 1) / 2) in
  Alcotest.(check bool) "split happened" true changed;
  Alcotest.(check int) "three classes" 3 (Scorr.Partition.n_classes p);
  Alcotest.(check (list int)) "first subgroup in place" [ 1; 2 ] (members_sorted p 0)

let test_norm_lit_polarity () =
  let p = mk_partition ~pol:[ 3 ] [ 2; 3 ] in
  Alcotest.(check int) "plain" (Aig.lit_of_node 2) (Scorr.Partition.norm_lit p 2);
  Alcotest.(check int) "complemented" (Aig.lit_of_node 3 lor 1) (Scorr.Partition.norm_lit p 3)

let test_lits_equal_polarity () =
  (* nodes 2 (plain) and 3 (complemented) in one class: node2 ~ NOT node3 *)
  let p = mk_partition ~pol:[ 3 ] [ 2; 3 ] in
  let l2 = Aig.lit_of_node 2 and l3 = Aig.lit_of_node 3 in
  Alcotest.(check bool) "2 = !3" true (Scorr.Partition.lits_equal p l2 (Aig.lit_not l3));
  Alcotest.(check bool) "2 <> 3" false (Scorr.Partition.lits_equal p l2 l3);
  Alcotest.(check bool) "!2 = 3" true (Scorr.Partition.lits_equal p (Aig.lit_not l2) l3)

let test_constraint_pairs () =
  let p = mk_partition [ 1; 2; 3; 4 ] in
  ignore (Scorr.Partition.refine_by_key p (fun id -> id <= 2));
  let pairs = List.sort compare (Scorr.Partition.constraint_pairs p) in
  Alcotest.(check (list (pair int int))) "rep-member pairs" [ (1, 2); (3, 4) ] pairs

let test_multi_member_classes () =
  let p = mk_partition [ 1; 2; 3 ] in
  ignore (Scorr.Partition.refine_by_key p (fun id -> id = 3));
  (* classes: {1;2} and {3}: only the first is multi-member *)
  let multi = Scorr.Partition.multi_member_classes p in
  Alcotest.(check int) "one multi class" 1 (List.length multi)

(* The version is what marks class proofs stale: one bump per refinement
   event that splits, none for an event that splits nothing. *)
let test_version_dirty_tracking () =
  let p = mk_partition [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check int) "initial version" 0 (Scorr.Partition.version p);
  ignore (Scorr.Partition.refine_by_key p (fun _ -> 0));
  Alcotest.(check int) "no-split keeps version" 0 (Scorr.Partition.version p);
  ignore (Scorr.Partition.refine_by_key p (fun id -> id mod 3));
  Alcotest.(check int) "a split creating two classes bumps once" 1 (Scorr.Partition.version p);
  Alcotest.(check bool) "refine_class without a split" false
    (Scorr.Partition.refine_class p 0 ~equal:(fun _ _ -> true));
  Alcotest.(check int) "unchanged by it" 1 (Scorr.Partition.version p);
  Alcotest.(check bool) "refine_class splits" true
    (Scorr.Partition.refine_class p 0 ~equal:(fun a b -> a = b));
  Alcotest.(check int) "second event" 2 (Scorr.Partition.version p)

let prop_refinement_invariants =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"refine_by_key preserves membership and monotonicity" ~count:200
       QCheck.(pair (int_range 1 30) (int_range 0 1_000))
       (fun (n_cands, seed) ->
         let rng = Random.State.make [| seed |] in
         let candidates = List.init n_cands (fun i -> i) in
         let p = mk_partition ~n:32 candidates in
         let ok = ref true in
         for _ = 1 to 5 do
           let modulus = 1 + Random.State.int rng 4 in
           let salt = Random.State.int rng 100 in
           let before = Scorr.Partition.n_classes p in
           ignore (Scorr.Partition.refine_by_key p (fun id -> (id + salt) mod modulus));
           if Scorr.Partition.n_classes p < before then ok := false
         done;
         (* every candidate is in exactly the class recorded for it *)
         List.iter
           (fun id ->
             let cls = Scorr.Partition.class_of p id in
             if not (List.mem id (Scorr.Partition.members p cls)) then ok := false)
           candidates;
         (* classes are disjoint and cover the candidates *)
         let all =
           List.concat
             (List.init (Scorr.Partition.n_classes p) (fun c -> Scorr.Partition.members p c))
         in
         !ok
         && List.sort compare all = List.sort compare candidates))

let suite =
  [ Alcotest.test_case "initial single class" `Quick test_initial_single_class;
    Alcotest.test_case "refine_by_key" `Quick test_refine_by_key;
    Alcotest.test_case "refine_class pairwise" `Quick test_refine_class_pairwise;
    Alcotest.test_case "norm_lit polarity" `Quick test_norm_lit_polarity;
    Alcotest.test_case "lits_equal polarity" `Quick test_lits_equal_polarity;
    Alcotest.test_case "constraint pairs" `Quick test_constraint_pairs;
    Alcotest.test_case "multi member classes" `Quick test_multi_member_classes;
    Alcotest.test_case "version and dirty tracking" `Quick test_version_dirty_tracking;
    prop_refinement_invariants;
  ]

let () = Alcotest.run "partition" [ ("partition", suite) ]
