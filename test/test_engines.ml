(* Tests of the one AIG-to-BDD builder: two combinational circuits over
   the same inputs, built into one manager with shared input variables,
   are equivalent exactly when their output BDDs are the same node, and a
   model of the outputs' XOR is a distinguishing input vector. *)

let output_bdd m aig =
  let lit = Engines.Aig_bdd.build m aig ~pi_var:(Bdd.var m) ~latch_var:(fun _ -> Bdd.zero) in
  lit (snd (List.hd (Aig.pos aig)))

(* A distinguishing input vector of the two circuits' outputs, read from
   the XOR of their BDDs (unassigned variables read as false). *)
let difference m a1 a2 =
  let f1 = output_bdd m a1 and f2 = output_bdd m a2 in
  Option.map
    (fun model ->
      Array.init (Aig.num_pis a1) (fun i ->
          Option.value (List.assoc_opt i model) ~default:false))
    (Bdd.any_sat m (Bdd.mk_xor m f1 f2))

let output_value aig inputs =
  let outs, _ = Aig.Sim.run aig [ Array.map (fun b -> if b then 1L else 0L) inputs ] in
  Int64.logand (List.assoc "o" (List.hd outs)) 1L = 1L

let test_simple_equivalence () =
  let mk f =
    let a = Aig.create () in
    let x = Aig.add_pi a and y = Aig.add_pi a in
    Aig.add_po a "o" (f a x y);
    a
  in
  (* x & y  vs  !( !x | !y ) *)
  let a1 = mk (fun a x y -> Aig.mk_and a x y) in
  let a2 = mk (fun a x y -> Aig.lit_not (Aig.mk_or a (Aig.lit_not x) (Aig.lit_not y))) in
  let m = Bdd.create () in
  Alcotest.(check bool) "same BDD" true (Bdd.equal (output_bdd m a1) (output_bdd m a2));
  Alcotest.(check bool) "no difference" true (difference m a1 a2 = None);
  (* x & y  vs  x | y: different, and the vector must separate them *)
  let a3 = mk (fun a x y -> Aig.mk_or a x y) in
  match difference m a1 a3 with
  | None -> Alcotest.fail "expected a difference"
  | Some inputs ->
    Alcotest.(check bool) "vector separates the outputs" true
      (output_value a1 inputs <> output_value a3 inputs)

(* A single distinguishing minterm, which random simulation will usually
   miss: the BDD must find it. *)
let test_needle_in_haystack () =
  let mk extra =
    let a = Aig.create () in
    let xs = List.init 12 (fun _ -> Aig.add_pi a) in
    let all = Aig.mk_ands a xs in
    Aig.add_po a "o" (if extra then all else Aig.mk_and a all Aig.lit_true);
    a
  in
  let a1 = mk true and a2 = mk false in
  let m = Bdd.create () in
  Alcotest.(check bool) "identical" true (difference m a1 a2 = None);
  (* output stuck at 0 differs only on the all-ones input *)
  let a3 = Transform.Mutate.apply a2 (Transform.Mutate.Stuck_output "o") in
  match difference m a1 a3 with
  | Some inputs ->
    Alcotest.(check bool) "the single minterm" true (Array.for_all Fun.id inputs)
  | None -> Alcotest.fail "missed the minterm"

let suite =
  [ Alcotest.test_case "simple equivalence" `Quick test_simple_equivalence;
    Alcotest.test_case "needle in haystack" `Quick test_needle_in_haystack;
  ]

let () = Alcotest.run "engines" [ ("engines", suite) ]
