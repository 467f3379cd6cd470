(* Unit tests of the sweep protocol's suspect selection: which classes a
   trusting and a strict round re-examine after a class was proven, and
   that classes marked by another prover behave like the engine's own
   proofs. *)

(* PIs x, y; latches p1, p2 fed by x and r1, r2, r3 fed by y; gates
   g1 = x & p1, g2 = x & p2, h = x & ~p1.  Three classes: A = {p1, p2},
   B = {r1, r2, r3} (no node of x's cones) and C = {g1, g2, h} (each
   member depends on a member of A). *)
let mk () =
  let t = Aig.create () in
  let x = Aig.add_pi t and y = Aig.add_pi t in
  let latch next =
    let q = Aig.add_latch t ~init:false in
    Aig.set_latch_next t q ~next;
    q
  in
  let p1 = latch x and p2 = latch x in
  let r1 = latch y and r2 = latch y and r3 = latch y in
  let g1 = Aig.mk_and t x p1 and g2 = Aig.mk_and t x p2 in
  let h = Aig.mk_and t x (Aig.lit_not p1) in
  Aig.add_po t "o" g1;
  let n = Aig.node_of_lit in
  let a = [ n p1; n p2 ] and b = [ n r1; n r2; n r3 ] and c = [ n g1; n g2; n h ] in
  let p =
    Scorr.Partition.create ~n_nodes:(Aig.num_nodes t) ~candidates:(a @ b @ c)
      ~pol:(Array.make (Aig.num_nodes t) false)
  in
  ignore
    (Scorr.Partition.refine_by_key p (fun id ->
         if List.mem id a then 0 else if List.mem id b then 1 else 2));
  (t, p, Scorr.Partition.class_of p (n p1), n r3, n h, n g2)

(* Split [node] out of its class. *)
let split_off p node =
  let cls = Scorr.Partition.class_of p node in
  ignore (Scorr.Partition.refine_class p cls ~equal:(fun a b -> (a = node) = (b = node)))

let selected sweep p ~trust cls =
  Array.mem cls (Scorr.Sweep.select sweep p ~trust Option.some)

let check_protocol name prove =
  let t, p, a, r3, h, g2 = mk () in
  let sweep = Scorr.Sweep.create t in
  let check what expected ~trust =
    Alcotest.(check bool) (name ^ ": " ^ what) expected (selected sweep p ~trust a)
  in
  check "an unproved class is selected" true ~trust:true;
  prove sweep p a;
  check "proved at the current version: skipped when trusting" false ~trust:true;
  check "proved at the current version: skipped when strict" false ~trust:false;
  split_off p r3;
  check "split outside the cone: skipped when trusting" false ~trust:true;
  check "split outside the cone: re-examined when strict" true ~trust:false;
  split_off p h;
  check "split inside the cone: re-examined when trusting" true ~trust:true;
  (* a fresh proof at the new version holds until the next split inside *)
  prove sweep p a;
  check "proved again: skipped" false ~trust:true;
  split_off p g2;
  check "second split inside the cone: re-examined" true ~trust:true;
  (* every skip above counts one cache hit; B and C, never proved, are
     never skipped *)
  Alcotest.(check int)
    (name ^ ": cache hits")
    4
    (Scorr.Sweep.harvest sweep).Scorr.Counters.cache_hits

let test_engine_proofs () =
  check_protocol "proved" (fun sweep p cls ->
      Scorr.Sweep.proved sweep cls ~version:(Scorr.Partition.version p))

let test_marked_proofs () =
  check_protocol "mark_proved" (fun sweep p cls -> Scorr.Sweep.mark_proved sweep p [ cls ])

let suite =
  [ Alcotest.test_case "engine proofs follow the protocol" `Quick test_engine_proofs;
    Alcotest.test_case "marked proofs follow the protocol" `Quick test_marked_proofs ]

let () = Alcotest.run "sweep" [ ("sweep", suite) ]
