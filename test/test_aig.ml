(* AIG tests: structural-hashing invariants, netlist conversion agreement,
   AIGER roundtrips, Tseitin encoding consistency, cleanup. *)

let test_strash_folding () =
  let t = Aig.create () in
  let a = Aig.add_pi t and b = Aig.add_pi t in
  Alcotest.(check int) "a&a = a" a (Aig.mk_and t a a);
  Alcotest.(check int) "a&!a = 0" Aig.lit_false (Aig.mk_and t a (Aig.lit_not a));
  Alcotest.(check int) "a&1 = a" a (Aig.mk_and t a Aig.lit_true);
  Alcotest.(check int) "a&0 = 0" Aig.lit_false (Aig.mk_and t a Aig.lit_false);
  let ab1 = Aig.mk_and t a b and ab2 = Aig.mk_and t b a in
  Alcotest.(check int) "strash commutes" ab1 ab2;
  Alcotest.(check bool) "xor of equal is 0" true (Aig.mk_xor t a a = Aig.lit_false)

let test_no_duplicate_ands () =
  let t = Aig.create () in
  let a = Aig.add_pi t and b = Aig.add_pi t and c = Aig.add_pi t in
  let _ = Aig.mk_and t (Aig.mk_and t a b) c in
  let _ = Aig.mk_and t c (Aig.mk_and t b a) in
  (* check global invariant: all And nodes have distinct fanin pairs *)
  let seen = Hashtbl.create 16 in
  let dup = ref false in
  for id = 0 to Aig.num_nodes t - 1 do
    match Aig.node t id with
    | Aig.And (x, y) ->
      if Hashtbl.mem seen (x, y) then dup := true;
      Hashtbl.replace seen (x, y) ();
      if x > y then dup := true
    | Aig.Const | Aig.Pi _ | Aig.Latch _ -> ()
  done;
  Alcotest.(check bool) "no duplicates, fanins ordered" false !dup

let netlist_vs_aig seed =
  let c = Test_util.random_circuit seed in
  let a, lit_of = Aig.of_netlist c in
  QCheck.assume (Aig.validate a = Ok ());
  ignore lit_of;
  Test_util.seq_differ c (c) = None
  (* trivially true; the real comparison is below via output words *)
  &&
  let n_inputs = List.length (Netlist.inputs c) in
  let stimuli = Netlist.Sim.random_stimuli ~seed:(seed + 1) ~n_inputs ~n_frames:24 in
  let net_out = Netlist.Sim.run c stimuli in
  let aig_out, _ = Aig.Sim.run a stimuli in
  List.for_all2
    (fun f1 f2 -> List.sort compare f1 = List.sort compare f2)
    net_out aig_out

let prop_netlist_conversion =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"netlist->aig preserves behaviour" ~count:80
       QCheck.(int_range 0 100_000)
       netlist_vs_aig)

let prop_aiger_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"aiger roundtrip preserves behaviour" ~count:60
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let c = Test_util.random_circuit seed in
         let a, _ = Aig.of_netlist c in
         let a2 = Aig.Aiger.parse_string (Aig.Aiger.to_string a) in
         Aig.validate a2 = Ok () && Test_util.aig_seq_differ a a2 = None))

let prop_binary_aiger_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"binary aiger roundtrip preserves behaviour" ~count:60
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let c = Test_util.random_circuit seed in
         let a, _ = Aig.of_netlist c in
         let a2 = Aig.Aiger.parse_binary_string (Aig.Aiger.to_binary_string a) in
         Aig.validate a2 = Ok () && Test_util.aig_seq_differ a a2 = None))

let prop_binary_smaller_than_ascii =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"binary aiger is more compact" ~count:20
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let c = Test_util.random_circuit ~n_gates:60 seed in
         let a, _ = Aig.of_netlist c in
         QCheck.assume (Aig.num_ands a > 10);
         String.length (Aig.Aiger.to_binary_string a)
         < String.length (Aig.Aiger.to_string a)))

let test_parse_errors () =
  let expect_error name f =
    match f () with
    | exception Aig.Aiger.Parse_error _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected Parse_error")
  in
  expect_error "empty" (fun () -> Aig.Aiger.parse_string "");
  expect_error "bad header" (fun () -> Aig.Aiger.parse_string "aag x\n");
  expect_error "truncated" (fun () -> Aig.Aiger.parse_string "aag 2 1 0 1 1\n2\n");
  expect_error "undefined literal" (fun () -> Aig.Aiger.parse_string "aag 1 0 0 1 0\n4\n");
  expect_error "binary bad header" (fun () -> Aig.Aiger.parse_binary_string "aig 3 1 0 1 1\n")

(* Hostile headers and literals: a [Parse_error], found before anything
   is allocated for the declared sizes. *)
let test_parse_bounded () =
  let bounded name parse text =
    let before = Gc.allocated_bytes () in
    (match parse text with
    | exception Aig.Aiger.Parse_error _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected Parse_error"));
    Alcotest.(check bool) (name ^ " allocates little") true (Gc.allocated_bytes () -. before < 1e6)
  in
  let ascii = Aig.Aiger.parse_string and binary = Aig.Aiger.parse_binary_string in
  bounded "aag huge M" ascii "aag 400000000 1 0 0 0\n";
  bounded "aag max_int M" ascii "aag 4611686018427387903 1 0 0 0\n";
  bounded "aag huge I" ascii "aag 400000000 400000000 0 0 0\n2\n";
  bounded "aag non-numeric field" ascii "aag 1 x 0 0 0\n2\n";
  bounded "aag negative field" ascii "aag 1 -1 0 0 0\n2\n";
  bounded "aag definition above 2M+1" ascii "aag 1 1 0 0 0\n4\n";
  bounded "aag output above 2M+1" ascii "aag 1 1 0 1 0\n2\n6\n";
  bounded "aag non-numeric literal" ascii "aag 1 1 0 1 0\n2\nx\n";
  bounded "aag bad symbol index" ascii "aag 1 1 0 1 0\n2\n2\nox name\n";
  bounded "aig huge M" binary "aig 400000000 400000000 0 0 0\n";
  bounded "aig max_int M" binary "aig 4611686018427387903 4611686018427387903 0 0 0\n";
  bounded "aig huge A" binary "aig 400000000 0 0 0 400000000\n";
  bounded "aig non-numeric field" binary "aig 1 1 0 0 y\n";
  bounded "aig output above 2M+1" binary "aig 1 1 0 1 0\n6\n";
  bounded "aig non-numeric literal" binary "aig 1 1 0 1 0\nx\n"

let prop_cleanup_preserves =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"cleanup preserves behaviour" ~count:60
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let c = Test_util.random_circuit ~n_gates:40 seed in
         let a, _ = Aig.of_netlist c in
         let a2, _ = Aig.cleanup a in
         Aig.num_nodes a2 <= Aig.num_nodes a && Test_util.aig_seq_differ a a2 = None))

(* Tseitin encoding: a random assignment of PIs/latches propagated by the
   SAT solver must match simulation. *)
let prop_cnf_agrees_with_sim =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"tseitin agrees with simulation" ~count:60
       QCheck.(pair (int_range 0 100_000) (int_range 0 1_000))
       (fun (seed, bits) ->
         let c = Test_util.random_circuit seed in
         let a, _ = Aig.of_netlist c in
         let solver = Sat.create () in
         let pi_vars, latch_vars, lit_of = Aig.Cnf.encode_fresh solver a in
         let n_pis = Aig.num_pis a and n_latches = Aig.num_latches a in
         let pi_val i = bits land (1 lsl i) <> 0 in
         let latch_val i = bits land (1 lsl (i + n_pis)) <> 0 in
         (* force the inputs *)
         for i = 0 to n_pis - 1 do
           Sat.add_clause solver [ Sat.Lit.make pi_vars.(i) (pi_val i) ]
         done;
         for i = 0 to n_latches - 1 do
           Sat.add_clause solver [ Sat.Lit.make latch_vars.(i) (latch_val i) ]
         done;
         match Sat.solve solver with
         | Sat.Unsat -> false
         | Sat.Sat ->
           let pi_words = Array.init n_pis (fun i -> if pi_val i then -1L else 0L) in
           let latch_words =
             Array.init n_latches (fun i -> if latch_val i then -1L else 0L)
           in
           let values = Aig.Sim.eval_comb a ~pi_words ~latch_words in
           List.for_all
             (fun (_, l) ->
               let sim = Int64.logand 1L (Aig.Sim.lit_word values l) = 1L in
               let sat_lit = lit_of l in
               let sat_val = Sat.value solver (Sat.Lit.var sat_lit) in
               let sat = if Sat.Lit.sign sat_lit then sat_val else not sat_val in
               sim = sat)
             (Aig.pos a)))

let test_copy_into () =
  (* build a & b in one AIG, copy into another with remapped inputs *)
  let src = Aig.create () in
  let a = Aig.add_pi src and b = Aig.add_pi src in
  let f = Aig.mk_and src a (Aig.lit_not b) in
  let dst = Aig.create () in
  let x = Aig.add_pi dst and y = Aig.add_pi dst in
  let tr =
    Aig.copy_into dst ~src ~pi_lit:(fun i -> if i = 0 then y else x) ~latch_lit:(fun _ -> assert false)
  in
  let g = tr f in
  (* g should equal y & !x in dst *)
  let expect = Aig.mk_and dst y (Aig.lit_not x) in
  Alcotest.(check int) "copied structure" expect g

let test_latch_roundtrip_aiger () =
  let t = Aig.create () in
  let x = Aig.add_pi t in
  let q = Aig.add_latch t ~init:true in
  Aig.set_latch_next t q ~next:(Aig.mk_xor t q x);
  Aig.add_po t "out" q;
  let t2 = Aig.Aiger.parse_string (Aig.Aiger.to_string t) in
  Alcotest.(check int) "latches" 1 (Aig.num_latches t2);
  Alcotest.(check bool) "init" true (Aig.latch_init t2 0);
  Alcotest.(check (option int)) "behaviour" None (Test_util.aig_seq_differ t t2)

let test_random_frames_all_lanes_toggle () =
  (* Regression for the bit-63 bias: [Random.State.int64 max_int] never sets
     bit 63, so simulation lane 63 stayed constant-0 and one of the 64
     parallel patterns was wasted.  With enough frames every one of the 64
     lanes of every PI word must take both values. *)
  let n_pis = 4 and n_frames = 64 in
  List.iter
    (fun seed ->
      let frames = Aig.Sim.random_frames ~seed ~n_pis ~n_frames in
      Alcotest.(check int) "frame count" n_frames (List.length frames);
      for pi = 0 to n_pis - 1 do
        let ones = ref 0L and zeros = ref (-1L) in
        List.iter
          (fun words ->
            ones := Int64.logor !ones words.(pi);
            zeros := Int64.logand !zeros words.(pi))
          frames;
        Alcotest.(check int64)
          (Printf.sprintf "seed %d pi %d: every lane hits 1" seed pi)
          (-1L) !ones;
        Alcotest.(check int64)
          (Printf.sprintf "seed %d pi %d: every lane hits 0" seed pi)
          0L !zeros
      done)
    [ 0; 1; 42 ]

let suite =
  [ Alcotest.test_case "strash folding" `Quick test_strash_folding;
    Alcotest.test_case "random frames toggle all 64 lanes" `Quick
      test_random_frames_all_lanes_toggle;
    Alcotest.test_case "no duplicate ands" `Quick test_no_duplicate_ands;
    Alcotest.test_case "copy_into" `Quick test_copy_into;
    Alcotest.test_case "aiger latch roundtrip" `Quick test_latch_roundtrip_aiger;
    Alcotest.test_case "aiger parse errors" `Quick test_parse_errors;
    Alcotest.test_case "aiger readers are bounded" `Quick test_parse_bounded;
    prop_netlist_conversion;
    prop_aiger_roundtrip;
    prop_binary_aiger_roundtrip;
    prop_binary_smaller_than_ascii;
    prop_cleanup_preserves;
    prop_cnf_agrees_with_sim;
  ]

let () = Alcotest.run "aig" [ ("aig", suite) ]
