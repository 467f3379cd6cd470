(* Tests of the trust layer (lib/cert): witness and certificate format
   round-trips, replay of refutation traces on injected faults, shape
   diagnostics, and independent certificate checking — including
   handcrafted bogus certificates that must fail the base-case and
   induction conditions. *)

(* --- witness format round-trip ------------------------------------------------ *)

let gen_witness =
  QCheck.Gen.(
    int_range 0 4 >>= fun pis ->
    int_range 1 5 >>= fun frames ->
    int_range 0 (frames - 1) >>= fun failing ->
    opt (oneofl [ "o"; "carry"; "outputs_agree" ]) >>= fun output ->
    array_repeat frames (array_repeat pis bool) >>= fun inputs ->
    return { Cert.Witness.frame = failing; inputs; output })

let arb_witness = QCheck.make ~print:Cert.Witness.to_string gen_witness

let prop_witness_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"witness print/parse round-trips" ~count:200 arb_witness
       (fun w -> Cert.Witness.parse_string (Cert.Witness.to_string w) = w))

(* --- certificate format round-trip -------------------------------------------- *)

let gen_cert =
  QCheck.Gen.(
    int_range 0 1_000_000 >>= fun salt ->
    oneofl [ "bdd"; "sat" ] >>= fun engine ->
    oneofl [ "all"; "registers" ] >>= fun candidates ->
    int_range 1 4 >>= fun induction ->
    int_range 0 3 >>= fun retime_rounds ->
    opt (int_range 0 99) >>= fun prereduce ->
    int_range 1 500 >>= fun product_nodes ->
    (* every literal inside the product: the reader rejects any other *)
    list_size (int_range 0 5) (list_size (int_range 0 4) (int_range 0 (2 * product_nodes - 1)))
    >>= fun classes ->
    (* half the certificates carry a DRAT proof section, so the format
       round-trip covers segments, deletions and the empty clause *)
    let gen_lit = map (fun n -> if n = 0 then 1 else n) (int_range (-50) 50) in
    let gen_step =
      oneof
        [
          map (fun ls -> Sat.Dimacs.Add ls) (list_size (int_range 0 4) gen_lit);
          map (fun ls -> Sat.Dimacs.Delete ls) (list_size (int_range 1 4) gen_lit);
        ]
    in
    opt (list_size (int_range 0 3) (list_size (int_range 0 5) gen_step)) >>= fun proof ->
    return
      {
        Cert.Certificate.relation =
          {
            Scorr.Relation.spec_digest = Digest.to_hex (Digest.string (string_of_int salt));
            impl_digest = Digest.to_hex (Digest.string (string_of_int (salt + 1)));
            engine;
            candidates;
            induction;
            retime_rounds;
            product_nodes;
            classes;
          };
        prereduce;
        proof;
      })

let arb_cert = QCheck.make ~print:Cert.Certificate.to_string gen_cert

let prop_cert_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"certificate print/parse round-trips" ~count:200 arb_cert
       (fun c -> Cert.Certificate.parse_string (Cert.Certificate.to_string c) = c))

let test_witness_parse_rejects () =
  let rejects what text =
    match Cert.Witness.parse_string text with
    | exception Cert.Witness.Parse_error _ -> ()
    | _ -> Alcotest.fail ("parser accepted " ^ what)
  in
  rejects "an empty witness" "";
  rejects "a bad version" "seqver-witness 2\npis 1\nframes 1\nfailing-frame 0\nframe 0 1\nend\n";
  rejects "an out-of-range failing frame"
    "seqver-witness 1\npis 1\nframes 1\nfailing-frame 3\nframe 0 1\nend\n";
  rejects "a width mismatch"
    "seqver-witness 1\npis 2\nframes 1\nfailing-frame 0\nframe 0 1\nend\n";
  rejects "a bad bit" "seqver-witness 1\npis 1\nframes 1\nfailing-frame 0\nframe 0 x\nend\n";
  rejects "a missing end marker" "seqver-witness 1\npis 1\nframes 1\nfailing-frame 0\nframe 0 1\n"

(* A declared frame count the text cannot hold is a parse error, found
   before anything is allocated for it. *)
let test_witness_parse_bounds_frames () =
  let header frames =
    Printf.sprintf "seqver-witness 1\npis 1\nframes %s\nfailing-frame 0\nframe 0 1\nend\n"
      frames
  in
  List.iter
    (fun frames ->
      let before = Gc.allocated_bytes () in
      (match Cert.Witness.parse_string (header frames) with
      | exception Cert.Witness.Parse_error _ -> ()
      | _ -> Alcotest.fail ("parser accepted frames " ^ frames));
      Alcotest.(check bool)
        ("frames " ^ frames ^ " allocates little") true
        (Gc.allocated_bytes () -. before < 1e6))
    [ "1000000"; "4611686018427387903" ]

(* --- replay diagnostics --------------------------------------------------------- *)

(* a 1-PI buffer: out = x *)
let buffer () =
  let a = Aig.create () in
  let x = Aig.add_pi a in
  Aig.add_po a "o" x;
  a

let test_width_mismatch_diagnosed () =
  let a = buffer () in
  let w = Cert.Witness.make [| [| true; false |] |] in
  (match Cert.Witness.check_shape ~subject:"circuit" a w with
  | Error (Cert.Witness.Width_mismatch { expected = 1; got = 2; frame = 0; _ }) -> ()
  | Error e -> Alcotest.fail ("wrong diagnostic: " ^ Cert.Witness.explain_error e)
  | Ok () -> Alcotest.fail "accepted a too-wide witness");
  match Cert.Witness.replay ~spec:a ~impl:a w with
  | Error (Cert.Witness.Width_mismatch _) -> ()
  | _ -> Alcotest.fail "replay must reject the width mismatch"

let test_frame_out_of_range_diagnosed () =
  let a = buffer () in
  let w = { Cert.Witness.frame = 5; inputs = [| [| true |] |]; output = None } in
  match Cert.Witness.check_shape ~subject:"circuit" a w with
  | Error (Cert.Witness.Frame_out_of_range { failing_frame = 5; frames = 1 }) -> ()
  | _ -> Alcotest.fail "expected Frame_out_of_range"

let test_clean_replay_is_no_failure () =
  let a = buffer () in
  let w = Cert.Witness.make [| [| true |]; [| false |] |] in
  match Cert.Witness.replay ~spec:a ~impl:a w with
  | Error Cert.Witness.No_failure -> ()
  | _ -> Alcotest.fail "identical circuits cannot be refuted"

(* --- replay of injected faults --------------------------------------------------- *)

let prop_mutant_witness_replays =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"mutant refutation witnesses replay and shrink" ~count:25
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let c = Test_util.random_circuit ~n_inputs:3 ~n_latches:4 ~n_gates:18 seed in
         let spec, _ = Aig.of_netlist c in
         match Transform.Mutate.observable_mutant ~seed spec with
         | None -> QCheck.assume_fail ()
         | Some (mutant, _) -> (
           match Scorr.check spec mutant with
           | Scorr.Not_equivalent { trace = Some trace; _ } -> (
             let w = Cert.Witness.of_trace trace in
             match Cert.Witness.replay ~spec ~impl:mutant w with
             | Error _ -> false
             | Ok _ -> (
               let s = Cert.Witness.shrink ~spec ~impl:mutant w in
               match Cert.Witness.replay ~spec ~impl:mutant s with
               | Ok m ->
                 m.Cert.Witness.at_frame = s.Cert.Witness.frame
                 && Cert.Witness.n_frames s <= Cert.Witness.n_frames w
               | Error _ -> false))
           | Scorr.Not_equivalent { trace = None; _ } -> false (* must carry a witness *)
           | Scorr.Equivalent _ -> false
           | Scorr.Unknown _ -> true)))

(* Shrinking works on copies: the caller's witness keeps its frames,
   failing frame and output.  spec: o = x, impl: o = 0, both over (x, y);
   the difference shows at frame 1, and the y bits are free to drop. *)
let test_shrink_leaves_argument () =
  let circuit out =
    let a = Aig.create () in
    let x = Aig.add_pi a in
    ignore (Aig.add_pi a);
    Aig.add_po a "o" (out x);
    a
  in
  let spec = circuit Fun.id and impl = circuit (fun _ -> Aig.lit_false) in
  let w = Cert.Witness.make [| [| false; true |]; [| true; true |] |] in
  let before = Array.map Array.copy w.Cert.Witness.inputs in
  let s = Cert.Witness.shrink ~spec ~impl w in
  Alcotest.(check bool) "shrink dropped the free bits" true
    (s.Cert.Witness.inputs = [| [| false; false |]; [| true; false |] |]);
  Alcotest.(check bool) "argument inputs unchanged" true (w.Cert.Witness.inputs = before);
  Alcotest.(check int) "argument frame unchanged" 1 w.Cert.Witness.frame;
  Alcotest.(check (option string)) "argument output unchanged" None w.Cert.Witness.output

let test_bmc_witness_refutes () =
  let spec, _ = Aig.of_netlist (Circuits.Counter.modulo 5) in
  let mutant = Transform.Mutate.apply spec (Transform.Mutate.Flip_latch_init 1) in
  let product = (Scorr.Product.make spec mutant).Scorr.Product.aig in
  match Reach.Bmc.check ~max_depth:8 product with
  | Reach.Bmc.Counterexample cex ->
    let w = Cert.Witness.of_bmc cex in
    Alcotest.(check bool) "refutes the product property" true
      (Cert.Witness.refutes product w)
  | _ -> Alcotest.fail "expected a counterexample"

(* --- certificates: emission and independent checking ------------------------------ *)

let fig2_cert () =
  let spec, impl = Circuits.Fig2.pair () in
  let options = Scorr.default_options in
  let run = Scorr.Verify.run_with_relation ~options spec impl in
  match Cert.Certificate.of_run ~options ~spec ~impl run with
  | Ok cert -> (spec, impl, cert)
  | Error e -> Alcotest.fail (Cert.Certificate.explain_emit_error e)

let test_fig2_certificate_checks () =
  let spec, impl, cert = fig2_cert () in
  (* round-trip through the text format before checking *)
  let cert = Cert.Certificate.parse_string (Cert.Certificate.to_string cert) in
  Alcotest.(check bool) "has constraints" true (Scorr.Relation.n_constraints cert.Cert.Certificate.relation > 0);
  match Cert.Certificate.check ~spec ~impl cert with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Cert.Certificate.explain_check_error e)

let test_certificate_rejects_mutated_impl () =
  let spec, impl, cert = fig2_cert () in
  let mutant = Transform.Mutate.apply impl (Transform.Mutate.Flip_latch_init 0) in
  match Cert.Certificate.check ~spec ~impl:mutant cert with
  | Error (Cert.Certificate.Fingerprint_mismatch { subject = "implementation"; _ }) -> ()
  | Ok () -> Alcotest.fail "accepted a certificate for a mutated implementation"
  | Error e -> Alcotest.fail ("wrong rejection: " ^ Cert.Certificate.explain_check_error e)

let test_certificate_rejects_tampering () =
  let spec, impl, cert = fig2_cert () in
  let r = cert.Cert.Certificate.relation in
  (match
     Cert.Certificate.check ~spec ~impl
       { cert with
         Cert.Certificate.relation =
           { r with Scorr.Relation.product_nodes = r.Scorr.Relation.product_nodes + 1 } }
   with
  | Error (Cert.Certificate.Shape_mismatch _) -> ()
  | _ -> Alcotest.fail "expected Shape_mismatch");
  match
    Cert.Certificate.check ~spec ~impl
      { cert with
        Cert.Certificate.relation =
          { r with Scorr.Relation.classes = [ 1_000_000; 1_000_002 ] :: r.classes } }
  with
  | Error (Cert.Certificate.Bad_literal _) -> ()
  | _ -> Alcotest.fail "expected Bad_literal"

(* An induction depth past the bound is a header error, found before any
   frame is encoded: a depth of 4e8 once ran the checker out of memory. *)
let test_certificate_bounds_induction () =
  let spec, impl, cert = fig2_cert () in
  let proved =
    match Cert.Certificate.prove ~spec ~impl cert with
    | Ok c -> c
    | Error e -> Alcotest.fail (Cert.Certificate.explain_check_error e)
  in
  List.iter
    (fun (use_proof, induction) ->
      let before = Gc.allocated_bytes () in
      (match
         Cert.Certificate.check ~use_proof ~spec ~impl
           { proved with
             Cert.Certificate.relation =
               { proved.Cert.Certificate.relation with Scorr.Relation.induction } }
       with
      | Error (Cert.Certificate.Bad_header _) -> ()
      | Ok () -> Alcotest.failf "accepted induction %d" induction
      | Error e -> Alcotest.fail ("wrong rejection: " ^ Cert.Certificate.explain_check_error e));
      Alcotest.(check bool)
        (Printf.sprintf "induction %d allocates little" induction)
        true
        (Gc.allocated_bytes () -. before < 1e7))
    [ (false, Scorr.Verify.max_induction + 1); (false, 400_000_000); (true, 400_000_000) ]

let test_emit_refuses_dontcare_relations () =
  let spec, impl = Circuits.Fig2.pair () in
  let options = { Scorr.default_options with Scorr.Verify.use_reach_dontcare = true } in
  let run = Scorr.Verify.run_with_relation ~options spec impl in
  match Cert.Certificate.of_run ~options ~spec ~impl run with
  | Error (Cert.Certificate.Unsupported _) -> ()
  | Ok _ -> Alcotest.fail "emitted a certificate under reachability don't-cares"
  | Error e -> Alcotest.fail ("wrong error: " ^ Cert.Certificate.explain_emit_error e)

(* spec circuit with its latch literal exposed: q (init 0, next = x), o = q *)
let latch_follows_input () =
  let a = Aig.create () in
  let x = Aig.add_pi a in
  let q = Aig.add_latch a ~init:false in
  Aig.set_latch_next a q ~next:x;
  Aig.add_po a "o" q;
  (a, x, q)

let handcrafted_cert spec impl classes =
  let product = Scorr.Product.make spec impl in
  ( {
      Cert.Certificate.relation =
        {
          Scorr.Relation.spec_digest = Scorr.Relation.fingerprint spec;
          impl_digest = Scorr.Relation.fingerprint impl;
          engine = "bdd";
          candidates = "all";
          induction = 1;
          retime_rounds = 0;
          product_nodes = Aig.num_nodes product.Scorr.Product.aig;
          classes;
        };
      prereduce = None;
      proof = None;
    },
    product )

let test_bogus_equality_fails_base_case () =
  (* claim pi = latch: false at frame 0, where the latch is still 0 *)
  let spec, x, q = latch_follows_input () in
  let impl, _, _ = latch_follows_input () in
  let product = Scorr.Product.make spec impl in
  let x_p = product.Scorr.Product.spec.Scorr.Product.lit_in_product x in
  let q_p = product.Scorr.Product.spec.Scorr.Product.lit_in_product q in
  let cert, _ = handcrafted_cert spec impl [ List.sort compare [ x_p; q_p ] ] in
  match Cert.Certificate.check ~spec ~impl cert with
  | Error (Cert.Certificate.Not_initial { frame = 0; _ }) -> ()
  | Ok () -> Alcotest.fail "accepted a relation that fails at the initial state"
  | Error e -> Alcotest.fail ("wrong rejection: " ^ Cert.Certificate.explain_check_error e)

let test_bogus_equality_fails_induction () =
  (* claim latch = const0: true at frame 0 (init), destroyed by next = x *)
  let spec, _, q = latch_follows_input () in
  let impl, _, _ = latch_follows_input () in
  let product = Scorr.Product.make spec impl in
  let q_p = product.Scorr.Product.spec.Scorr.Product.lit_in_product q in
  let cert, _ = handcrafted_cert spec impl [ List.sort compare [ Aig.lit_false; q_p ] ] in
  match Cert.Certificate.check ~spec ~impl cert with
  | Error (Cert.Certificate.Not_inductive _) -> ()
  | Ok () -> Alcotest.fail "accepted a non-inductive relation"
  | Error e -> Alcotest.fail ("wrong rejection: " ^ Cert.Certificate.explain_check_error e)

(* --- trace-backed (DRAT) certificates ---------------------------------------------- *)

let fig2_proved_cert () =
  let spec, impl, cert = fig2_cert () in
  match Cert.Certificate.prove ~spec ~impl cert with
  | Error e -> Alcotest.fail (Cert.Certificate.explain_check_error e)
  | Ok proved -> (spec, impl, proved)

let test_proof_roundtrip_and_replay () =
  let spec, impl, proved = fig2_proved_cert () in
  (match proved.Cert.Certificate.proof with
  | Some (_ :: _) -> ()
  | Some [] | None -> Alcotest.fail "prove produced no trace segments");
  (* the replay must survive the text format *)
  let proved = Cert.Certificate.parse_string (Cert.Certificate.to_string proved) in
  match Cert.Certificate.check ~use_proof:true ~spec ~impl proved with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Cert.Certificate.explain_check_error e)

(* Printing a parsed certificate gives back its text byte for byte, so
   certificates already on disk keep their meaning. *)
let test_text_is_stable () =
  let stable what text =
    Alcotest.(check string) what text
      (Cert.Certificate.to_string (Cert.Certificate.parse_string text))
  in
  stable "committed fixture"
    (In_channel.with_open_bin "cram/fixtures/ctr8-prereduced.cert" In_channel.input_all);
  let _, _, proved = fig2_proved_cert () in
  stable "proved certificate" (Cert.Certificate.to_string proved)

let test_proof_missing_is_rejected () =
  let spec, impl, cert = fig2_cert () in
  match Cert.Certificate.check ~use_proof:true ~spec ~impl cert with
  | Error Cert.Certificate.Proof_missing -> ()
  | Ok () -> Alcotest.fail "proof mode accepted a certificate without a trace"
  | Error e -> Alcotest.fail ("wrong rejection: " ^ Cert.Certificate.explain_check_error e)

let test_mutated_proof_is_rejected () =
  let spec, impl, proved = fig2_proved_cert () in
  let segments =
    match proved.Cert.Certificate.proof with
    | Some segs -> segs
    | None -> Alcotest.fail "no proof"
  in
  let rejects what cert =
    match Cert.Certificate.check ~use_proof:true ~spec ~impl cert with
    | Error _ -> ()
    | Ok () -> Alcotest.fail ("proof mode accepted " ^ what)
  in
  (* a non-RUP addition smuggled into the first segment *)
  let bogus =
    match segments with
    | seg :: rest -> (Sat.Dimacs.Add [ 999_999 ] :: seg) :: rest
    | [] -> Alcotest.fail "no segments"
  in
  rejects "a non-RUP clause addition"
    { proved with Cert.Certificate.proof = Some bogus };
  (* a truncated trace: the last obligation has no segment left *)
  let truncated = List.filteri (fun i _ -> i < List.length segments - 1) segments in
  rejects "a truncated trace" { proved with Cert.Certificate.proof = Some truncated };
  (* emptied segments: refutations replay to nothing, obligations fail *)
  let emptied = List.map (fun _ -> []) segments in
  rejects "an emptied trace" { proved with Cert.Certificate.proof = Some emptied }

let test_sat_k2_proof_replays () =
  let spec, impl = Circuits.Fig2.pair () in
  let options =
    { Scorr.default_options with Scorr.Verify.engine = Scorr.Verify.Sat_engine; sat_unroll = 2 }
  in
  let run = Scorr.Verify.run_with_relation ~options spec impl in
  match Cert.Certificate.of_run ~options ~spec ~impl run with
  | Error e -> Alcotest.fail (Cert.Certificate.explain_emit_error e)
  | Ok cert -> (
    match Cert.Certificate.prove ~spec ~impl cert with
    | Error e -> Alcotest.fail (Cert.Certificate.explain_check_error e)
    | Ok proved -> (
      match Cert.Certificate.check ~use_proof:true ~spec ~impl proved with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Cert.Certificate.explain_check_error e)))

let test_sat_engine_k2_certificate () =
  let spec, impl = Circuits.Fig2.pair () in
  let options =
    { Scorr.default_options with Scorr.Verify.engine = Scorr.Verify.Sat_engine; sat_unroll = 2 }
  in
  let run = Scorr.Verify.run_with_relation ~options spec impl in
  match Cert.Certificate.of_run ~options ~spec ~impl run with
  | Error e -> Alcotest.fail (Cert.Certificate.explain_emit_error e)
  | Ok cert -> (
    Alcotest.(check int) "records k" 2 cert.Cert.Certificate.relation.Scorr.Relation.induction;
    match Cert.Certificate.check ~spec ~impl cert with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Cert.Certificate.explain_check_error e))

(* A depth below 1 runs the SAT engine at depth 1, and the certificate
   records the depth that ran: it once recorded 0, which the checker
   rejects. *)
let test_sat_engine_k0_certificate () =
  let spec, impl = Circuits.Fig2.pair () in
  let options =
    { Scorr.default_options with Scorr.Verify.engine = Scorr.Verify.Sat_engine; sat_unroll = 0 }
  in
  let run = Scorr.Verify.run_with_relation ~options spec impl in
  match Cert.Certificate.of_run ~options ~spec ~impl run with
  | Error e -> Alcotest.fail (Cert.Certificate.explain_emit_error e)
  | Ok cert -> (
    Alcotest.(check int) "records k" 1 cert.Cert.Certificate.relation.Scorr.Relation.induction;
    match Cert.Certificate.check ~spec ~impl cert with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Cert.Certificate.explain_check_error e))

let test_retimed_certificate_checks () =
  (* a pair that needs retiming augmentation: the certificate must record
     the rounds and the checker must replay them *)
  let spec, _ = Aig.of_netlist (Circuits.Counter.binary 8) in
  let impl =
    Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_only ~seed:7 spec
  in
  let options = Scorr.default_options in
  let run = Scorr.Verify.run_with_relation ~options spec impl in
  match Cert.Certificate.of_run ~options ~spec ~impl run with
  | Error e -> Alcotest.fail (Cert.Certificate.explain_emit_error e)
  | Ok cert -> (
    match Cert.Certificate.check ~spec ~impl cert with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Cert.Certificate.explain_check_error e))

let suite =
  [
    Alcotest.test_case "witness parser rejects malformed input" `Quick
      test_witness_parse_rejects;
    Alcotest.test_case "witness parser bounds the declared frames" `Quick
      test_witness_parse_bounds_frames;
    Alcotest.test_case "width mismatch is diagnosed" `Quick test_width_mismatch_diagnosed;
    Alcotest.test_case "failing frame out of range is diagnosed" `Quick
      test_frame_out_of_range_diagnosed;
    Alcotest.test_case "clean replay reports No_failure" `Quick
      test_clean_replay_is_no_failure;
    Alcotest.test_case "bmc witness refutes the product" `Quick test_bmc_witness_refutes;
    Alcotest.test_case "shrink leaves its argument unchanged" `Quick
      test_shrink_leaves_argument;
    Alcotest.test_case "fig2 certificate emits and checks" `Quick
      test_fig2_certificate_checks;
    Alcotest.test_case "certificate rejects a mutated implementation" `Quick
      test_certificate_rejects_mutated_impl;
    Alcotest.test_case "certificate rejects tampering" `Quick
      test_certificate_rejects_tampering;
    Alcotest.test_case "certificate bounds the induction depth" `Quick
      test_certificate_bounds_induction;
    Alcotest.test_case "emission refuses don't-care relations" `Quick
      test_emit_refuses_dontcare_relations;
    Alcotest.test_case "bogus equality fails the base case" `Quick
      test_bogus_equality_fails_base_case;
    Alcotest.test_case "bogus equality fails induction" `Quick
      test_bogus_equality_fails_induction;
    Alcotest.test_case "sat-engine k=2 certificate checks" `Quick
      test_sat_engine_k2_certificate;
    Alcotest.test_case "proved certificate round-trips and replays" `Quick
      test_proof_roundtrip_and_replay;
    Alcotest.test_case "text survives parse and print" `Quick test_text_is_stable;
    Alcotest.test_case "sat-engine k=0 certificate checks at depth 1" `Quick
      test_sat_engine_k0_certificate;
    Alcotest.test_case "proof mode rejects a missing trace" `Quick
      test_proof_missing_is_rejected;
    Alcotest.test_case "proof mode rejects mutated traces" `Quick
      test_mutated_proof_is_rejected;
    Alcotest.test_case "sat-engine k=2 proof replays" `Quick test_sat_k2_proof_replays;
    Alcotest.test_case "retimed pair certificate checks" `Quick
      test_retimed_certificate_checks;
    prop_witness_roundtrip;
    prop_cert_roundtrip;
    prop_mutant_witness_replays;
  ]

let () = Alcotest.run "cert" [ ("cert", suite) ]
