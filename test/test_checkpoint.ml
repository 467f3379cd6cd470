(* Tests of fixed-point checkpoints: format round-trips, malformed-input
   rejection, resume validation, and the central soundness property —
   interrupting the refinement and resuming from the checkpoint reaches
   exactly the same verdict and final partition as an uninterrupted run
   (the greatest fixed point is unique, and every checkpointed partition
   sits between the initial partition and the fixed point). *)

let aig_pair ?(n_inputs = 3) ?(n_latches = 5) ?(n_gates = 25) seed =
  let c = Test_util.random_circuit ~n_inputs ~n_latches ~n_gates seed in
  let spec, _ = Aig.of_netlist c in
  let impl = Transform.Opt.rewrite ~seed spec in
  (spec, impl)

let suite_pair () =
  let spec = Circuits.Suite.aig_of (Option.get (Circuits.Suite.find "ctr16")) in
  let impl =
    Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed:5 spec
  in
  (spec, impl)

let temp_path () = Filename.temp_file "seqver-ckpt" ".txt"

(* A checkpoint with real content: interrupt the SAT engine on the ctr16
   pair after a couple of refinement iterations. *)
let interrupted_checkpoint () =
  let spec, impl = suite_pair () in
  let options =
    {
      Scorr.default_options with
      Scorr.Verify.engine = Scorr.Verify.Sat_engine;
      max_iterations = 2;
      use_retime = false;
    }
  in
  let ((verdict, _, _) as run) = Scorr.Verify.run_with_relation ~options spec impl in
  (match verdict with
  | Scorr.Unknown s ->
    Alcotest.(check (option string))
      "exhausted reason" (Some "iterations") s.Scorr.Verify.exhausted
  | _ -> Alcotest.fail "expected an iteration-budget Unknown");
  match Scorr.Verify.checkpoint_of_run ~options ~spec ~impl run with
  | Ok cp -> (spec, impl, options, cp)
  | Error msg -> Alcotest.fail ("no checkpoint from the aborted run: " ^ msg)

(* --- serialization ---------------------------------------------------------- *)

let test_round_trip () =
  let _, _, _, cp = interrupted_checkpoint () in
  Alcotest.(check bool) "has classes" true (Scorr.Relation.n_classes cp.Scorr.Checkpoint.relation > 0);
  let cp' = Scorr.Checkpoint.parse_string (Scorr.Checkpoint.to_string cp) in
  Alcotest.(check string) "spec digest" cp.Scorr.Checkpoint.relation.Scorr.Relation.spec_digest
    cp'.Scorr.Checkpoint.relation.Scorr.Relation.spec_digest;
  Alcotest.(check string) "impl digest" cp.Scorr.Checkpoint.relation.Scorr.Relation.impl_digest
    cp'.Scorr.Checkpoint.relation.Scorr.Relation.impl_digest;
  Alcotest.(check int) "induction" cp.Scorr.Checkpoint.relation.Scorr.Relation.induction
    cp'.Scorr.Checkpoint.relation.Scorr.Relation.induction;
  Alcotest.(check int) "seed" cp.Scorr.Checkpoint.seed cp'.Scorr.Checkpoint.seed;
  Alcotest.(check int) "iterations" cp.Scorr.Checkpoint.iterations
    cp'.Scorr.Checkpoint.iterations;
  Alcotest.(check int) "product nodes" cp.Scorr.Checkpoint.relation.Scorr.Relation.product_nodes
    cp'.Scorr.Checkpoint.relation.Scorr.Relation.product_nodes;
  Alcotest.(check (list (list int))) "classes" cp.Scorr.Checkpoint.relation.Scorr.Relation.classes
    cp'.Scorr.Checkpoint.relation.Scorr.Relation.classes;
  (* and through a file *)
  let path = temp_path () in
  Scorr.Checkpoint.to_file path cp;
  let cp'' = Scorr.Checkpoint.parse_file path in
  Sys.remove path;
  Alcotest.(check (list (list int))) "file classes" cp.Scorr.Checkpoint.relation.Scorr.Relation.classes
    cp''.Scorr.Checkpoint.relation.Scorr.Relation.classes

let test_pattern_round_trip () =
  (* hand-built checkpoint with pool patterns, including empty vectors *)
  let cp =
    {
      Scorr.Checkpoint.relation =
        {
          Scorr.Relation.spec_digest = String.make 32 'a';
          impl_digest = String.make 32 'b';
          engine = "sat";
          candidates = "all";
          induction = 2;
          retime_rounds = 1;
          product_nodes = 42;
          classes = [ [ 4; 6; 13 ]; [ 9; 10 ] ];
        };
      seed = 17;
      iterations = 3;
      patterns = [ ([| true; false; true |], [| false; true |]); ([||], [| true |]) ];
    }
  in
  let cp' = Scorr.Checkpoint.parse_string (Scorr.Checkpoint.to_string cp) in
  Alcotest.(check int) "patterns survive" 2 (Scorr.Checkpoint.n_patterns cp');
  Alcotest.(check bool) "pattern bits survive" true
    (cp.Scorr.Checkpoint.patterns = cp'.Scorr.Checkpoint.patterns)

let expect_parse_error text =
  match Scorr.Checkpoint.parse_string text with
  | exception Scorr.Relation.Parse_error _ -> ()
  | _ -> Alcotest.fail "malformed checkpoint accepted"

let test_rejects_malformed () =
  let _, _, _, cp = interrupted_checkpoint () in
  let text = Scorr.Checkpoint.to_string cp in
  (* truncation at any field boundary must raise, never return garbage *)
  expect_parse_error "";
  expect_parse_error "seqver-checkpoint 1\n";
  expect_parse_error (String.sub text 0 (String.length text / 2));
  (* a missing end marker *)
  expect_parse_error (String.concat "\n" List.(filter (fun l -> l <> "end")
    (String.split_on_char '\n' text)));
  (* a corrupt integer field and a wrong version *)
  expect_parse_error (Str.global_replace (Str.regexp "^iterations .*$") "iterations x" text);
  expect_parse_error
    (Str.global_replace (Str.regexp "^seqver-checkpoint 1") "seqver-checkpoint 9" text);
  (* a pattern with non-binary characters *)
  expect_parse_error
    (Str.global_replace (Str.regexp "^patterns 0") "patterns 1\npattern 01x2 1" text);
  (* a class literal outside the product, or negative: a typed rejection,
     not an escape from the resume path *)
  let first_literal = Str.regexp "^class [0-9]+" in
  expect_parse_error (Str.replace_first first_literal "class 99999999" text);
  expect_parse_error (Str.replace_first first_literal "class -7" text)

(* --- resume validation --------------------------------------------------------- *)

let test_validate_rejects_mismatches () =
  let spec, impl, _, cp = interrupted_checkpoint () in
  let ok ~candidates ~induction ~seed =
    Scorr.Checkpoint.validate ~spec ~impl ~candidates ~induction ~seed cp
  in
  ok ~candidates:"all" ~induction:1 ~seed:17;
  let refused f =
    match f () with
    | exception Scorr.Checkpoint.Incompatible _ -> ()
    | () -> Alcotest.fail "incompatible checkpoint accepted"
  in
  (* the checkpointed run had induction depth 1: a deeper run must refuse
     it (its splits are only sound at depth <= 1) *)
  refused (fun () -> ok ~candidates:"all" ~induction:2 ~seed:17);
  refused (fun () -> ok ~candidates:"registers" ~induction:1 ~seed:17);
  refused (fun () -> ok ~candidates:"all" ~induction:1 ~seed:18);
  (* swapped circuits: fingerprint mismatch *)
  refused (fun () ->
      Scorr.Checkpoint.validate ~spec:impl ~impl:spec ~candidates:"all" ~induction:1
        ~seed:17 cp)

let test_resume_refuses_mutant () =
  let spec, impl, options, cp = interrupted_checkpoint () in
  let path = temp_path () in
  Scorr.Checkpoint.to_file path cp;
  let cp = Scorr.Checkpoint.parse_file path in
  Sys.remove path;
  (* resuming against a different implementation must be refused before
     any engine work: the partition is meaningless on another circuit *)
  let mutant =
    match Transform.Mutate.observable_mutant ~seed:3 impl with
    | Some (m, _) -> m
    | None -> Alcotest.fail "no mutant"
  in
  let options = { options with Scorr.Verify.resume = Some cp; max_iterations = 0 } in
  (match Scorr.Verify.run_with_relation ~options spec mutant with
  | exception Scorr.Checkpoint.Incompatible _ -> ()
  | _ -> Alcotest.fail "mutated implementation accepted on resume");
  (* the genuine pair still resumes *)
  match Scorr.Verify.run_with_relation ~options spec impl with
  | Scorr.Equivalent _, _, _ -> ()
  | _ -> Alcotest.fail "expected Equivalent on resume"

(* More pending patterns than one 64-lane buffer holds (a checkpoint may
   carry any number) are replayed with a flush on the way.  Each one is
   the initial state, reachable, so the resumed run still proves the
   pair. *)
let test_resume_replays_many_patterns () =
  let spec, impl, options, cp = interrupted_checkpoint () in
  let aig = (Scorr.Product.make spec impl).Scorr.Product.aig in
  let initial =
    (Array.make (Aig.num_pis aig) false, Array.init (Aig.num_latches aig) (Aig.latch_init aig))
  in
  let cp = { cp with Scorr.Checkpoint.patterns = List.init 100 (fun _ -> initial) } in
  let options = { options with Scorr.Verify.resume = Some cp; max_iterations = 0 } in
  (match Scorr.Verify.run_with_relation ~options spec impl with
  | Scorr.Equivalent _, _, _ -> ()
  | _ -> Alcotest.fail "expected Equivalent on resume");
  (* Under speculation the first round's opening flush replays the lanes
     left over from a resume, and its screen runs on the partition that
     flush leaves: the run must reach a cold run's classes and eq%.  The
     checkpoint is taken after one round without simulation seeding, and
     the resumed run seeds none either, so states reached by random
     simulation still split its classes.  They are genuine witnesses: no
     reachable state separates two signals of the greatest fixed point.
     The 64 initial-state lanes fill one buffer, which the resume
     flushes; the 36 reached states are left to the opening flush. *)
  let options =
    { options with
      Scorr.Verify.use_speculation = true;
      use_sim_seed = false;
      max_iterations = 1;
      resume = None
    }
  in
  let cp =
    match Scorr.Verify.run_with_relation ~options spec impl with
    | (Scorr.Unknown _, _, _) as run -> (
      match Scorr.Verify.checkpoint_of_run ~options ~spec ~impl run with
      | Ok cp -> cp
      | Error msg -> Alcotest.fail ("no checkpoint from the aborted run: " ^ msg))
    | _ -> Alcotest.fail "expected an iteration-budget Unknown"
  in
  let reached =
    let frames = Aig.Sim.random_frames ~seed:99 ~n_pis:(Aig.num_pis aig) ~n_frames:36 in
    let bit w = Int64.logand w 1L = 1L in
    let latches = ref (Aig.Sim.initial_latch_words aig) in
    List.map
      (fun pis ->
        let state = !latches in
        latches := snd (Aig.Sim.step aig ~pi_words:pis ~latch_words:state);
        (Array.map bit pis, Array.map bit state))
      frames
  in
  let cp = { cp with Scorr.Checkpoint.patterns = List.init 64 (fun _ -> initial) @ reached } in
  let summary options =
    match Scorr.Verify.run_with_relation ~options spec impl with
    | Scorr.Equivalent s, _, _ -> (s.Scorr.Verify.classes, s.Scorr.Verify.eq_pct)
    | _ -> Alcotest.fail "expected Equivalent under speculation"
  in
  let options = { options with Scorr.Verify.max_iterations = 0 } in
  Alcotest.(check (pair int (float 0.0)))
    "speculative resume matches a cold run" (summary options)
    (summary { options with Scorr.Verify.resume = Some cp })

(* --- deadline aborts ------------------------------------------------------------ *)

let test_deadline_abort_checkpoints () =
  let spec, impl = suite_pair () in
  let path = temp_path () in
  let options =
    {
      Scorr.default_options with
      Scorr.Verify.engine = Scorr.Verify.Sat_engine;
      deadline_seconds = 1e-4;
      checkpoint_path = Some path;
    }
  in
  (match Scorr.check ~options spec impl with
  | Scorr.Unknown s ->
    Alcotest.(check (option string))
      "exhausted by the deadline" (Some "deadline") s.Scorr.Verify.exhausted;
    Alcotest.(check bool) "partial partition harvested" true (s.classes > 0)
  | _ -> Alcotest.fail "expected a deadline Unknown");
  (* the checkpoint written on abort is valid and resumes to completion *)
  let cp = Scorr.Checkpoint.parse_file path in
  Sys.remove path;
  let options =
    { options with Scorr.Verify.deadline_seconds = 0.0; checkpoint_path = None;
      resume = Some cp }
  in
  match Scorr.check ~options spec impl with
  | Scorr.Equivalent _ -> ()
  | _ -> Alcotest.fail "expected Equivalent after resume"

let test_periodic_checkpoint () =
  let spec, impl = suite_pair () in
  let path = temp_path () in
  let options =
    {
      Scorr.default_options with
      Scorr.Verify.engine = Scorr.Verify.Sat_engine;
      checkpoint_path = Some path;
      checkpoint_every = 1;
      use_retime = false;
    }
  in
  (match Scorr.check ~options spec impl with
  | Scorr.Equivalent _ -> ()
  | _ -> Alcotest.fail "expected Equivalent");
  (* the file holds the latest periodic snapshot, well-formed *)
  let cp = Scorr.Checkpoint.parse_file path in
  Sys.remove path;
  Alcotest.(check bool) "iterations recorded" true (cp.Scorr.Checkpoint.iterations > 0)

(* --- interrupt/resume equivalence (gfp uniqueness) ------------------------------ *)

let normalized_classes partition =
  List.sort compare
    (List.map
       (fun cls ->
         List.sort compare
           (List.map (Scorr.Partition.norm_lit partition)
              (Scorr.Partition.members partition cls)))
       (Scorr.Partition.multi_member_classes partition))

let verdict_label = function
  | Scorr.Equivalent _ -> "equivalent"
  | Scorr.Not_equivalent _ -> "not_equivalent"
  | Scorr.Unknown _ -> "unknown"

let prop_resume_reaches_same_fixed_point =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"interrupt + resume = uninterrupted (both engines, all jobs)"
       ~count:8
       QCheck.(pair (int_range 0 100_000) (int_range 1 4))
       (fun (seed, cut) ->
         let spec, impl = aig_pair seed in
         List.for_all
           (fun (engine, jobs) ->
             let base =
               { Scorr.default_options with Scorr.Verify.engine; jobs; preflight = false }
             in
             let full = Scorr.Verify.run_with_relation ~options:base spec impl in
             let interrupted =
               Scorr.Verify.run_with_relation
                 ~options:{ base with Scorr.Verify.max_iterations = cut }
                 spec impl
             in
             let resumed =
               match interrupted with
               | Scorr.Unknown { exhausted = Some "iterations"; _ }, _, _ -> (
                 match
                   Scorr.Verify.checkpoint_of_run ~options:base ~spec ~impl interrupted
                 with
                 | Error _ -> None
                 | Ok cp ->
                   Some
                     (Scorr.Verify.run_with_relation
                        ~options:{ base with Scorr.Verify.resume = Some cp }
                        spec impl))
               | _ -> None (* the run finished before the cut: nothing to resume *)
             in
             match resumed with
             | None -> true
             | Some resumed ->
               let (v1, _, p1) = full and (v2, _, p2) = resumed in
               verdict_label v1 = verdict_label v2
               && Float.abs
                    ((Scorr.verdict_stats v1).Scorr.Verify.eq_pct
                    -. (Scorr.verdict_stats v2).Scorr.Verify.eq_pct)
                  < 1e-9
               &&
               match (p1, p2) with
               | Some p1, Some p2 -> normalized_classes p1 = normalized_classes p2
               | None, None -> true
               | _ -> false)
           [
             (Scorr.Verify.Bdd_engine, 1);
             (Scorr.Verify.Sat_engine, 1);
             (Scorr.Verify.Sat_engine, 2);
             (Scorr.Verify.Sat_engine, 4);
           ]))

(* A pre-reduced run (analysis on) verifies the FRAIG-reduced pair, but
   the checkpoints it writes bind the circuits as given, like its
   certificates: the resumed run re-applies the same seeded reduction
   before it validates and replays the file, and reaches the
   uninterrupted run's fixed point. *)
let test_prereduced_resume () =
  let spec, impl = suite_pair () in
  let path = temp_path () in
  let options =
    {
      Scorr.default_options with
      Scorr.Verify.engine = Scorr.Verify.Sat_engine;
      sat_unroll = 2;
      use_analysis = true;
      use_speculation = true;
      jobs = 1;
    }
  in
  (match
     Scorr.Verify.run_with_relation
       ~options:{ options with Scorr.Verify.max_iterations = 2; checkpoint_path = Some path }
       spec impl
   with
  | Scorr.Unknown { exhausted = Some "iterations"; _ }, _, _ -> ()
  | _ -> Alcotest.fail "expected an iteration-budget Unknown");
  let cp = Scorr.Checkpoint.parse_file path in
  Sys.remove path;
  let r = cp.Scorr.Checkpoint.relation in
  Alcotest.(check string) "binds the specification as given" (Scorr.Relation.fingerprint spec)
    r.Scorr.Relation.spec_digest;
  Alcotest.(check string) "binds the implementation as given" (Scorr.Relation.fingerprint impl)
    r.Scorr.Relation.impl_digest;
  let v1, _, p1 = Scorr.Verify.run_with_relation ~options spec impl in
  let v2, _, p2 =
    Scorr.Verify.run_with_relation ~options:{ options with Scorr.Verify.resume = Some cp } spec
      impl
  in
  Alcotest.(check string) "verdict" "equivalent" (verdict_label v2);
  Alcotest.(check string) "same verdict" (verdict_label v1) (verdict_label v2);
  Alcotest.(check (float 1e-9)) "eq_pct" (Scorr.verdict_stats v1).Scorr.Verify.eq_pct
    (Scorr.verdict_stats v2).Scorr.Verify.eq_pct;
  Alcotest.(check bool) "same classes" true
    (Option.map normalized_classes p1 = Option.map normalized_classes p2)

(* --- resuming from a certificate ------------------------------------------------ *)

let retimed_pair name =
  let spec = Circuits.Suite.aig_of (Option.get (Circuits.Suite.find name)) in
  (spec, Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed:1 spec)

let emitted_certificate ~options spec impl =
  let run = Scorr.Verify.run_with_relation ~options spec impl in
  match Cert.Certificate.of_run ~options ~spec ~impl run with
  | Ok cert ->
    let path = temp_path () in
    Cert.Certificate.to_file path cert;
    (run, path)
  | Error e -> Alcotest.fail (Cert.Certificate.explain_emit_error e)

(* A certificate holds the greatest fixed point, itself a partition
   between the initial one and the fixed point: resuming from it reaches
   the cold run's verdict and relation in one iteration. *)
let test_resume_from_certificate () =
  List.iter
    (fun (name, engine, label) ->
      let spec, impl = retimed_pair name in
      let options =
        { Scorr.default_options with Scorr.Verify.engine; use_speculation = false }
      in
      let (cold, _, _), path = emitted_certificate ~options spec impl in
      let cp = Cert.Certificate.resume_of_file ~seed:options.Scorr.Verify.seed path in
      Sys.remove path;
      let warm = Scorr.check ~options:{ options with Scorr.Verify.resume = Some cp } spec impl in
      let c = Scorr.verdict_stats cold and w = Scorr.verdict_stats warm in
      let label = name ^ " " ^ label in
      Alcotest.(check string) (label ^ " verdict") (verdict_label cold) (verdict_label warm);
      Alcotest.(check int) (label ^ " classes") c.Scorr.Verify.classes w.Scorr.Verify.classes;
      Alcotest.(check (float 1e-9)) (label ^ " eq_pct") c.Scorr.Verify.eq_pct
        w.Scorr.Verify.eq_pct;
      Alcotest.(check int) (label ^ " iterations") 1 w.Scorr.Verify.iterations)
    [
      ("ctr16", Scorr.Verify.Bdd_engine, "bdd");
      ("ctr16", Scorr.Verify.Sat_engine, "sat");
      ("gray12", Scorr.Verify.Bdd_engine, "bdd");
      ("gray12", Scorr.Verify.Sat_engine, "sat");
    ]

(* A certificate records no seed: it takes the resuming run's, and a
   run normalizing under another seed refuses the polarities. *)
let test_certificate_resume_checks_polarity () =
  let spec, impl = retimed_pair "ctr16" in
  let options = { Scorr.default_options with Scorr.Verify.use_speculation = false } in
  let _, path = emitted_certificate ~options spec impl in
  let seed = options.Scorr.Verify.seed + 1 in
  let cp = Cert.Certificate.resume_of_file ~seed path in
  Sys.remove path;
  match Scorr.check ~options:{ options with Scorr.Verify.seed; resume = Some cp } spec impl with
  | exception Scorr.Checkpoint.Incompatible _ -> ()
  | _ -> Alcotest.fail "a certificate normalized under another seed seeded the run"

let suite =
  [ Alcotest.test_case "checkpoint round-trips" `Quick test_round_trip;
    Alcotest.test_case "patterns round-trip" `Quick test_pattern_round_trip;
    Alcotest.test_case "malformed checkpoints rejected" `Quick test_rejects_malformed;
    Alcotest.test_case "validation rejects mismatches" `Quick
      test_validate_rejects_mismatches;
    Alcotest.test_case "resume refuses a mutated circuit" `Quick test_resume_refuses_mutant;
    Alcotest.test_case "resume replays more patterns than a buffer" `Quick
      test_resume_replays_many_patterns;
    Alcotest.test_case "deadline abort writes a resumable checkpoint" `Quick
      test_deadline_abort_checkpoints;
    Alcotest.test_case "periodic checkpoints are well-formed" `Quick
      test_periodic_checkpoint;
    Alcotest.test_case "pre-reduced runs resume" `Quick test_prereduced_resume;
    Alcotest.test_case "resume from a certificate" `Quick test_resume_from_certificate;
    Alcotest.test_case "certificate resume checks polarity" `Quick
      test_certificate_resume_checks_polarity;
    prop_resume_reaches_same_fixed_point;
  ]

let () = Alcotest.run "checkpoint" [ ("checkpoint", suite) ]
