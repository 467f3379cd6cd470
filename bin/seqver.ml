(* seqver — command-line driver for the sequential equivalence checker.

   Subcommands: verify (the paper's method, the register-correspondence
   special case, or the traversal baseline), bmc (bounded refutation),
   check-cert (independently re-validate an equivalence certificate),
   replay (re-simulate a counterexample witness), lint (static analysis),
   analyze (structural shape metrics, reduction opportunities and
   diagnostics), gen (emit suite circuits), opt (apply the synthesis
   pipeline), sim (random simulation), stats. *)

(* Every input goes through the one front door, [Lint.Intake]: parsed
   leniently so the lint preflight sees every defect at once, preflighted
   (including .aag/.aig files), lowered when it is clocked Verilog.  A
   rejection prints the full multi-diagnostic report, a parse or I/O
   failure its message; both exit 2. *)
let read_circuit path =
  match Lint.Intake.load (Lint.Intake.Path path) with
  | Ok aig -> aig
  | Error e ->
    prerr_endline (Lint.Intake.explain e);
    exit 2

(* -k past the induction bound is a usage error: every SAT lane would
   encode k + 1 copies of the product before any budget is polled. *)
let check_induction cmd k =
  if k > Scorr.Verify.max_induction then begin
    Printf.eprintf "seqver %s: induction depth %d exceeds the bound %d\n" cmd k
      Scorr.Verify.max_induction;
    exit 2
  end

(* Checkpoints, certificates and witnesses: a malformed file is named
   with its parse error, an unreadable one with the command, a resume
   point no run can take with the refusal; all exit 2. *)
let read_or_exit cmd parse_file path =
  match parse_file path with
  | v -> v
  | exception (Scorr.Relation.Parse_error msg | Cert.Witness.Parse_error msg) ->
    Printf.eprintf "%s: %s\n" path msg;
    exit 2
  | exception Sys_error msg ->
    Printf.eprintf "seqver %s: %s\n" cmd msg;
    exit 2
  | exception Scorr.Checkpoint.Incompatible msg ->
    Printf.eprintf "seqver %s: checkpoint rejected: %s\n" cmd msg;
    exit 2

let write_circuit path aig =
  let text =
    match Filename.extension path with
    | ".aag" -> Aig.Aiger.to_string aig
    | ".aig" -> Aig.Aiger.to_binary_string aig
    | _ ->
      prerr_endline "seqver: can only write .aag or .aig files from AIGs";
      exit 2
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* --- verify ----------------------------------------------------------------- *)

type method_kind = M_scorr | M_regcorr | M_traversal | M_auto

let pp_stats (s : Scorr.stats) =
  print_string (Scorr.Counters.render s);
  Printf.printf "  time:            %.2f s\n" s.Scorr.Verify.seconds;
  match s.phase_seconds with
  | [] -> ()
  | phases ->
    Printf.printf "  phases:         %s\n"
      (String.concat " "
         (List.map (fun (name, t) -> Printf.sprintf "%s=%.2fs" name t) phases))

(* verify --suite: every built-in (spec, retimed implementation) pair,
   dispatched as whole verification jobs across worker domains.  Each
   job is fully isolated — its own circuits, SAT solvers and BDD manager
   — and results are collected and printed in suite order, so the
   output (and the exit code, the max of the per-pair codes) is
   deterministic for every [-j]. *)
let run_verify_suite engine jobs deadline quiet =
  let jobs = if jobs <= 0 then Domain.recommended_domain_count () else jobs in
  let options =
    {
      Scorr.default_options with
      Scorr.Verify.engine =
        (match engine with "sat" -> Scorr.Verify.Sat_engine | _ -> Scorr.Verify.Bdd_engine);
      jobs = 1; (* parallelism lives at the job level here *)
      deadline_seconds = deadline; (* per pair, not per suite *)
    }
  in
  let entries = Array.of_list Circuits.Suite.suite in
  let pool = Scorr.Parsweep.create ~jobs ~init:(fun _ -> ()) in
  let results =
    Scorr.Parsweep.map pool
      ~f:(fun () e ->
        let spec = Circuits.Suite.aig_of e in
        let impl =
          Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_only ~seed:7 spec
        in
        Scorr.Clock.timed (fun () -> Scorr.check ~options spec impl))
      entries
  in
  Scorr.Parsweep.shutdown pool;
  let code = ref 0 in
  Array.iteri
    (fun i (verdict, secs) ->
      let name = entries.(i).Circuits.Suite.name in
      let label, c =
        match verdict with
        | Scorr.Equivalent _ -> ("equivalent", 0)
        | Scorr.Not_equivalent _ -> ("NOT EQUIVALENT", 1)
        | Scorr.Unknown _ -> ("unknown", 3)
      in
      code := max !code c;
      if not quiet then
        Printf.printf "%-4s %-10s %-14s %6.2f s  eq=%.1f%%\n"
          (if c = 0 then "ok" else "FAIL")
          name label secs
          (Scorr.verdict_stats verdict).Scorr.Verify.eq_pct)
    results;
  !code

let run_verify spec_path impl_path meth engine no_sim_seed no_fundep no_retime speculate
    no_speculate dontcare analysis node_limit unroll seconds deadline checkpoint
    checkpoint_every resume show_classes emit_cert proof emit_witness jobs suite quiet =
  check_induction "verify" unroll;
  if suite then run_verify_suite engine jobs deadline quiet
  else
  match (spec_path, impl_path) with
  | None, _ | _, None ->
    prerr_endline "seqver verify: expected SPEC IMPL (or --suite)";
    exit 2
  | Some spec_path, Some impl_path ->
  (* certificate emission needs the relation, which only -m scorr exposes,
     and refuses don't-care-strengthened relations (not self-certifying) *)
  if (emit_cert <> None || emit_witness <> None) && meth <> M_scorr then begin
    prerr_endline "seqver verify: --emit-cert/--emit-witness require -m scorr";
    exit 2
  end;
  if emit_cert <> None && dontcare then begin
    prerr_endline
      "seqver verify: --emit-cert is incompatible with --dontcare (a relation \
       holding only inside the reachable care set is not self-certifying)";
    exit 2
  end;
  if proof && emit_cert = None then begin
    prerr_endline "seqver verify: --proof requires --emit-cert";
    exit 2
  end;
  let spec = read_circuit spec_path and impl = read_circuit impl_path in
  let resume =
    Option.map
      (read_or_exit "verify"
         (Cert.Certificate.resume_of_file ~seed:Scorr.default_options.Scorr.Verify.seed))
      resume
  in
  let options =
    {
      Scorr.default_options with
      Scorr.Verify.engine =
        (match engine with "sat" -> Scorr.Verify.Sat_engine | _ -> Scorr.Verify.Bdd_engine);
      use_sim_seed = not no_sim_seed;
      use_fundep = not no_fundep;
      use_retime = not no_retime;
      use_speculation =
        (speculate || Scorr.default_options.Scorr.Verify.use_speculation)
        && not no_speculate;
      use_reach_dontcare = dontcare;
      (* the portfolio is analysis-steered by default; the flag opts the
         direct methods into verifying the pre-reduced pair *)
      use_analysis = analysis || meth = M_auto;
      node_limit;
      sat_unroll = unroll;
      jobs = (if jobs > 0 then jobs else Scorr.default_options.Scorr.Verify.jobs);
      deadline_seconds = deadline;
      checkpoint_path = checkpoint;
      checkpoint_every;
      resume;
      preflight = false;  (* read_circuit has preflighted both inputs *)
    }
  in
  let exit_of = function
    | Scorr.Equivalent stats ->
      if not quiet then begin
        print_endline "EQUIVALENT";
        pp_stats stats
      end;
      0
    | Scorr.Not_equivalent { frame; trace; stats } ->
      if not quiet then begin
        Printf.printf "NOT EQUIVALENT (difference at frame %d)\n" frame;
        (match trace with
        | Some inputs ->
          print_endline "  witness input trace (one vector per frame):";
          Array.iteri
            (fun t frame_inputs ->
              Printf.printf "    t=%d:" t;
              Array.iter (fun b -> print_string (if b then " 1" else " 0")) frame_inputs;
              print_newline ())
            inputs
        | None -> ());
        pp_stats stats
      end;
      1
    | Scorr.Unknown stats ->
      if not quiet then begin
        (match stats.Scorr.Verify.exhausted with
        | Some why -> Printf.printf "UNKNOWN (budget exhausted: %s)\n" why
        | None -> print_endline "UNKNOWN (the method is sound but incomplete)");
        (match (options.Scorr.Verify.checkpoint_path, stats.Scorr.Verify.exhausted) with
        | Some path, Some _ -> Printf.printf "  checkpoint:      %s\n" path
        | _ -> ());
        pp_stats stats
      end;
      3
  in
  let dispatch () =
  match meth with
  | M_auto -> exit_of (Scorr.portfolio ~options spec impl)
  | M_scorr ->
    if show_classes || emit_cert <> None || emit_witness <> None then begin
      let ((verdict, product, relation) as run) =
        Scorr.Verify.run_with_relation ~options spec impl
      in
      if show_classes then
        (match relation with
        | Some partition -> Format.printf "%a" Scorr.Verify.pp_relation (product, partition)
        | None -> ());
      (match emit_cert with
      | None -> ()
      | Some path -> (
        match Cert.Certificate.of_run ~options ~spec ~impl run with
        | Ok cert -> (
          let proved =
            if proof then
              match Cert.Certificate.prove ~spec ~impl cert with
              | Ok c -> Some c
              | Error e ->
                Printf.eprintf "seqver verify: no certificate emitted: proof trace: %s\n"
                  (Cert.Certificate.explain_check_error e);
                None
            else Some cert
          in
          match proved with
          | None -> ()
          | Some cert ->
            Cert.Certificate.to_file path cert;
            if not quiet then
              Printf.printf "certificate: %s (%d classes, %d constraints%s)\n" path
                (Scorr.Relation.n_classes cert.Cert.Certificate.relation)
                (Scorr.Relation.n_constraints cert.Cert.Certificate.relation)
                (match cert.Cert.Certificate.proof with
                | Some segs -> Printf.sprintf ", %d proof segments" (List.length segs)
                | None -> ""))
        | Error e ->
          Printf.eprintf "seqver verify: no certificate emitted: %s\n"
            (Cert.Certificate.explain_emit_error e)));
      (match emit_witness with
      | None -> ()
      | Some path -> (
        match verdict with
        | Scorr.Not_equivalent { trace = Some inputs; _ } ->
          let w = Cert.Witness.of_trace inputs in
          Cert.Witness.to_file path w;
          if not quiet then
            Printf.printf "witness: %s (%d frames)\n" path (Cert.Witness.n_frames w)
        | Scorr.Not_equivalent { trace = None; _ } ->
          prerr_endline "seqver verify: no witness emitted: refutation carried no trace"
        | Scorr.Equivalent _ | Scorr.Unknown _ ->
          if not quiet then
            Printf.eprintf "seqver verify: no witness emitted: circuits not refuted\n"));
      exit_of verdict
    end
    else exit_of (Scorr.check ~options spec impl)
  | M_regcorr -> exit_of (Scorr.register_correspondence ~options spec impl)
  | M_traversal -> (
    let product = Scorr.Product.make spec impl in
    let trans =
      Reach.Trans.make ~node_limit
        ~latch_order:(Scorr.Verify.latch_order_from_outputs product)
        product.Scorr.Product.aig
    in
    let budget =
      {
        Reach.Traversal.max_iterations = max_int;
        max_live_nodes = node_limit;
        max_seconds = seconds;
      }
    in
    let result = Reach.Traversal.check_equivalence ~budget ~use_fundep:(not no_fundep) trans in
    let st = result.Reach.Traversal.stats in
    let report verdict code =
      if not quiet then begin
        print_endline verdict;
        Printf.printf "  depth:           %d\n  peak BDD nodes:  %d\n  dependencies:    %d\n  time:            %.2f s\n"
          st.Reach.Traversal.iterations st.peak_nodes st.dependencies_found st.seconds
      end;
      code
    in
    match result.Reach.Traversal.outcome with
    | Reach.Traversal.Fixpoint _ -> report "EQUIVALENT (traversal fixpoint)" 0
    | Reach.Traversal.Property_violation d ->
      report (Printf.sprintf "NOT EQUIVALENT (violation at depth %d)" d) 1
    | Reach.Traversal.Budget_exceeded what ->
      report (Printf.sprintf "UNKNOWN (budget exceeded: %s)" what) 3)
  in
  try dispatch () with
  | Scorr.Checkpoint.Incompatible msg ->
    Printf.eprintf "seqver verify: checkpoint rejected: %s\n" msg;
    exit 2

(* --- checkpoint ------------------------------------------------------------------ *)

(* Inspect a checkpoint file: exit 0 when well-formed, 2 otherwise.  With
   SPEC and IMPL also given, probe whether the checkpoint could seed a
   run over those circuits — a fingerprint drift used to surface as a
   confusing resume-time rejection; here it is a first-class diagnostic
   naming both MD5s. *)
let run_checkpoint path spec_path impl_path =
  let cp = read_or_exit "checkpoint" Scorr.Checkpoint.parse_file path in
  let r = cp.Scorr.Checkpoint.relation in
  Printf.printf
    "checkpoint: %s\n\
    \  spec md5:        %s\n\
    \  impl md5:        %s\n\
    \  engine:          %s\n\
    \  candidates:      %s\n\
    \  induction:       %d\n\
    \  seed:            %d\n\
    \  retime rounds:   %d\n\
    \  product nodes:   %d\n\
    \  iterations:      %d\n\
    \  classes:         %d (%d constraints)\n\
    \  pool patterns:   %d\n"
    path r.spec_digest r.impl_digest r.engine r.candidates r.induction cp.Scorr.Checkpoint.seed
    r.retime_rounds r.product_nodes cp.Scorr.Checkpoint.iterations
    (Scorr.Relation.n_classes r) (Scorr.Relation.n_constraints r)
    (Scorr.Checkpoint.n_patterns cp);
  match (spec_path, impl_path) with
  | None, None -> 0
  | Some spec_path, Some impl_path -> (
    let spec = read_circuit spec_path and impl = read_circuit impl_path in
    (* probe against the checkpoint's own option pins, so the only
       thing that can mismatch here is the circuits themselves *)
    match
      Scorr.Checkpoint.compatible
        ~spec_digest:(Scorr.Relation.fingerprint spec)
        ~impl_digest:(Scorr.Relation.fingerprint impl)
        ~candidates:r.candidates ~induction:r.induction ~seed:cp.Scorr.Checkpoint.seed cp
    with
    | Ok () ->
      Printf.printf "  compatible:      yes (fingerprints match %s %s)\n" spec_path impl_path;
      0
    | Error msg ->
      Printf.printf "  compatible:      no\n";
      Printf.eprintf "seqver checkpoint: %s\n" msg;
      2)
  | _ ->
    prerr_endline "seqver checkpoint: expected CHECKPOINT, or CHECKPOINT SPEC IMPL";
    2

(* --- gen ---------------------------------------------------------------------- *)

let run_gen name out fmt list_only =
  if list_only then begin
    List.iter
      (fun e ->
        Printf.printf "%-10s %s\n" e.Circuits.Suite.name e.Circuits.Suite.description)
      Circuits.Suite.suite;
    0
  end
  else
    match Circuits.Suite.find name with
    | None ->
      Printf.eprintf "seqver gen: unknown circuit %s (try --list)\n" name;
      1
    | Some e ->
      let netlist = e.Circuits.Suite.build () in
      let text =
        match fmt with
        | "bench" -> Netlist.Bench.to_string netlist
        | "verilog" | "v" -> Netlist.Verilog.to_string netlist
        | _ -> Netlist.Blif.to_string netlist
      in
      (match out with
      | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc text)
      | None -> print_string text);
      0

(* --- opt ----------------------------------------------------------------------- *)

let run_opt in_path out_path recipe seed =
  let aig = read_circuit in_path in
  let recipe =
    match recipe with
    | "retime" -> Circuits.Suite.Retime_only
    | _ -> Circuits.Suite.Retime_opt
  in
  let impl = Circuits.Suite.implementation ~recipe ~seed aig in
  write_circuit out_path impl;
  Printf.printf "%s -> %s\n" (Format.asprintf "%a" Aig.pp_stats aig)
    (Format.asprintf "%a" Aig.pp_stats impl);
  0

(* --- sim ------------------------------------------------------------------------ *)

let run_sim path frames seed =
  let aig = read_circuit path in
  let stimuli = Aig.Sim.random_frames ~seed ~n_pis:(Aig.num_pis aig) ~n_frames:frames in
  let outs, _ = Aig.Sim.run aig stimuli in
  List.iteri
    (fun t frame ->
      Printf.printf "frame %3d:" t;
      List.iter (fun (name, w) -> Printf.printf " %s=%Lx" name w) frame;
      print_newline ())
    outs;
  0

(* --- bmc ------------------------------------------------------------------------ *)

let run_bmc spec_path impl_path depth emit_witness =
  let spec = read_circuit spec_path and impl = read_circuit impl_path in
  let product = Scorr.Product.make spec impl in
  match Reach.Bmc.check ~max_depth:depth product.Scorr.Product.aig with
  | Reach.Bmc.No_counterexample d ->
    Printf.printf "no difference within %d frames\n" (d + 1);
    0
  | Reach.Bmc.Counterexample cex ->
    Printf.printf "NOT EQUIVALENT: outputs differ at frame %d\n" cex.Reach.Bmc.depth;
    Array.iteri
      (fun t frame ->
        Printf.printf "  t=%d:" t;
        Array.iter (fun b -> print_string (if b then " 1" else " 0")) frame;
        print_newline ())
      cex.Reach.Bmc.inputs;
    (match emit_witness with
    | None -> ()
    | Some path ->
      let w = Cert.Witness.of_bmc cex in
      Cert.Witness.to_file path w;
      Printf.printf "witness: %s (%d frames)\n" path (Cert.Witness.n_frames w));
    1
  | Reach.Bmc.Budget what ->
    Printf.printf "budget exceeded: %s\n" what;
    2

(* --- check-cert ----------------------------------------------------------------- *)

(* Exit codes: 0 the certificate (or every suite certificate) validated,
   1 a check rejected it, 2 parse/IO/usage trouble. *)
let run_check_cert cert_path spec_path impl_path suite proof quiet =
  if suite then begin
    (* self-check: emit and independently re-validate a certificate for
       every built-in (spec, retimed implementation) pair; with --proof,
       also record a DRAT trace and re-validate by replay alone *)
    let failures = ref 0 in
    List.iter
      (fun e ->
        let spec = Circuits.Suite.aig_of e in
        let impl =
          Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_only ~seed:7 spec
        in
        let options = Scorr.default_options in
        let run = Scorr.Verify.run_with_relation ~options spec impl in
        let status =
          match Cert.Certificate.of_run ~options ~spec ~impl run with
          | Error e -> Error (Cert.Certificate.explain_emit_error e)
          | Ok cert -> (
            let proved =
              if proof then Cert.Certificate.prove ~spec ~impl cert else Ok cert
            in
            match proved with
            | Error e -> Error (Cert.Certificate.explain_check_error e)
            | Ok cert -> (
              (* round-trip through the text format so the suite also
                 exercises the parser *)
              let cert = Cert.Certificate.parse_string (Cert.Certificate.to_string cert) in
              match Cert.Certificate.check ~use_proof:proof ~spec ~impl cert with
              | Ok () -> Ok (Scorr.Relation.n_constraints cert.Cert.Certificate.relation)
              | Error e -> Error (Cert.Certificate.explain_check_error e)))
        in
        match status with
        | Ok n ->
          if not quiet then
            Printf.printf "ok   %-10s %d constraints\n" e.Circuits.Suite.name n
        | Error msg ->
          incr failures;
          Printf.printf "FAIL %-10s %s\n" e.Circuits.Suite.name msg)
      Circuits.Suite.suite;
    if !failures = 0 then 0 else 1
  end
  else
    match (cert_path, spec_path, impl_path) with
    | Some cert_path, Some spec_path, Some impl_path -> (
      let cert = read_or_exit "check-cert" Cert.Certificate.parse_file cert_path in
      let r = cert.Cert.Certificate.relation in
      let spec = read_circuit spec_path and impl = read_circuit impl_path in
      match Cert.Certificate.check ~use_proof:proof ~spec ~impl cert with
      | Ok () ->
        if not quiet then
          Printf.printf "certificate valid: %d classes, %d constraints (induction %d%s)\n"
            (Scorr.Relation.n_classes r) (Scorr.Relation.n_constraints r) r.induction
            (if proof then ", proof replayed" else "");
        0
      | Error e ->
        Printf.printf "certificate REJECTED: %s\n" (Cert.Certificate.explain_check_error e);
        1)
    | _ ->
      prerr_endline "seqver check-cert: expected CERT SPEC IMPL (or --suite)";
      2

(* --- replay --------------------------------------------------------------------- *)

(* Exit codes: 0 the witness demonstrates a real output mismatch, 1 it
   replays cleanly (disproves nothing), 2 malformed witness or a
   shape/width mismatch against the circuits. *)
let run_replay witness_path spec_path impl_path do_shrink vcd quiet =
  let w = read_or_exit "replay" Cert.Witness.parse_file witness_path in
  let spec = read_circuit spec_path and impl = read_circuit impl_path in
  match Cert.Witness.replay ~spec ~impl w with
  | Ok _ ->
    let w = if do_shrink then Cert.Witness.shrink ~spec ~impl w else w in
    let m =
      match Cert.Witness.replay ~spec ~impl w with
      | Ok m -> m
      | Error _ -> assert false (* shrink preserves the disproof *)
    in
    if not quiet then begin
      Printf.printf "CONFIRMED: output %s differs at frame %d (spec=%d impl=%d)\n"
        m.Cert.Witness.output m.at_frame
        (Bool.to_int m.spec_value) (Bool.to_int m.impl_value);
      print_string (Cert.Witness.to_waveform ~spec ~impl w)
    end;
    (match vcd with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Cert.Witness.to_vcd ~spec ~impl w));
      if not quiet then Printf.printf "vcd: %s\n" path);
    0
  | Error Cert.Witness.No_failure ->
    Printf.printf "NOT CONFIRMED: %s\n" (Cert.Witness.explain_error Cert.Witness.No_failure);
    1
  | Error e ->
    Printf.eprintf "seqver replay: %s\n" (Cert.Witness.explain_error e);
    2

(* --- lint ----------------------------------------------------------------------- *)

(* Files are parsed leniently so that every structural defect is
   materialized and reported in one run instead of aborting at the first
   parse error; only files too malformed to tokenize are rejected
   outright (exit 2).  A Verilog design is linted in its lowered form so
   the ternary/X rules see the real next-state functions, or as the raw
   circuit when it is too defective to lower. *)
let run_lint files suite json strict analysis =
  let of_file path =
    match Lint.Intake.parse (Lint.Intake.Path path) with
    | Ok c -> (path, c)
    | Error e ->
      prerr_endline (Lint.Intake.explain e);
      exit 2
  in
  let from_suite =
    if not suite then []
    else
      List.map
        (fun e -> ("suite:" ^ e.Circuits.Suite.name, Lint.Intake.Netlist (e.Circuits.Suite.build ())))
        Circuits.Suite.suite
  in
  let lowered_or_raw design =
    let raw = Netlist.Clocking.circuit design in
    match Netlist.Clocking.validate design with
    | Ok () -> (
      try Netlist.Clocking.lower design with Netlist.Clocking.Lower_error _ -> raw)
    | Error _ -> raw
  in
  let results =
    List.map
      (fun (subject, c) ->
        let diags =
          match c with
          | Lint.Intake.Netlist n -> Lint.check_netlist n
          | Lint.Intake.Design d -> Lint.check_netlist (lowered_or_raw d)
          | Lint.Intake.Aig a -> Lint.check_aig ~analysis a
        in
        (subject, diags))
      (List.map of_file files @ from_suite)
  in
  if json then
    Printf.printf "[%s]\n"
      (String.concat ","
         (List.map (fun (subject, diags) -> Lint.to_json ~subject diags) results))
  else
    List.iter (fun (subject, diags) -> print_string (Lint.render ~subject diags)) results;
  List.fold_left (fun code (_, diags) -> max code (Lint.exit_code ~strict diags)) 0 results

(* --- analyze -------------------------------------------------------------------- *)

(* Static structural analysis over AIGs: per-circuit shape metrics, the
   reduction the structural pass would apply (with its SAT-discharged
   proof-obligation count), and the static diagnostics.  Exit codes: 0
   analyzed (all diagnostics clean, or [--strict] unset), 1 a diagnostic
   fired under [--strict], 2 parse/usage trouble. *)
let run_analyze files suite json strict no_reduce =
  let subjects =
    List.map (fun path -> (path, read_circuit path)) files
    @
    if not suite then []
    else
      List.map
        (fun e ->
          ( "suite:" ^ e.Circuits.Suite.name,
            Circuits.Suite.aig_of e ))
        Circuits.Suite.suite
  in
  if subjects = [] then begin
    prerr_endline "seqver analyze: expected FILE arguments or --suite";
    exit 2
  end;
  let reports =
    List.map (fun (name, aig) -> Analysis.report ~reduce:(not no_reduce) ~name aig) subjects
  in
  if json then
    Printf.printf "[%s]\n" (String.concat "," (List.map Analysis.to_json reports))
  else List.iter (fun r -> print_string (Analysis.render r)) reports;
  if
    strict
    && List.exists (fun r -> not (Analysis.Diag.clean r.Analysis.diag)) reports
  then 1
  else 0

(* --- stats ---------------------------------------------------------------------- *)

let run_stats path =
  let aig = read_circuit path in
  Format.printf "%a@." Aig.pp_stats aig;
  0

(* --- serve / submit ------------------------------------------------------------- *)

(* seqver serve: run the verification daemon in the foreground.  Exit 0
   on a graceful shutdown (SIGTERM/SIGINT or a shutdown request), 2 on
   setup trouble (socket in use, bad cache dir). *)
let run_serve socket tcp workers queue cache_dir cache_entries verbose =
  let cfg =
    {
      Serve.Daemon.socket_path = socket;
      tcp_port = tcp;
      workers;
      queue_capacity = queue;
      cache_dir;
      cache_capacity = cache_entries;
      verbose;
    }
  in
  try Serve.Daemon.run cfg with
  | Unix.Unix_error (e, _, ctx) ->
    Printf.eprintf "seqver serve: %s (%s)\n" (Unix.error_message e) ctx;
    2
  | Failure msg | Sys_error msg ->
    Printf.eprintf "seqver serve: %s\n" msg;
    2

let parse_hostport s =
  match String.rindex_opt s ':' with
  | Some i -> (
    let host = String.sub s 0 i and port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p -> (host, p)
    | None ->
      Printf.eprintf "seqver submit: bad --tcp %S (expected HOST:PORT)\n" s;
      exit 2)
  | None ->
    Printf.eprintf "seqver submit: bad --tcp %S (expected HOST:PORT)\n" s;
    exit 2

(* The client ships circuits inline as canonical AIGER text (parsed and
   preflight-linted locally first), so the daemon needs no access to the
   client's filesystem and the fingerprint is computed from exactly what
   the client verified. *)
let inline_circuit path = Serve.Protocol.Aag (Aig.Aiger.to_string (read_circuit path))

let print_outcome ~json ~quiet job (o : Serve.Protocol.outcome) =
  if json then
    print_endline
      (Serve.Json.to_string
         (Serve.Json.Obj
            [ ("job", Serve.Json.String job); ("outcome", Serve.Protocol.outcome_to_json o) ]))
  else if not quiet then begin
    (match o.verdict with
    | "equivalent" -> print_endline "EQUIVALENT"
    | "not_equivalent" -> Printf.printf "NOT EQUIVALENT (difference at frame %d)\n" o.frame
    | "cancelled" -> print_endline "CANCELLED"
    | _ -> (
      match o.reason with
      | Some why -> Printf.printf "UNKNOWN (%s)\n" why
      | None -> print_endline "UNKNOWN"));
    Printf.printf
      "  job:             %s\n\
      \  cached:          %b\n\
      \  runtime:         %.6f s\n\
      \  queue wait:      %.6f s\n\
      \  resumed iters:   %d\n"
      job o.cached o.runtime o.queue_wait o.resumed_iterations;
    print_string (Scorr.Counters.render (Scorr.Counters.of_list o.counters));
    (match o.trace with
    | [] -> ()
    | frames -> Printf.printf "  witness:         %s\n" (String.concat " " frames));
    match o.cert with Some p -> Printf.printf "  certificate:     %s\n" p | None -> ()
  end;
  Serve.Protocol.exit_code_of_outcome o

let print_server_stats ~json (s : Serve.Protocol.server_stats) =
  if json then
    print_endline (Serve.Protocol.response_to_line (Serve.Protocol.Stats_report s))
  else begin
    Printf.printf
      "uptime:          %.1f s\n\
       submitted:       %d (done %d, cached %d, cancelled %d)\n\
       queue:           %d queued, %d running, %d workers\n\
       cache:           %d entries, %d hits, %d misses, %d evictions\n\
       warm starts:     %d\n"
      s.uptime s.jobs_submitted s.jobs_done s.jobs_cached s.jobs_cancelled s.queue_len
      s.running s.workers s.cache_entries s.cache_hits s.cache_misses s.cache_evictions
      s.warm_starts;
    if s.jobs <> [] then begin
      print_endline "jobs:";
      List.iter
        (fun (j : Serve.Protocol.job_stat) ->
          Printf.printf "  %-8s %-10s sched_wait=%.6fs\n" j.js_job j.js_state j.js_sched_wait)
        s.jobs
    end
  end;
  0

(* seqver submit: scriptable client for a running daemon.  One of:
   SPEC IMPL (submit and wait), --status JOB, --result JOB [--wait],
   --cancel JOB, --stats, --shutdown.  Exit codes follow verify (0
   equivalent, 1 not equivalent, 3 unknown/cancelled, 2 protocol or
   usage trouble). *)
let run_submit spec impl socket tcp meth engine induction seed analysis speculate deadline
    json quiet progress cancel status result wait stats shutdown =
  check_induction "submit" induction;
  let tcp = Option.map parse_hostport tcp in
  let with_client k =
    match Serve.Client.connect ?tcp ~socket () with
    | exception Serve.Client.Error msg ->
      Printf.eprintf "seqver submit: %s\n" msg;
      2
    | client ->
      Fun.protect
        ~finally:(fun () -> Serve.Client.close client)
        (fun () ->
          try k client
          with Serve.Client.Error msg ->
            Printf.eprintf "seqver submit: %s\n" msg;
            exit 2)
  in
  match (spec, impl, cancel, status, result, stats, shutdown) with
  | Some spec_path, Some impl_path, None, None, None, false, false ->
    (* parse and lint locally before touching the daemon *)
    let spec = inline_circuit spec_path and impl = inline_circuit impl_path in
    with_client (fun client ->
        let opts =
          {
            Serve.Protocol.meth;
            engine;
            induction;
            seed;
            analysis;
            speculate;
            deadline;
          }
        in
        let on_progress ~round ~iteration ~classes ~engine =
          if progress && not quiet then
            Printf.printf "progress: round=%d iteration=%d classes=%d engine=%s\n%!" round
              iteration classes engine
        in
        let job, outcome = Serve.Client.submit_and_wait ~on_progress client ~spec ~impl ~opts () in
        print_outcome ~json ~quiet job outcome)
  | None, None, Some job, None, None, false, false ->
    with_client (fun client ->
        match Serve.Client.request client (Serve.Protocol.Cancel job) with
        | Serve.Protocol.Cancelled { job; state } ->
          if not quiet then Printf.printf "cancel %s: %s\n" job state;
          0
        | Serve.Protocol.Error_resp msg ->
          Printf.eprintf "seqver submit: %s\n" msg;
          2
        | _ ->
          prerr_endline "seqver submit: unexpected response";
          2)
  | None, None, None, Some job, None, false, false ->
    with_client (fun client ->
        match Serve.Client.request client (Serve.Protocol.Status job) with
        | Serve.Protocol.Job_status { job; state; queue_pos } ->
          if queue_pos >= 0 then Printf.printf "%s: %s (queue position %d)\n" job state queue_pos
          else Printf.printf "%s: %s\n" job state;
          0
        | Serve.Protocol.Error_resp msg ->
          Printf.eprintf "seqver submit: %s\n" msg;
          2
        | _ ->
          prerr_endline "seqver submit: unexpected response";
          2)
  | None, None, None, None, Some job, false, false ->
    with_client (fun client ->
        match Serve.Client.request client (Serve.Protocol.Result { job; wait }) with
        | Serve.Protocol.Job_result { job; outcome } -> print_outcome ~json ~quiet job outcome
        | Serve.Protocol.Job_status { job; state; _ } ->
          if not quiet then Printf.printf "%s: %s (no result yet; use --wait)\n" job state;
          3
        | Serve.Protocol.Error_resp msg ->
          Printf.eprintf "seqver submit: %s\n" msg;
          2
        | _ ->
          prerr_endline "seqver submit: unexpected response";
          2)
  | None, None, None, None, None, true, false ->
    with_client (fun client ->
        match Serve.Client.request client Serve.Protocol.Stats with
        | Serve.Protocol.Stats_report s -> print_server_stats ~json s
        | Serve.Protocol.Error_resp msg ->
          Printf.eprintf "seqver submit: %s\n" msg;
          2
        | _ ->
          prerr_endline "seqver submit: unexpected response";
          2)
  | None, None, None, None, None, false, true ->
    with_client (fun client ->
        match Serve.Client.request client Serve.Protocol.Shutdown with
        | Serve.Protocol.Bye ->
          if not quiet then print_endline "daemon shutting down";
          0
        | Serve.Protocol.Error_resp msg ->
          Printf.eprintf "seqver submit: %s\n" msg;
          2
        | _ ->
          prerr_endline "seqver submit: unexpected response";
          2)
  | _ ->
    prerr_endline
      "seqver submit: expected SPEC IMPL, or exactly one of --cancel/--status/--result \
       JOB, --stats, --shutdown";
    2

(* --- cmdliner wiring ------------------------------------------------------------- *)

open Cmdliner

let verify_cmd =
  let spec = Arg.(value & pos 0 (some file) None & info [] ~docv:"SPEC") in
  let impl = Arg.(value & pos 1 (some file) None & info [] ~docv:"IMPL") in
  let meth =
    let parse = function
      | "scorr" -> Ok M_scorr
      | "regcorr" -> Ok M_regcorr
      | "traversal" -> Ok M_traversal
      | "auto" -> Ok M_auto
      | s -> Error (`Msg ("unknown method " ^ s))
    in
    let print ppf m =
      Format.pp_print_string ppf
        (match m with
        | M_scorr -> "scorr"
        | M_regcorr -> "regcorr"
        | M_traversal -> "traversal"
        | M_auto -> "auto")
    in
    Arg.(value & opt (conv (parse, print)) M_scorr
         & info [ "m"; "method" ] ~doc:"Method: scorr, regcorr, traversal or auto (portfolio).")
  in
  let engine =
    Arg.(value & opt string "bdd" & info [ "e"; "engine" ] ~doc:"Refinement engine: bdd or sat.")
  in
  let no_sim_seed = Arg.(value & flag & info [ "no-sim-seed" ] ~doc:"Disable simulation seeding.") in
  let no_fundep = Arg.(value & flag & info [ "no-fundep" ] ~doc:"Disable functional dependencies.") in
  let no_retime = Arg.(value & flag & info [ "no-retime" ] ~doc:"Disable retiming extension.") in
  let speculate =
    Arg.(value & flag
         & info [ "speculate" ]
             ~doc:"Screen every sweep with speculative reduction: every candidate \
                   class is merged onto its representative, each merge yields one \
                   assumption obligation, and a class whose obligations are all valid \
                   on the reduced product by a two-frame BDD check is proven without \
                   a SAT call; the SAT sweep (at depth 1 under $(b,-e bdd)) proves \
                   or splits the rest.  Verdicts and the final partition are \
                   identical to the plain sweep at that depth; only the work \
                   differs.  (Also \\$SEQVER_SPECULATE.)")
  in
  let no_speculate =
    Arg.(value & flag
         & info [ "no-speculate" ]
             ~doc:"Force the plain per-class sweep even when \\$SEQVER_SPECULATE or \
                   $(b,--speculate) would enable speculative reduction.")
  in
  let dontcare =
    Arg.(value & flag & info [ "dontcare" ] ~doc:"Strengthen Q with approximate reachability.")
  in
  let analysis =
    Arg.(value & flag
         & info [ "analysis" ]
             ~doc:"Enable the static-analysis layer: verify the FRAIG-reduced pair \
                   (semantics-preserving; witnesses and certificates still refer to the \
                   circuits as given), and with -m auto steer the k = 1 engine by the \
                   shape metrics.  On by default with -m auto.")
  in
  let node_limit =
    Arg.(value & opt int 2_000_000 & info [ "node-limit" ] ~doc:"BDD node budget.")
  in
  let unroll =
    Arg.(value & opt int 1
         & info [ "k"; "unroll" ]
             ~doc:"SAT-engine induction depth (1 = the paper; at most 64). The cap \
                   bounds memory, not time: a deep unrolling can run for minutes, so \
                   pair a large $(b,-k) with $(b,--deadline).")
  in
  let seconds =
    Arg.(value & opt float 60.0 & info [ "time-limit" ] ~doc:"Traversal time budget (s).")
  in
  let deadline =
    Arg.(value & opt float 0.0
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"Wall-clock budget for the run (0 = none).  On expiry the fixed point \
                   aborts within one class solve, the verdict is UNKNOWN (exit 3), and \
                   the partial partition is checkpointed when $(b,--checkpoint) is set.")
  in
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Write the partial partition here when a budget or deadline aborts the \
                   fixed point (resumable with $(b,--resume)).")
  in
  let checkpoint_every =
    Arg.(value & opt int 0
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"Also checkpoint every N refinement iterations (0 = aborts only).")
  in
  let resume =
    Arg.(value & opt (some file) None
         & info [ "resume" ] ~docv:"FILE"
             ~doc:"Resume the fixed point from a checkpoint.  The checkpoint must match \
                   the circuits and options (fingerprints, candidate set, seed, induction \
                   depth); an incompatible one is rejected with exit 2.")
  in
  let show_classes =
    Arg.(value & flag & info [ "show-classes" ] ~doc:"Print the correspondence relation.")
  in
  let emit_cert =
    Arg.(value & opt (some string) None
         & info [ "emit-cert" ] ~docv:"FILE"
             ~doc:"Write an independently checkable equivalence certificate (scorr only).")
  in
  let proof =
    Arg.(value & flag
         & info [ "proof" ]
             ~doc:"With $(b,--emit-cert): embed a DRAT trace of every checker obligation \
                   in the certificate, so $(b,check-cert --proof) can replay it without \
                   any SAT solving.")
  in
  let emit_witness =
    Arg.(value & opt (some string) None
         & info [ "emit-witness" ] ~docv:"FILE"
             ~doc:"Write a replayable counterexample witness on refutation (scorr only).")
  in
  let jobs =
    Arg.(value & opt int 0
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains.  With SPEC IMPL: parallel class solving inside the SAT \
                   engine (0 = \\$SEQVER_JOBS or 1).  With $(b,--suite): whole \
                   verification jobs in parallel (0 = all cores).")
  in
  let suite =
    Arg.(value & flag
         & info [ "suite" ]
             ~doc:"Verify every built-in suite circuit against its retimed implementation \
                   instead of a SPEC/IMPL pair.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only set the exit code.") in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Check sequential equivalence of two circuits \
             (exit 0 equivalent, 1 not equivalent, 3 unknown, 2 usage/parse error)")
    Term.(
      const run_verify $ spec $ impl $ meth $ engine $ no_sim_seed $ no_fundep $ no_retime
      $ speculate $ no_speculate $ dontcare $ analysis $ node_limit $ unroll $ seconds
      $ deadline $ checkpoint $ checkpoint_every $ resume $ show_classes $ emit_cert $ proof
      $ emit_witness $ jobs $ suite $ quiet)

let gen_cmd =
  let circuit_name = Arg.(value & pos 0 string "" & info [] ~docv:"NAME") in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.") in
  let fmt =
    Arg.(value & opt string "blif" & info [ "format" ] ~doc:"Output format: blif, bench or verilog.")
  in
  let list_only = Arg.(value & flag & info [ "list" ] ~doc:"List available circuits.") in
  Cmd.v
    (Cmd.info "gen" ~doc:"Emit a benchmark circuit as BLIF, .bench or structural Verilog")
    Term.(const run_gen $ circuit_name $ out $ fmt $ list_only)

let opt_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT") in
  let output = Arg.(required & pos 1 (some string) None & info [] ~docv:"OUTPUT.aag") in
  let recipe =
    Arg.(value & opt string "retime+opt" & info [ "recipe" ] ~doc:"retime or retime+opt.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  Cmd.v
    (Cmd.info "opt" ~doc:"Produce a retimed/optimized implementation")
    Term.(const run_opt $ input $ output $ recipe $ seed)

let sim_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT") in
  let frames = Arg.(value & opt int 8 & info [ "frames" ] ~doc:"Number of frames.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  Cmd.v
    (Cmd.info "sim" ~doc:"Randomly simulate a circuit")
    Term.(const run_sim $ input $ frames $ seed)

let bmc_cmd =
  let spec = Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC") in
  let impl = Arg.(required & pos 1 (some file) None & info [] ~docv:"IMPL") in
  let depth = Arg.(value & opt int 20 & info [ "depth" ] ~doc:"Unrolling depth.") in
  let emit_witness =
    Arg.(value & opt (some string) None
         & info [ "emit-witness" ] ~docv:"FILE"
             ~doc:"Write the counterexample as a replayable witness.")
  in
  Cmd.v
    (Cmd.info "bmc" ~doc:"Bounded refutation with a concrete trace")
    Term.(const run_bmc $ spec $ impl $ depth $ emit_witness)

let check_cert_cmd =
  let cert = Arg.(value & pos 0 (some file) None & info [] ~docv:"CERT") in
  let spec = Arg.(value & pos 1 (some file) None & info [] ~docv:"SPEC") in
  let impl = Arg.(value & pos 2 (some file) None & info [] ~docv:"IMPL") in
  let suite =
    Arg.(value & flag
         & info [ "suite" ]
             ~doc:"Emit and re-validate a certificate for every built-in \
                   (spec, retimed implementation) pair instead.")
  in
  let proof =
    Arg.(value & flag
         & info [ "proof" ]
             ~doc:"Validate by replaying the certificate's embedded DRAT trace through an \
                   independent reverse-unit-propagation checker — no SAT solving at all.  \
                   A certificate without a trace is rejected.  With $(b,--suite), \
                   certificates are emitted with traces and replay-checked.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only set the exit code.") in
  Cmd.v
    (Cmd.info "check-cert"
       ~doc:"Independently re-validate an equivalence certificate \
             (exit 0 valid, 1 rejected, 2 parse/usage error)")
    Term.(const run_check_cert $ cert $ spec $ impl $ suite $ proof $ quiet)

let replay_cmd =
  let witness = Arg.(required & pos 0 (some file) None & info [] ~docv:"WITNESS") in
  let spec = Arg.(required & pos 1 (some file) None & info [] ~docv:"SPEC") in
  let impl = Arg.(required & pos 2 (some file) None & info [] ~docv:"IMPL") in
  let shrink =
    Arg.(value & flag & info [ "shrink" ] ~doc:"Greedily minimize the witness first.")
  in
  let vcd =
    Arg.(value & opt (some string) None
         & info [ "vcd" ] ~docv:"FILE" ~doc:"Also write a VCD waveform.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only set the exit code.") in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay a counterexample witness against two circuits \
             (exit 0 mismatch confirmed, 1 no failure, 2 malformed)")
    Term.(const run_replay $ witness $ spec $ impl $ shrink $ vcd $ quiet)

let stats_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT") in
  Cmd.v (Cmd.info "stats" ~doc:"Print circuit statistics") Term.(const run_stats $ input)

let checkpoint_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"CHECKPOINT") in
  let spec = Arg.(value & pos 1 (some file) None & info [] ~docv:"SPEC") in
  let impl = Arg.(value & pos 2 (some file) None & info [] ~docv:"IMPL") in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:"Inspect a fixed-point checkpoint; with SPEC IMPL also probe whether it can \
             seed a run over those circuits (exit 0 well-formed/compatible, 2 \
             malformed/incompatible)")
    Term.(const run_checkpoint $ input $ spec $ impl)

let lint_cmd =
  let files = Arg.(value & pos_all file [] & info [] ~docv:"FILE") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.") in
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Exit 2 when any error-level finding fired, 1 on warnings, 0 otherwise.")
  in
  let suite =
    Arg.(value & flag & info [ "suite" ] ~doc:"Also lint every built-in suite circuit.")
  in
  let analysis =
    Arg.(value & flag
         & info [ "analysis" ]
             ~doc:"Also run the analysis-backed rules on AIG subjects \
                   (unobservable-latch, reducible-logic).")
  in
  Cmd.v
    (Cmd.info "lint" ~doc:"Run the static-analysis rules over circuits")
    Term.(const run_lint $ files $ suite $ json $ strict $ analysis)

let analyze_cmd =
  let files = Arg.(value & pos_all file [] & info [] ~docv:"FILE") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.") in
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"Exit 1 when any static diagnostic fired.")
  in
  let suite =
    Arg.(value & flag & info [ "suite" ] ~doc:"Also analyze every built-in suite circuit.")
  in
  let no_reduce =
    Arg.(value & flag
         & info [ "no-reduce" ]
             ~doc:"Skip the structural-reduction pass (metrics and diagnostics only).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Report structural shape metrics, reduction opportunities and static \
             diagnostics (exit 0 clean, 1 findings under $(b,--strict), 2 parse error)")
    Term.(const run_analyze $ files $ suite $ json $ strict $ no_reduce)

let serve_cmd =
  let socket =
    Arg.(value & opt string "seqver.sock"
         & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket to listen on.")
  in
  let tcp =
    Arg.(value & opt (some int) None
         & info [ "tcp" ] ~docv:"PORT" ~doc:"Also listen on 127.0.0.1:PORT.")
  in
  let workers =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc:"Verification worker domains.")
  in
  let queue =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N" ~doc:"Job queue capacity (submissions beyond it are refused).")
  in
  let cache_dir =
    Arg.(value & opt string ".seqver-cache"
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"On-disk result store: verdicts, certificates and warm-start checkpoints, \
                   keyed by circuit fingerprints and option set.")
  in
  let cache_entries =
    Arg.(value & opt int 128
         & info [ "cache-entries" ] ~docv:"N" ~doc:"In-memory verdict LRU capacity.")
  in
  let verbose = Arg.(value & flag & info [ "verbose" ] ~doc:"Log accepted jobs to stderr.") in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the verification daemon: a Unix-socket (and optional TCP) service with a \
             job queue, worker domains and a fingerprint-keyed result cache \
             (exit 0 on graceful shutdown, 2 on setup trouble)")
    Term.(const run_serve $ socket $ tcp $ workers $ queue $ cache_dir $ cache_entries $ verbose)

let submit_cmd =
  let spec = Arg.(value & pos 0 (some file) None & info [] ~docv:"SPEC") in
  let impl = Arg.(value & pos 1 (some file) None & info [] ~docv:"IMPL") in
  let socket =
    Arg.(value & opt string "seqver.sock"
         & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon Unix socket.")
  in
  let tcp =
    Arg.(value & opt (some string) None
         & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Reach the daemon over TCP instead.")
  in
  let meth =
    Arg.(value & opt string "scorr"
         & info [ "m"; "method" ] ~doc:"Method: scorr or auto (portfolio).")
  in
  let engine =
    Arg.(value & opt string "bdd" & info [ "e"; "engine" ] ~doc:"Refinement engine: bdd or sat.")
  in
  let induction =
    Arg.(value & opt int 1
         & info [ "k"; "unroll" ]
             ~doc:"SAT-engine induction depth (1 = the paper; at most 64). The cap \
                   bounds memory, not time: a deep unrolling can run for minutes, so \
                   pair a large $(b,-k) with $(b,--deadline).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let analysis =
    Arg.(value & flag
         & info [ "analysis" ]
             ~doc:"Enable the static-analysis layer: the job verifies the FRAIG-reduced \
                   pair (always on with -m auto).")
  in
  let speculate =
    Arg.(value & flag
         & info [ "speculate" ]
             ~doc:"Run the job with speculative reduction, the BDD screen in front \
                   of the SAT sweep (cached separately).")
  in
  let deadline =
    Arg.(value & opt float 0.0
         & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Per-job wall-clock budget (0 = none).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Print the result as one JSON line.") in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only set the exit code.") in
  let progress =
    Arg.(value & flag & info [ "progress" ] ~doc:"Print streamed fixed-point progress events.")
  in
  let cancel =
    Arg.(value & opt (some string) None & info [ "cancel" ] ~docv:"JOB" ~doc:"Cancel a job.")
  in
  let status =
    Arg.(value & opt (some string) None & info [ "status" ] ~docv:"JOB" ~doc:"Query a job's state.")
  in
  let result =
    Arg.(value & opt (some string) None
         & info [ "result" ] ~docv:"JOB" ~doc:"Fetch a job's result.")
  in
  let wait =
    Arg.(value & flag
         & info [ "wait" ] ~doc:"With $(b,--result): block until the job finishes.")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print daemon statistics.") in
  let shutdown = Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the daemon to shut down.") in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a verification job to a running daemon, or manage one \
             (exit 0 equivalent, 1 not equivalent, 3 unknown/cancelled, 2 protocol error)")
    Term.(
      const run_submit $ spec $ impl $ socket $ tcp $ meth $ engine $ induction $ seed
      $ analysis $ speculate $ deadline $ json $ quiet $ progress
      $ cancel $ status $ result $ wait $ stats $ shutdown)

let () =
  let doc = "sequential equivalence checking without state space traversal" in
  let info = Cmd.info "seqver" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ verify_cmd; bmc_cmd; check_cert_cmd; replay_cmd; checkpoint_cmd; serve_cmd;
            submit_cmd; lint_cmd; analyze_cmd; gen_cmd; opt_cmd; sim_cmd; stats_cmd ]))
