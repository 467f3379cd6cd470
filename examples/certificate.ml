(* The checker's certificate: after proving equivalence, print the final
   signal correspondence relation — which specification signal matches
   which implementation signal, with polarity (antivalences show up as
   complemented partners) — then export it as a portable certificate and
   re-validate it with the independent checker from [Cert].

   Run with:  dune exec examples/certificate.exe *)

let () =
  let spec, _ = Aig.of_netlist (Circuits.Counter.modulo 10) in
  let impl = Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_only ~seed:5 spec in
  Format.printf "spec: %a@." Aig.pp_stats spec;
  Format.printf "impl: %a@.@." Aig.pp_stats impl;
  let options = Scorr.default_options in
  let ((verdict, product, relation) as run) =
    Scorr.Verify.run_with_relation ~options spec impl
  in
  match (verdict, relation) with
  | Scorr.Equivalent stats, Some partition ->
    Format.printf "EQUIVALENT in %d iterations; the relation that proves it:@.@."
      stats.Scorr.Verify.iterations;
    Format.printf "%a@." Scorr.Verify.pp_relation (product, partition);
    Format.printf
      "Reading the classes: spec:* / impl:* tag each signal's circuit,@.";
    Format.printf
      "~ marks a complemented (antivalent) member, shared:* is logic the@.";
    Format.printf
      "structural hash already unified, and miter:* are the comparison@.";
    Format.printf "XNORs.  Every output pair sits in a common class (Theorem 1).@.@.";
    (* the relation is an inductive invariant, so it travels: export it
       and re-prove the verdict without the fixed-point engine *)
    (match Cert.Certificate.of_run ~options ~spec ~impl run with
    | Error e -> Format.printf "emission failed: %s@." (Cert.Certificate.explain_emit_error e)
    | Ok cert ->
      Format.printf "exported certificate (%d classes, %d constraints):@.@.%s@."
        (Scorr.Relation.n_classes cert.Cert.Certificate.relation)
        (Scorr.Relation.n_constraints cert.Cert.Certificate.relation)
        (Cert.Certificate.to_string cert);
      (match Cert.Certificate.check ~spec ~impl cert with
      | Ok () ->
        Format.printf
          "independent check PASSED: the relation holds initially, is@.";
        Format.printf "1-step inductive, and covers every output pair.@."
      | Error e ->
        Format.printf "independent check FAILED: %s@."
          (Cert.Certificate.explain_check_error e)))
  | Scorr.Not_equivalent { frame; _ }, _ ->
    Format.printf "NOT EQUIVALENT at frame %d — unexpected!@." frame
  | Scorr.Unknown _, _ -> Format.printf "UNKNOWN — unexpected for this workload!@."
  | Scorr.Equivalent _, None -> Format.printf "no relation recorded — unexpected!@."
