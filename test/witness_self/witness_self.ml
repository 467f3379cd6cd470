(* Witness self-check over the built-in suite: for every circuit, refute
   the observable mutant of its retime+opt seed-1 implementation twice
   and replay each witness on the original circuits.

   The first run uses the default options.  The second turns
   presimulation off and deepens [bmc_depth] to the first run's frame,
   so that its refutation comes from the initial-refinement disproof or,
   when the difference lies past the simulation seed's frames, from the
   bounded model check after the fixed point; being exhaustive, it must
   land no deeper than the first.  Every witness must replay to a first
   mismatch at the frame its verdict names.  Prints one line per run and
   exits 1 if any run fails.

   Run with `dune build @witness-self`. *)

(* Which refutation path answered, read off the phases the run went
   through. *)
let path (s : Scorr.stats) =
  if List.mem_assoc "fixpoint" s.Scorr.Verify.phase_seconds then "bmc after the fixed point"
  else if List.mem_assoc "initial" s.Scorr.Verify.phase_seconds then "initial split"
  else "presimulation"

let refute ~spec ~impl options =
  match Scorr.check ~options spec impl with
  | Scorr.Not_equivalent { frame; trace = Some trace; stats } -> (
    match Cert.Witness.replay ~spec ~impl (Cert.Witness.of_trace trace) with
    | Ok m when m.Cert.Witness.at_frame = frame -> Ok (frame, path stats)
    | Ok m ->
      Error
        (Printf.sprintf "verdict names frame %d, witness first differs at %d" frame
           m.Cert.Witness.at_frame)
    | Error e -> Error ("witness does not replay: " ^ Cert.Witness.explain_error e))
  | Scorr.Not_equivalent { trace = None; _ } -> Error "refutation without a trace"
  | Scorr.Equivalent _ -> Error "mutant proved equivalent"
  | Scorr.Unknown _ -> Error "mutant not refuted"

let () =
  let failures = ref 0 in
  let report name what = function
    | Ok (frame, how) -> Printf.printf "ok   %-10s %-8s frame %2d by %s\n%!" name what frame how
    | Error msg ->
      incr failures;
      Printf.printf "FAIL %-10s %-8s %s\n%!" name what msg
  in
  List.iter
    (fun e ->
      let name = e.Circuits.Suite.name in
      let spec = Circuits.Suite.aig_of e in
      let impl = Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed:1 spec in
      match Transform.Mutate.observable_mutant ~attempts:50 ~seed:1 impl with
      | None -> report name "-" (Error "no observable mutant")
      | Some (mutant, _) -> (
        let d = Scorr.default_options in
        let first = refute ~spec ~impl:mutant d in
        report name "default" first;
        match first with
        | Error _ -> ()
        | Ok (frame, _) ->
          let options =
            {
              d with
              Scorr.Verify.presim_frames = 0;
              bmc_depth = max d.Scorr.Verify.bmc_depth frame;
            }
          in
          report name "presim=0"
            (match refute ~spec ~impl:mutant options with
            | Ok (f, _) when f > frame ->
              Error (Printf.sprintf "frame %d is deeper than presimulation's %d" f frame)
            | r -> r)))
    Circuits.Suite.suite;
  if !failures > 0 then exit 1
