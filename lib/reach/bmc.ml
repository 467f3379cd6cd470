(* Bounded model checking by SAT unrolling: an exact complement to the
   sound-but-incomplete fixed point.  The machine is unrolled frame by
   frame from its initial state inside one incremental solver; at every
   depth each PO is checked for a satisfying 0 (for product machines built
   by {!Scorr.Product}, the "outputs_agree" PO is 0 exactly when some
   output pair differs).  A hit yields a concrete input trace. *)

type counterexample = {
  depth : int; (* frame at which the property fails *)
  inputs : bool array array; (* inputs.(t).(i): PI i at frame t, t <= depth *)
  output : string; (* name of the failing PO *)
}

type result =
  | No_counterexample of int (* clean up to this depth (inclusive) *)
  | Counterexample of counterexample
  | Budget of string

(* Check that every PO of [aig] is 1 in all frames up to [max_depth].
   POs listed in [ignore_outputs] are skipped. *)
let check ?(max_depth = 20) ?(max_sat_calls = max_int) ?(ignore_outputs = []) aig =
  let solver = Sat.create () in
  let n_pis = Aig.num_pis aig in
  let pos =
    List.filter (fun (name, _) -> not (List.mem name ignore_outputs)) (Aig.pos aig)
  in
  let pi_frames = ref [] in
  (* latch variables of the current frame; frame 0 is the initial state *)
  let latch_vars =
    ref
      (Array.init (Aig.num_latches aig) (fun i ->
           let v = Sat.new_var solver in
           Sat.add_clause solver [ Sat.Lit.make v (Aig.latch_init aig i) ];
           v))
  in
  let calls = ref 0 in
  let exception Found of counterexample in
  let exception Out_of_budget in
  try
    for depth = 0 to max_depth do
      let x_vars = Array.init n_pis (fun _ -> Sat.new_var solver) in
      pi_frames := x_vars :: !pi_frames;
      let lit_of =
        Aig.Cnf.encode solver aig
          ~pi_var:(fun i -> x_vars.(i))
          ~latch_var:(fun i -> !latch_vars.(i))
      in
      (* property checks at this depth *)
      List.iter
        (fun (name, l) ->
          let po = lit_of l in
          incr calls;
          if !calls > max_sat_calls then raise Out_of_budget;
          match Sat.solve ~assumptions:[ Sat.Lit.negate po ] solver with
          | Sat.Unsat -> ()
          | Sat.Sat ->
            let frames = List.rev !pi_frames in
            let inputs =
              Array.of_list
                (List.map (fun xs -> Array.map (fun v -> Sat.value solver v) xs) frames)
            in
            raise (Found { depth; inputs; output = name }))
        pos;
      (* advance the state *)
      if depth < max_depth then latch_vars := Aig.Cnf.tie_next solver aig lit_of
    done;
    No_counterexample max_depth
  with
  | Found cex -> Counterexample cex
  | Out_of_budget -> Budget "sat calls"

(* Counterexample replay lives in [Cert.Witness]: convert with
   [Cert.Witness.of_bmc] and validate with [Cert.Witness.refutes], which
   shares one simulation-based validator across BMC, induction and the
   signal-correspondence verdicts. *)
