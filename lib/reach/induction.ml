(* Plain k-induction on the outputs: prove every PO stays 1 by (a) BMC up
   to depth k-1 (base case) and (b) assuming the POs hold for k frames
   from an ARBITRARY state and showing them at frame k (step case).

   This is the "monolithic" modern baseline: it reasons about the output
   property alone, with no internal signal correspondences.  On product
   machines it usually needs a large k (or fails outright), because the
   output equality is rarely inductive by itself — exactly the gap the
   paper's signal-level relation fills.  No uniqueness (simple-path)
   constraints are added, so the step case is sound but incomplete. *)

type outcome =
  | Proved of int (* the k at which induction closed *)
  | Refuted of Bmc.counterexample
  | Unknown of string

let check ?(max_k = 8) ?(max_sat_calls = max_int) aig =
  let n_latches = Aig.num_latches aig in
  let pos = Aig.pos aig in
  (* step case at a given k: frames 0..k from a free initial state *)
  let step_holds k calls =
    let solver = Sat.create () in
    let s0 = Array.init n_latches (fun _ -> Sat.new_var solver) in
    (* assume the property in frames 0..k-1 *)
    let assume frame lit_of =
      if frame < k then List.iter (fun (_, l) -> Sat.add_clause solver [ lit_of l ]) pos
    in
    let frames, _ =
      Aig.Cnf.unroll ~on_frame:assume solver aig ~n:(k + 1) ~first_latch_var:(Array.get s0)
    in
    (* can any PO be 0 at frame k? *)
    List.for_all
      (fun (_, l) ->
        incr calls;
        !calls <= max_sat_calls
        && Sat.solve ~assumptions:[ Sat.Lit.negate (frames.(k) l) ] solver = Sat.Unsat)
      pos
  in
  let calls = ref 0 in
  let rec try_k k =
    if k > max_k then Unknown "max k reached"
    else if !calls > max_sat_calls then Unknown "sat calls"
    else begin
      (* base case: no violation within the first k frames *)
      match Bmc.check ~max_depth:(k - 1) ~max_sat_calls:(max_sat_calls - !calls) aig with
      | Bmc.Counterexample cex -> Refuted cex
      | Bmc.Budget what -> Unknown what
      | Bmc.No_counterexample _ -> if step_holds k calls then Proved k else try_k (k + 1)
    end
  in
  try_k 1
