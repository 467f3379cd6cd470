(* Approximate (over-approximated) reachability after Cho et al. [4]:
   partition the latches into small blocks, traverse each block's
   sub-machine with every other state variable treated as a free input,
   and take the conjunction of the per-block reachable sets.

   The result always contains the exact reachable set, so it is safe to
   use as a care set — this is the "sequential don't cares" extension of
   the paper's Section 3 (conjoining an upper bound of the reachable
   state space with the correspondence condition). *)

(* Greedy partition of latch indices into blocks of at most [k], grouping
   latches whose next-state supports overlap. *)
let partition_latches trans ~k =
  let n = Array.length trans.Trans.cs_vars in
  let supports =
    Array.init n (fun i ->
        List.filter
          (fun v -> Array.exists (fun cs -> cs = v) trans.Trans.cs_vars)
          (Bdd.support trans.Trans.m trans.Trans.next_fns.(i)))
  in
  let latch_of_var = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace latch_of_var v i) trans.Trans.cs_vars;
  let assigned = Array.make n false in
  let blocks = ref [] in
  for i = 0 to n - 1 do
    if not assigned.(i) then begin
      let block = ref [ i ] in
      assigned.(i) <- true;
      (* pull in related latches while room remains *)
      let related j =
        List.exists
          (fun v ->
            match Hashtbl.find_opt latch_of_var v with
            | Some l -> List.mem l !block
            | None -> false)
          supports.(j)
        || List.exists
             (fun v ->
               match Hashtbl.find_opt latch_of_var v with
               | Some l -> l = j
               | None -> false)
             (List.concat_map (fun l -> supports.(l)) !block)
      in
      let continue = ref true in
      while !continue && List.length !block < k do
        match
          List.find_opt
            (fun j -> (not assigned.(j)) && related j)
            (List.init n (fun j -> j))
        with
        | Some j ->
          assigned.(j) <- true;
          block := j :: !block
        | None -> continue := false
      done;
      blocks := List.sort compare !block :: !blocks
    end
  done;
  List.rev !blocks

(* Reachable over-approximation of one block: a fixpoint where the image
   existentially quantifies all inputs and all state variables outside the
   block (they are completely free).  Sound and monotone. *)
let block_reachable ?(max_iterations = 10_000) trans block =
  let m = trans.Trans.m in
  let in_block = Hashtbl.create 8 in
  List.iter (fun i -> Hashtbl.replace in_block i ()) block;
  let outside_cs =
    List.concat
      (List.init (Array.length trans.Trans.cs_vars) (fun i ->
           if Hashtbl.mem in_block i then [] else [ trans.Trans.cs_vars.(i) ]))
  in
  let quantified = Array.to_list trans.Trans.pi_vars @ outside_cs in
  let init =
    Bdd.cube m
      (List.map (fun i -> (trans.Trans.cs_vars.(i), Aig.latch_init trans.Trans.aig i)) block)
  in
  (* relation over (block cs) -> (block ns) with everything else free *)
  let step from =
    let conj =
      List.fold_left
        (fun acc i ->
          Bdd.mk_and m acc
            (Bdd.mk_iff m (Bdd.var m trans.Trans.ns_vars.(i)) trans.Trans.next_fns.(i)))
        Bdd.one block
    in
    let img = Bdd.and_exists m (Array.to_list trans.Trans.cs_vars) from conj in
    let img = Bdd.exists m (Array.to_list trans.Trans.pi_vars) img in
    let perm = List.map (fun i -> (trans.Trans.ns_vars.(i), trans.Trans.cs_vars.(i))) block in
    Bdd.rename m img perm
  in
  ignore quantified;
  let rec loop reached k =
    if k >= max_iterations then reached
    else begin
      let img = step reached in
      let next = Bdd.mk_or m reached img in
      if Bdd.equal next reached then reached else loop next (k + 1)
    end
  in
  loop init 0

(* The conjunction of all block approximations: an upper bound on the
   reachable state space, over the cs variables. *)
let upper_bound ?(block_size = 8) trans =
  let blocks = partition_latches trans ~k:block_size in
  List.fold_left
    (fun acc block -> Bdd.mk_and trans.Trans.m acc (block_reachable trans block))
    Bdd.one blocks
