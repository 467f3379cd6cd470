(* Shared helpers for the test suites: random circuit generation and
   sequential-behaviour comparison. *)

let gate_fns =
  [| Netlist.And; Netlist.Or; Netlist.Nand; Netlist.Nor; Netlist.Xor;
     Netlist.Xnor; Netlist.Not; Netlist.Buf |]

(* A random well-formed sequential circuit.  Gates only reference earlier
   nets, so the combinational part is acyclic by construction; latch data
   inputs may reference any net, giving real sequential feedback. *)
let random_circuit ?(n_inputs = 4) ?(n_latches = 3) ?(n_gates = 20) ?(n_outputs = 2) seed =
  let rng = Random.State.make [| seed; 0xc1c |] in
  let c = Netlist.create (Printf.sprintf "rand%d" seed) in
  let nets = ref [] in
  for i = 0 to n_inputs - 1 do
    nets := Netlist.add_input ~name:(Printf.sprintf "in%d" i) c :: !nets
  done;
  let latch_nets =
    List.init n_latches (fun i ->
        let l =
          Netlist.add_latch ~name:(Printf.sprintf "q%d" i) c
            ~init:(Random.State.bool rng)
        in
        nets := l :: !nets;
        l)
  in
  let pick () =
    let pool = !nets in
    List.nth pool (Random.State.int rng (List.length pool))
  in
  for _ = 1 to n_gates do
    let fn = gate_fns.(Random.State.int rng (Array.length gate_fns)) in
    let arity =
      match fn with
      | Netlist.Not | Netlist.Buf -> 1
      | Netlist.And | Netlist.Or | Netlist.Nand | Netlist.Nor | Netlist.Xor
      | Netlist.Xnor ->
        1 + Random.State.int rng 3
      | Netlist.Const0 | Netlist.Const1 -> 0
    in
    let fanins = List.init arity (fun _ -> pick ()) in
    nets := Netlist.add_gate c fn fanins :: !nets
  done;
  List.iter (fun l -> Netlist.set_latch_data c l ~data:(pick ())) latch_nets;
  for i = 0 to n_outputs - 1 do
    Netlist.add_output c (Printf.sprintf "out%d" i) (pick ())
  done;
  c

(* Compare two circuits' sequential behaviour on random stimuli.  Both must
   have the same number of inputs and identically named outputs.  Returns
   [None] when all frames agree, otherwise the index of the first
   disagreeing frame. *)
let seq_differ ?(seed = 42) ?(n_frames = 32) c1 c2 =
  let n_inputs = List.length (Netlist.inputs c1) in
  assert (n_inputs = List.length (Netlist.inputs c2));
  let stimuli = Netlist.Sim.random_stimuli ~seed ~n_inputs ~n_frames in
  let o1 = Netlist.Sim.run c1 stimuli and o2 = Netlist.Sim.run c2 stimuli in
  let rec scan i = function
    | [], [] -> None
    | f1 :: r1, f2 :: r2 ->
      let sorted = List.sort compare in
      if sorted f1 <> sorted f2 then Some i else scan (i + 1) (r1, r2)
    | _ -> Some i
  in
  scan 0 (o1, o2)

(* Same comparison at the AIG level. *)
let aig_seq_differ ?(seed = 42) ?(n_frames = 32) a1 a2 =
  let n_pis = Aig.num_pis a1 in
  assert (n_pis = Aig.num_pis a2);
  let frames = Aig.Sim.random_frames ~seed ~n_pis ~n_frames in
  let o1, _ = Aig.Sim.run a1 frames and o2, _ = Aig.Sim.run a2 frames in
  let rec scan i = function
    | [], [] -> None
    | f1 :: r1, f2 :: r2 ->
      let sorted = List.sort compare in
      if sorted f1 <> sorted f2 then Some i else scan (i + 1) (r1, r2)
    | _ -> Some i
  in
  scan 0 (o1, o2)

(* Exhaustive bounded sequential equivalence for tiny circuits: breadth
   first over the joint reachable states, comparing outputs on every input
   vector.  The ground truth oracle for checker tests. *)
let bounded_seq_equiv ?(max_states = 1 lsl 16) a1 a2 =
  let n_pis = Aig.num_pis a1 in
  assert (n_pis = Aig.num_pis a2);
  assert (n_pis <= 10);
  let pack words = Array.to_list words in
  let outputs_and_next a state pi_bits =
    let pi_words =
      Array.init (Aig.num_pis a) (fun i ->
          if pi_bits land (1 lsl i) <> 0 then -1L else 0L)
    in
    let values, next = Aig.Sim.step a ~pi_words ~latch_words:state in
    let outs =
      List.map (fun (name, l) -> (name, Int64.logand 1L (Aig.Sim.lit_word values l)))
        (Aig.pos a)
    in
    (List.sort compare outs, next)
  in
  let seen = Hashtbl.create 256 in
  let queue = Queue.create () in
  let s0 = (Aig.Sim.initial_latch_words a1, Aig.Sim.initial_latch_words a2) in
  Queue.add s0 queue;
  Hashtbl.replace seen (pack (fst s0), pack (snd s0)) ();
  let ok = ref true in
  while !ok && not (Queue.is_empty queue) do
    let s1, s2 = Queue.pop queue in
    for pi_bits = 0 to (1 lsl n_pis) - 1 do
      if !ok then begin
        let o1, n1 = outputs_and_next a1 s1 pi_bits in
        let o2, n2 = outputs_and_next a2 s2 pi_bits in
        if o1 <> o2 then ok := false
        else begin
          let key = (pack n1, pack n2) in
          if not (Hashtbl.mem seen key) then begin
            if Hashtbl.length seen >= max_states then
              failwith "bounded_seq_equiv: state budget exceeded";
            Hashtbl.replace seen key ();
            Queue.add (n1, n2) queue
          end
        end
      end
    done
  done;
  !ok

(* Explicit-state oracle for the maximum signal correspondence relation
   of a small product machine at induction depth [k], independent of the
   engines: every (state, input) point of the product is simulated once,
   and the greatest fixed point is computed over sets of points.

   - Equation (2), generalized to k frames: class members agree on every
     point whose state is reachable from the initial state in fewer than
     k steps.
   - Equation (3): members agree on every point of frame k + 1 of a run
     that starts in any state and satisfies Q on frames 1..k.  Refine
     until no class splits.

   Signals are compared up to polarity, normalized by their value at the
   initial state under the all-zero input.  The result lists the
   multi-member classes, sorted, each member tagged with whether its
   polarity differs from the class's smallest member. *)
let scorr_gfp ?(k = 1) ?(max_points = 1 lsl 18) product =
  let aig = product.Scorr.Product.aig in
  let n_pis = Aig.num_pis aig and n_latches = Aig.num_latches aig in
  let n_nodes = Aig.num_nodes aig in
  if n_pis + n_latches > 62 || 1 lsl (n_pis + n_latches) > max_points then
    invalid_arg "scorr_gfp: product too large to enumerate";
  (* point p = state * 2^n_pis + input *)
  let n_points = 1 lsl (n_pis + n_latches) in
  let n_words = (n_points + 63) / 64 in
  let value = Array.make_matrix n_nodes n_words 0L in
  let next = Array.make n_points 0 in
  let bit w j = Int64.logand (Int64.shift_right_logical w j) 1L = 1L in
  (* word [w] of the bit set of points satisfying [f] *)
  let lane_word w f =
    let acc = ref 0L in
    for j = 0 to 63 do
      let p = (64 * w) + j in
      if p < n_points && f p then acc := Int64.logor !acc (Int64.shift_left 1L j)
    done;
    !acc
  in
  for w = 0 to n_words - 1 do
    let pi_words = Array.init n_pis (fun i -> lane_word w (fun p -> (p lsr i) land 1 = 1)) in
    let latch_words =
      Array.init n_latches (fun l -> lane_word w (fun p -> (p lsr (n_pis + l)) land 1 = 1))
    in
    let values, nexts = Aig.Sim.step aig ~pi_words ~latch_words in
    for id = 0 to n_nodes - 1 do
      value.(id).(w) <- Aig.Sim.lit_word values (Aig.lit_of_node id)
    done;
    for j = 0 to min 63 (n_points - (64 * w) - 1) do
      let s = ref 0 in
      Array.iteri (fun l nw -> if bit nw j then s := !s lor (1 lsl l)) nexts;
      next.((64 * w) + j) <- !s
    done
  done;
  let init_state =
    let s = ref 0 in
    for l = 0 to n_latches - 1 do
      if Aig.latch_init aig l then s := !s lor (1 lsl l)
    done;
    !s
  in
  let test p words = bit words.(p / 64) (p mod 64) in
  let ref_point = init_state lsl n_pis in
  let pol = Array.init n_nodes (fun id -> test ref_point value.(id)) in
  let norm id = if pol.(id) then Array.map Int64.lognot value.(id) else value.(id) in
  let nv = Array.init n_nodes norm in
  (* the points whose state is in [states], as a bit set *)
  let points_of states =
    Array.init n_words (fun w -> lane_word w (fun p -> states.(p lsr n_pis)))
  in
  let successors points =
    let states = Array.make (1 lsl n_latches) false in
    for p = 0 to n_points - 1 do
      if test p points then states.(next.(p)) <- true
    done;
    states
  in
  let all_points = points_of (Array.make (1 lsl n_latches) true) in
  (* the relation: a class id per node; refining by a point set keys each
     node by its class and its normalized values on the set *)
  let cls = Array.make n_nodes 0 in
  let refine points =
    let n_before = 1 + Array.fold_left max 0 cls in
    let keys = Hashtbl.create 64 in
    for id = 0 to n_nodes - 1 do
      let key = (cls.(id), Array.map2 Int64.logand nv.(id) points) in
      match Hashtbl.find_opt keys key with
      | Some c -> cls.(id) <- c
      | None ->
        let c = Hashtbl.length keys in
        Hashtbl.add keys key c;
        cls.(id) <- c
    done;
    Hashtbl.length keys > n_before
  in
  (* Equation (2): frames 0..k-1 from the initial state *)
  let frame_states = Array.make (1 lsl n_latches) false in
  frame_states.(init_state) <- true;
  let reach = ref frame_states in
  let init_states = Array.copy frame_states in
  for _ = 2 to k do
    reach := successors (points_of !reach);
    Array.iteri (fun s b -> if b then init_states.(s) <- true) !reach
  done;
  ignore (refine (points_of init_states));
  (* Equation (3) until stable *)
  let rep = Array.make n_nodes (-1) in
  let rec fix () =
    Array.fill rep 0 n_nodes (-1);
    let good = Array.copy all_points in
    for id = 0 to n_nodes - 1 do
      let c = cls.(id) in
      if rep.(c) < 0 then rep.(c) <- id
      else
        let r = rep.(c) in
        for w = 0 to n_words - 1 do
          good.(w) <- Int64.logand good.(w) (Int64.lognot (Int64.logxor nv.(id).(w) nv.(r).(w)))
        done
    done;
    let frame = ref good in
    for _ = 2 to k do
      frame := Array.map2 Int64.logand good (points_of (successors !frame))
    done;
    if refine (points_of (successors !frame)) then fix ()
  in
  fix ();
  let members = Hashtbl.create 64 in
  for id = n_nodes - 1 downto 0 do
    Hashtbl.replace members cls.(id)
      (id :: Option.value ~default:[] (Hashtbl.find_opt members cls.(id)))
  done;
  Hashtbl.fold
    (fun _ ids acc ->
      match ids with
      | [] | [ _ ] -> acc
      | first :: _ -> List.map (fun id -> (id, pol.(id) <> pol.(first))) ids :: acc)
    members []
  |> List.sort compare
