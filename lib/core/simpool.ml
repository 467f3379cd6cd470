(* Counterexample pattern pool: every SAT/BDD counterexample is one
   (state, input) valuation of the product machine.  Instead of spending a
   full partition walk on each model, the valuations are packed as bit
   lanes into a 64-wide pattern buffer; one bit-parallel [Aig.Sim] pass
   then splits *all* classes against *all* accumulated patterns at once,
   so every solver model keeps paying off across later sweep iterations.

   Soundness: a lane is only ever added for a valuation witnessed by a run
   that conforms to the correspondence condition of some partition coarser
   than (or equal to) the current one — an Eq.(3) witness — or by a run
   from the initial state within the base-case window — an Eq.(2) witness.
   Both kinds can never separate signals of the greatest fixed point, so
   flushing is an exact accelerator: the final relation is unchanged. *)

type t = {
  aig : Aig.t;
  n_pis : int;
  n_latches : int;
  pi_words : int64 array;
  latch_words : int64 array;
  mutable lanes : int; (* filled bit lanes of the current buffer, 0..64 *)
  mutable total_lanes : int; (* lanes ever added *)
  mutable flushes : int;
  mutable resim_splits : int; (* classes created by flushes *)
}

let create aig =
  {
    aig;
    n_pis = Aig.num_pis aig;
    n_latches = Aig.num_latches aig;
    pi_words = Array.make (Aig.num_pis aig) 0L;
    latch_words = Array.make (Aig.num_latches aig) 0L;
    lanes = 0;
    total_lanes = 0;
    flushes = 0;
    resim_splits = 0;
  }

let lanes t = t.lanes
let total_lanes t = t.total_lanes
let flushes t = t.flushes
let resim_splits t = t.resim_splits
let is_full t = t.lanes >= 64

(* Pack one counterexample valuation into the next free lane.  [pi] and
   [latch] read the model by input / latch index. *)
let add t ~pi ~latch =
  if is_full t then invalid_arg "Simpool.add: pool is full";
  let bit = Int64.shift_left 1L t.lanes in
  for i = 0 to t.n_pis - 1 do
    if pi i then t.pi_words.(i) <- Int64.logor t.pi_words.(i) bit
  done;
  for i = 0 to t.n_latches - 1 do
    if latch i then t.latch_words.(i) <- Int64.logor t.latch_words.(i) bit
  done;
  t.lanes <- t.lanes + 1;
  t.total_lanes <- t.total_lanes + 1

(* One bit-parallel pass over the product AIG: split every class by the
   normalized valuation of its members on all buffered patterns (unused
   lanes are masked out — an empty lane is *not* a witness).  Returns the
   number of classes created and resets the buffer. *)
let flush t partition =
  if t.lanes = 0 then 0
  else begin
    let mask =
      if t.lanes >= 64 then -1L else Int64.sub (Int64.shift_left 1L t.lanes) 1L
    in
    let values =
      Aig.Sim.eval_comb t.aig ~pi_words:t.pi_words ~latch_words:t.latch_words
    in
    let created =
      Partition.refine_by_key partition (fun id ->
          Int64.logand (Aig.Sim.lit_word values (Partition.norm_lit partition id)) mask)
    in
    Array.fill t.pi_words 0 t.n_pis 0L;
    Array.fill t.latch_words 0 t.n_latches 0L;
    t.lanes <- 0;
    t.flushes <- t.flushes + 1;
    t.resim_splits <- t.resim_splits + created;
    created
  end

(* Pool one witness valuation (inputs, state), flushing a full buffer
   first; returns the classes that flush created. *)
let add_witness t partition pi latch =
  let created = if is_full t then flush t partition else 0 in
  add t ~pi:(Array.get pi) ~latch:(Array.get latch);
  created

(* Pending lanes as concrete (input, state) valuations, oldest first —
   the checkpoint image of the buffer, which an engine handing its
   partition over passes on too.  [reseed] adds them back, flushing full
   buffers on the way (a checkpoint file may list any number of lanes),
   so a fresh pool replays exactly the witnesses that had not yet been
   flushed when the run was interrupted. *)
let pending t =
  List.init t.lanes (fun lane ->
      let bit w = Int64.logand (Int64.shift_right_logical w lane) 1L = 1L in
      ( Array.init t.n_pis (fun i -> bit t.pi_words.(i)),
        Array.init t.n_latches (fun i -> bit t.latch_words.(i)) ))

let reseed t partition patterns =
  List.iter (fun (pi, latch) -> ignore (add_witness t partition pi latch)) patterns

let harvest t =
  { Counters.zero with Counters.pool_lanes = t.total_lanes; resim_splits = t.resim_splits }
