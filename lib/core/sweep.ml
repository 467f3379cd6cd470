(* The engine-independent half of the greatest fixed point of Eq. (3).

   The fixed point belongs to the product machine, not to the engine that
   checks a class: the BDD engine (the paper's implementation) and the SAT
   engine (its future-work variant) run the same sweep and differ only in
   how one class is checked and how Eq. (2) is refined.  This module owns
   the sweep's shared state and protocol:

   - the counterexample pattern pool ({!Simpool}): each witness is packed
     as a bit lane and replayed against every class at once;

   - class selection with a stability cache: a class proven stable at
     partition version V is skipped while the version stands, and checked
     again after any split.  A sweep that splits nothing has therefore
     checked (or holds a proof of) every class at the version it ends on:
     it is the fixed point;

   - the sweep counters, and the one budget exception every engine, the
     speculation screen and Verify's own poll raise. *)

exception Budget_exceeded of string

type t = {
  pool : Simpool.t; (* accumulated counterexample patterns *)
  proved_at : (int, int) Hashtbl.t; (* class -> version proven stable *)
  mutable batched : int; (* batched class solves / scans performed *)
  mutable cache_hits : int; (* classes skipped by the stability cache *)
}

let create aig =
  { pool = Simpool.create aig; proved_at = Hashtbl.create 256; batched = 0; cache_hits = 0 }

let harvest t =
  {
    Counters.zero with
    Counters.pool_lanes = Simpool.total_lanes t.pool;
    resim_splits = Simpool.resim_splits t.pool;
    batched_solves = t.batched;
    cache_hits = t.cache_hits;
  }

(* Pool one witness valuation (inputs, state), flushing a full buffer
   first; returns the classes that flush created. *)
let add_witness t partition pi latch =
  let created = if Simpool.is_full t.pool then Simpool.flush t.pool partition else 0 in
  Simpool.add t.pool ~pi:(fun i -> pi.(i)) ~latch:(fun i -> latch.(i));
  created

(* The pool's pending lanes, which a checkpoint saves and an engine
   handing its partition over passes on.  [reseed] adds them back,
   flushing full buffers on the way: a checkpoint file may list any
   number of lanes. *)
let pending t = Simpool.snapshot t.pool

let reseed t partition patterns =
  List.iter (fun (pi, latch) -> ignore (add_witness t partition pi latch)) patterns

let proved t cls ~version = Hashtbl.replace t.proved_at cls version

(* Record classes another prover (the speculative BDD screen) proved
   stable at the partition's current version: the sweep skips them while
   the version stands, exactly as it skips its own proofs, and checks them
   again once the partition moves on. *)
let mark_proved t partition classes =
  let version = Partition.version partition in
  List.iter (fun cls -> proved t cls ~version) classes

(* The round's tasks, in ascending class order: [task] maps each
   multi-member class not proven at the current version to its task, or
   to [None] when the engine settles it without a check. *)
let select t partition task =
  let version = Partition.version partition in
  List.filter_map
    (fun cls ->
      match Hashtbl.find_opt t.proved_at cls with
      | Some v when v >= version ->
        t.cache_hits <- t.cache_hits + 1;
        None
      | Some _ | None -> task cls)
    (Partition.multi_member_classes partition)
  |> Array.of_list
