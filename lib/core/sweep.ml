(* The engine-independent half of the greatest fixed point of Eq. (3).

   The fixed point belongs to the product machine, not to the engine that
   checks a class: the BDD engine (the paper's implementation) and the SAT
   engine (its future-work variant) run the same sweep and differ only in
   how one class is checked and how Eq. (2) is refined.  This module owns
   the sweep's shared state and protocol:

   - the counterexample pattern pool ({!Simpool}): each witness is packed
     as a bit lane and replayed against every class at once;

   - the zero-cost static prefilter, which splits classes whose members
     have disjoint non-empty PI supports ({!Support.prefilter_class});

   - suspect selection with a stability cache: a class proven stable at
     partition version V is skipped while the version stands, and while
     trusting, also while no later split moved a node in its structural
     support cone ({!Support.suspect});

   - the refinement policy: a trusting sweep, confirmed when quiescent by
     a strict sweep that re-proves every class at the current version, so
     the reported fixed point never rests on the cone heuristic;

   - the sweep counters, and the one budget exception every engine, the
     speculation screen and Verify's own poll raise. *)

exception Budget_exceeded of string

type t = {
  pool : Simpool.t; (* accumulated counterexample patterns *)
  support : Support.t Lazy.t; (* structural cones for dirty scheduling *)
  proved_at : (int, int) Hashtbl.t; (* class -> version proven stable *)
  static_filter : bool; (* split PI-support-incompatible candidates for free *)
  mutable batched : int; (* batched class solves / scans performed *)
  mutable cache_hits : int; (* classes skipped by the stability cache *)
  mutable static_splits : int; (* classes split by the static prefilter *)
}

let create ?(static_filter = false) aig =
  { pool = Simpool.create aig; support = lazy (Support.make aig);
    proved_at = Hashtbl.create 256; static_filter; batched = 0; cache_hits = 0;
    static_splits = 0 }

let harvest t =
  {
    Counters.zero with
    Counters.pool_lanes = Simpool.total_lanes t.pool;
    resim_splits = Simpool.resim_splits t.pool;
    batched_solves = t.batched;
    cache_hits = t.cache_hits;
    static_splits = t.static_splits;
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

(* Split each class into the connected components of PI-support
   compatibility; returns the classes split.  Runs before every pass so
   pairs arising from earlier splits are caught; [Partition.refine_class]
   bumps the version and records moves, so the suspect/strict protocol
   covers these splits like any other. *)
let prefilter t partition =
  if not t.static_filter then 0
  else begin
    let support = Lazy.force t.support in
    List.fold_left
      (fun acc cls ->
        if Support.prefilter_class support partition cls then begin
          t.static_splits <- t.static_splits + 1;
          acc + 1
        end
        else acc)
      0
      (Partition.multi_member_classes partition)
  end

let proved t cls ~version = Hashtbl.replace t.proved_at cls version

(* Record classes another prover (the speculative BDD screen) proved
   stable at the partition's current version: the sweep skips them while
   the version stands, exactly as it skips its own proofs, and the strict
   pass re-proves them once the partition moves on. *)
let mark_proved t partition classes =
  let version = Partition.version partition in
  List.iter (fun cls -> proved t cls ~version) classes

(* The round's tasks, in ascending class order: [task] maps each
   multi-member class the stability cache does not skip ([trust] enables
   the cone-based skip) to its task, or to [None] when the engine settles
   it without a check. *)
let select t partition ~trust task =
  let version = Partition.version partition in
  List.filter_map
    (fun cls ->
      let skip =
        match Hashtbl.find_opt t.proved_at cls with
        | Some v ->
          v >= version
          || (trust && not (Support.suspect (Lazy.force t.support) partition cls ~proved_at:v))
        | None -> false
      in
      if skip then begin
        t.cache_hits <- t.cache_hits + 1;
        None
      end
      else task cls)
    (Partition.multi_member_classes partition)
  |> Array.of_list

(* One refinement iteration of an engine's [sweep] (which returns whether
   any class split): a trusting sweep over suspect classes, confirmed by a
   strict sweep when quiescent. *)
let refine_once sweep = sweep ~trust:true || sweep ~trust:false
