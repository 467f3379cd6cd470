(* Domain pool for sweep scheduling.

   The SAT refinement engine faces an embarrassingly parallel inner loop —
   one independent combinational check per equivalence class and round —
   but each worker needs expensive private state (a SAT solver holding
   the unrolled product CNF) that must be built once and reused across
   every round of every sweep.  This pool owns that shape:

   - [create ~jobs ~init] starts [jobs - 1] persistent worker domains
     (plus the caller, who participates as lane 0); each lane builds its
     private state lazily with [init lane] inside its own domain, so
     solver construction itself is parallel and no state ever crosses a
     domain boundary;

   - [map pool ~f tasks] publishes the task array with one shared atomic
     cursor; every lane claims the next unclaimed index until the cursor
     passes the end, so a lane stuck on a hard class never holds back
     work another lane could take;

   - results are written into per-task slots and returned in task order
     — the caller observes a deterministic, sequential-looking result
     array no matter which lane computed what;

   - a task that raises is recorded (keeping the failure of the
     smallest task index when several lanes fail) and re-raised in the
     caller after the batch completes, so worker domains never die and
     the pool stays usable;

   - at [jobs = 1] everything runs inline in the caller with no domains,
     locks or atomics — the degenerate pool is the SAT engine's
     sequential code path.

   Synchronization is a single mutex + two condition variables
   (work-ready, work-done).  Workers only ever read the frozen snapshot
   the coordinator published before broadcasting, and the coordinator
   only reads results after every lane has checked in, so the mutex
   hand-off establishes all the happens-before edges the OCaml memory
   model needs. *)

type 'w batch = {
  run : 'w -> int -> unit;  (* execute one task slot with a lane's state *)
  next : int Atomic.t;  (* the next unclaimed task index, shared by every lane *)
  n : int;  (* task count *)
}

type 'w t = {
  jobs : int;
  init : int -> 'w;
  mutable state0 : 'w option;  (* the coordinator's lane, built lazily *)
  lock : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable batch : 'w batch option;
  mutable generation : int;
  mutable outstanding : int;  (* spawned lanes still busy on the batch *)
  mutable stop : bool;
  mutable failure : (int * exn * Printexc.raw_backtrace) option;
  lane_tasks : int array;
  mutable wait_seconds : float;
  mutable domains : unit Domain.t array;
  mutable shut : bool;
  states : 'w option array;
      (* every lane's lazily built state, published at init time; the
         coordinator may only read these between batches — the work-done
         hand-off under the mutex gives the happens-before edge *)
}

let jobs t = t.jobs

(* Keep the failure with the smallest task index: with a single lane the
   first failing task wins, so multi-lane runs re-raise the same
   exception a sequential run would have surfaced. *)
let record_failure t idx e bt =
  Mutex.lock t.lock;
  (match t.failure with
  | Some (i, _, _) when i <= idx -> ()
  | _ -> t.failure <- Some (idx, e, bt));
  Mutex.unlock t.lock

(* Claim and run tasks until the shared cursor passes the end. *)
let run_lane t b state lane =
  let rec claim () =
    let idx = Atomic.fetch_and_add b.next 1 in
    if idx < b.n then begin
      (try b.run state idx
       with e -> record_failure t idx e (Printexc.get_raw_backtrace ()));
      t.lane_tasks.(lane) <- t.lane_tasks.(lane) + 1;
      claim ()
    end
  in
  claim ()

let run_lane_safely t b state_of lane =
  match (try Ok (state_of ()) with e -> Error (e, Printexc.get_raw_backtrace ())) with
  | Ok state -> run_lane t b state lane
  | Error (e, bt) ->
    (* [init] failed: report it unless a real task failure outranks it *)
    record_failure t max_int e bt

let worker_loop t lane =
  let state = ref None in
  let state_of () =
    match !state with
    | Some s -> s
    | None ->
      let s = t.init lane in
      state := Some s;
      t.states.(lane) <- Some s;
      s
  in
  let rec loop seen =
    Mutex.lock t.lock;
    while t.generation = seen && not t.stop do
      Condition.wait t.work_ready t.lock
    done;
    if t.stop then Mutex.unlock t.lock
    else begin
      let seen = t.generation in
      let b = match t.batch with Some b -> b | None -> assert false in
      Mutex.unlock t.lock;
      run_lane_safely t b state_of lane;
      Mutex.lock t.lock;
      t.outstanding <- t.outstanding - 1;
      if t.outstanding = 0 then Condition.signal t.work_done;
      Mutex.unlock t.lock;
      loop seen
    end
  in
  loop 0

let create ~jobs ~init =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      init;
      state0 = None;
      lock = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      batch = None;
      generation = 0;
      outstanding = 0;
      stop = false;
      failure = None;
      lane_tasks = Array.make jobs 0;
      wait_seconds = 0.0;
      domains = [||];
      shut = false;
      states = Array.make jobs None;
    }
  in
  if jobs > 1 then
    t.domains <-
      Array.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let state0 t =
  match t.state0 with
  | Some s -> s
  | None ->
    let s = t.init 0 in
    t.state0 <- Some s;
    t.states.(0) <- Some s;
    s

(* The states built so far, in lane order.  Only valid between batches:
   no [map] may be in flight, and the caller must be the coordinator —
   the batch hand-off under the mutex is what makes the workers' writes
   visible here. *)
let initialized_states t =
  Array.to_list t.states |> List.filter_map (fun s -> s)

let map t ~f tasks =
  if t.shut then invalid_arg "Parsweep.map: pool is shut down";
  let n = Array.length tasks in
  if n = 0 then [||]
  else if t.jobs = 1 then begin
    (* inline path: no domains, natural exception propagation *)
    let s = state0 t in
    Array.map
      (fun x ->
        let y = f s x in
        t.lane_tasks.(0) <- t.lane_tasks.(0) + 1;
        y)
      tasks
  end
  else begin
    let results = Array.make n None in
    let run state idx = results.(idx) <- Some (f state tasks.(idx)) in
    let b = { run; next = Atomic.make 0; n } in
    Mutex.lock t.lock;
    t.failure <- None;
    t.batch <- Some b;
    t.generation <- t.generation + 1;
    t.outstanding <- t.jobs - 1;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.lock;
    run_lane_safely t b (fun () -> state0 t) 0;
    let t0 = Clock.now () in
    Mutex.lock t.lock;
    while t.outstanding > 0 do
      Condition.wait t.work_done t.lock
    done;
    t.batch <- None;
    let failure = t.failure in
    t.failure <- None;
    Mutex.unlock t.lock;
    t.wait_seconds <- t.wait_seconds +. Clock.since t0;
    (match failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

(* The scheduler's share of the run counters: lanes (the coordinator's
   lane 0 included), tasks completed per lane, and the coordinator's idle
   time awaiting stragglers. *)
let harvest t =
  {
    Counters.zero with
    Counters.domains = t.jobs;
    lane_solves = Array.to_list t.lane_tasks;
    sched_wait_seconds = t.wait_seconds;
  }

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    if Array.length t.domains > 0 then begin
      Mutex.lock t.lock;
      t.stop <- true;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.lock;
      Array.iter Domain.join t.domains;
      t.domains <- [||]
    end
  end
