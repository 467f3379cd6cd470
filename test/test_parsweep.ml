(* Unit tests of the shared-cursor domain pool behind the parallel sweep
   scheduler: result ordering, failure propagation, stats accounting and
   lifecycle, at one lane (inline path) and several (worker domains). *)

let squares n = Array.init n (fun i -> i * i)

let test_map_ordering jobs () =
  let pool = Scorr.Parsweep.create ~jobs ~init:(fun lane -> lane) in
  let r = Scorr.Parsweep.map pool ~f:(fun _ x -> x * x) (Array.init 100 Fun.id) in
  (* a second batch reuses the same (persistent) domains *)
  let r2 = Scorr.Parsweep.map pool ~f:(fun _ x -> x * x) (Array.init 37 Fun.id) in
  Scorr.Parsweep.shutdown pool;
  Alcotest.(check (array int)) "results in task order" (squares 100) r;
  Alcotest.(check (array int)) "second batch too" (squares 37) r2

let test_empty_tasks () =
  let pool = Scorr.Parsweep.create ~jobs:3 ~init:(fun _ -> ()) in
  let r = Scorr.Parsweep.map pool ~f:(fun () _ -> Alcotest.fail "ran a task") [||] in
  Scorr.Parsweep.shutdown pool;
  Alcotest.(check int) "no results" 0 (Array.length r)

exception Boom of int

let test_exception_propagation jobs () =
  let pool = Scorr.Parsweep.create ~jobs ~init:(fun _ -> ()) in
  (* of several failing tasks the smallest index must win, so the error
     surfaced to the caller does not depend on lane scheduling *)
  (match
     Scorr.Parsweep.map pool
       ~f:(fun () i -> if i mod 7 = 3 then raise (Boom i) else i)
       (Array.init 50 Fun.id)
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> Alcotest.(check int) "smallest failing index" 3 i);
  (* a failed batch must not poison the pool *)
  let r = Scorr.Parsweep.map pool ~f:(fun () i -> i + 1) (Array.init 10 Fun.id) in
  Scorr.Parsweep.shutdown pool;
  Alcotest.(check (array int)) "pool reusable after failure" (Array.init 10 succ) r

let test_init_failure_propagates () =
  (* lane-state init runs lazily inside the worker; its failure must also
     reach the caller rather than wedge the batch *)
  let pool =
    Scorr.Parsweep.create ~jobs:2 ~init:(fun lane -> if lane > 0 then raise (Boom lane))
  in
  (match Scorr.Parsweep.map pool ~f:(fun _ i -> i) (Array.init 64 Fun.id) with
  | _ -> () (* a tiny task list may finish on lane 0 before lane 1 wakes *)
  | exception Boom 1 -> ());
  Scorr.Parsweep.shutdown pool

let test_stats_accounting () =
  let n = 200 in
  let pool = Scorr.Parsweep.create ~jobs:4 ~init:(fun _ -> ()) in
  ignore (Scorr.Parsweep.map pool ~f:(fun () i -> Sys.opaque_identity (i * i)) (Array.init n Fun.id));
  let s = Scorr.Parsweep.harvest pool in
  Scorr.Parsweep.shutdown pool;
  Alcotest.(check int) "domains" 4 s.Scorr.Counters.domains;
  Alcotest.(check int) "lane count" 4 (List.length s.lane_solves);
  Alcotest.(check int) "every task counted exactly once" n
    (List.fold_left ( + ) 0 s.lane_solves);
  Alcotest.(check bool) "wait time non-negative" true (s.sched_wait_seconds >= 0.0)

(* Uneven task costs keep three lanes racing on the shared cursor: a busy
   loop whose length varies by two orders of magnitude with the index. *)
let busy i =
  let acc = ref i in
  for j = 1 to (i * 7919 mod 97 + 1) * 400 do
    acc := (!acc * 31 + j) land 0xffff
  done;
  Sys.opaque_identity !acc

let test_contended_cursor () =
  let pool = Scorr.Parsweep.create ~jobs:3 ~init:(fun _ -> ()) in
  let sizes = [ 150; 7; 301; 64; 2 ] in
  List.iter
    (fun n ->
      let r = Scorr.Parsweep.map pool ~f:(fun () i -> ignore (busy i); i * i) (Array.init n Fun.id) in
      Alcotest.(check (array int)) (Printf.sprintf "batch of %d in task order" n) (squares n) r)
    sizes;
  (* failures among uneven tasks: the smallest failing index still wins *)
  (match
     Scorr.Parsweep.map pool
       ~f:(fun () i -> if busy i >= 0 && i >= 40 && i mod 13 = 5 then raise (Boom i) else i)
       (Array.init 200 Fun.id)
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> Alcotest.(check int) "smallest failing index" 44 i);
  let s = Scorr.Parsweep.harvest pool in
  Scorr.Parsweep.shutdown pool;
  Alcotest.(check int) "every task run counted once" (List.fold_left ( + ) 200 sizes)
    (List.fold_left ( + ) 0 s.Scorr.Counters.lane_solves)

let test_jobs_clamped () =
  let pool = Scorr.Parsweep.create ~jobs:(-3) ~init:(fun _ -> ()) in
  Alcotest.(check int) "non-positive jobs become one lane" 1
    (Scorr.Parsweep.jobs pool);
  Scorr.Parsweep.shutdown pool

let test_shutdown_lifecycle () =
  let pool = Scorr.Parsweep.create ~jobs:2 ~init:(fun _ -> ()) in
  Scorr.Parsweep.shutdown pool;
  Scorr.Parsweep.shutdown pool (* idempotent *);
  Alcotest.check_raises "map after shutdown rejected"
    (Invalid_argument "Parsweep.map: pool is shut down") (fun () ->
      ignore (Scorr.Parsweep.map pool ~f:(fun () i -> i) [| 0 |]))

let suite =
  [ Alcotest.test_case "map ordering, one lane" `Quick (test_map_ordering 1);
    Alcotest.test_case "map ordering, three lanes" `Quick (test_map_ordering 3);
    Alcotest.test_case "empty task list" `Quick test_empty_tasks;
    Alcotest.test_case "exception propagation, one lane" `Quick
      (test_exception_propagation 1);
    Alcotest.test_case "exception propagation, three lanes" `Quick
      (test_exception_propagation 3);
    Alcotest.test_case "init failure propagates" `Quick test_init_failure_propagates;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
    Alcotest.test_case "shared cursor under uneven tasks" `Quick test_contended_cursor;
    Alcotest.test_case "jobs clamped to one" `Quick test_jobs_clamped;
    Alcotest.test_case "shutdown lifecycle" `Quick test_shutdown_lifecycle;
  ]

let () = Alcotest.run "parsweep" [ ("parsweep", suite) ]
