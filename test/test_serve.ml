(* Tests of the serve subsystem: JSON/protocol round-trips and
   malformed-line rejection, the bounded job queue, the fingerprint-keyed
   result cache (hit/miss/eviction, disk persistence, warm-start probe),
   and the daemon end to end over a real Unix socket — including the
   qcheck property that a cached verdict equals a fresh re-run's. *)

let aig_pair ?(n_inputs = 3) ?(n_latches = 5) ?(n_gates = 25) seed =
  let c = Test_util.random_circuit ~n_inputs ~n_latches ~n_gates seed in
  let spec, _ = Aig.of_netlist c in
  let impl = Transform.Opt.rewrite ~seed spec in
  (spec, impl)

let suite_pair name =
  let spec = Circuits.Suite.aig_of (Option.get (Circuits.Suite.find name)) in
  let impl = Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt ~seed:5 spec in
  (spec, impl)

(* A pair that is genuinely inequivalent: one latch initialized false
   vs. true, output = latch, so the outputs differ at frame 0. *)
let inequivalent_pair () =
  let build init =
    let a = Aig.create () in
    let i = Aig.add_pi a in
    let l = Aig.add_latch a ~init in
    Aig.set_latch_next a l ~next:i;
    Aig.add_po a "out" l;
    a
  in
  (build false, build true)

let temp_dir () =
  let path = Filename.temp_file "seqver-serve" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

(* --- json ---------------------------------------------------------------------- *)

let test_json_round_trip () =
  let v =
    Serve.Json.Obj
      [
        ("null", Serve.Json.Null);
        ("flag", Serve.Json.Bool true);
        ("n", Serve.Json.Int (-42));
        ("x", Serve.Json.Float 1.5);
        ("s", Serve.Json.String "with \"quotes\", a \\ and a \nnewline");
        ("xs", Serve.Json.List [ Serve.Json.Int 1; Serve.Json.String "two"; Serve.Json.Null ]);
        ("nested", Serve.Json.Obj [ ("empty", Serve.Json.List []) ]);
      ]
  in
  let text = Serve.Json.to_string v in
  Alcotest.(check bool) "single line" false (String.contains text '\n');
  Alcotest.(check bool) "round trips" true (Serve.Json.of_string text = v)

let test_json_floats_plain () =
  (* cram scripts extract floats with sed: no exponents allowed *)
  let text = Serve.Json.to_string (Serve.Json.Float 1.5e-5) in
  Alcotest.(check string) "fixed-point" "0.000015" text;
  Alcotest.(check bool) "no exponent" false (String.contains text 'e')

(* A float reads back as the same double however many decimals that takes:
   a sum of clock differences near 1.7e9 s is a multiple of 2^-22 and
   needs 22 of them, a subnormal needs over 300. *)
let test_json_floats_exact () =
  let since a b = (1.7e9 +. b) -. (1.7e9 +. a) in
  List.iter
    (fun f ->
      let text = Serve.Json.to_string (Serve.Json.Float f) in
      Alcotest.(check bool) (text ^ " has no exponent") false (String.contains text 'e');
      match Serve.Json.of_string text with
      | Serve.Json.Float g ->
        Alcotest.(check bool) (text ^ " reads back") true
          (Int64.bits_of_float g = Int64.bits_of_float f)
      | _ -> Alcotest.fail (text ^ " does not read back as a float"))
    [
      0.1; 1.0 /. 3.0; -2.5; 1e300; ldexp 3. (-22);
      since 0.001 0.004 +. since 0.25 0.2513 +. since 7.0 7.0021;
      5e-324; Float.min_float; -0.0;
    ]

let test_json_rejects_malformed () =
  let rejected s =
    match Serve.Json.of_string s with
    | exception Serve.Json.Parse_error _ -> true
    | _ -> false
  in
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "rejects %S" s) true (rejected s))
    [
      "";
      "{";
      "{\"a\":}";
      "[1,]";
      "\"unterminated";
      "{\"a\":1} trailing";
      "nulle";
      "{'single':1}";
    ]

(* Nesting is bounded, so a line of brackets is refused at the bound
   rather than read to its end: ten million of them fail at offset
   [max_depth], in well under a second (unbounded, this took minutes). *)
let test_json_rejects_deep_nesting () =
  let nested n = String.make n '[' ^ String.make n ']' in
  Alcotest.(check bool)
    "the bound itself is accepted" true
    (Serve.Json.of_string (nested Serve.Json.max_depth) <> Serve.Json.Null);
  let t0 = Unix.gettimeofday () in
  (match Serve.Json.of_string (String.make 10_000_000 '[') with
  | exception Serve.Json.Parse_error msg ->
    Alcotest.(check string)
      "refused at the bound"
      (Printf.sprintf "nesting deeper than %d at offset %d" Serve.Json.max_depth
         Serve.Json.max_depth)
      msg
  | _ -> Alcotest.fail "ten million brackets parsed");
  Alcotest.(check bool) "fails fast" true (Unix.gettimeofday () -. t0 < 1.0);
  match Serve.Json.of_string (nested (Serve.Json.max_depth + 1)) with
  | exception Serve.Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "one level past the bound parsed"

(* --- protocol ------------------------------------------------------------------- *)

let requests =
  [
    Serve.Protocol.Submit
      {
        spec = Serve.Protocol.Path "spec.blif";
        impl = Serve.Protocol.Aag "aag 0 0 0 0 0\n";
        opts = { Serve.Protocol.default_opts with engine = "sat"; induction = 2; deadline = 1.5 };
        watch = true;
      };
    Serve.Protocol.Submit
      {
        spec = Serve.Protocol.Path "spec.blif";
        impl = Serve.Protocol.Path "impl.aag";
        opts = { Serve.Protocol.default_opts with engine = "sat"; speculate = true };
        watch = false;
      };
    Serve.Protocol.Status "job-1";
    Serve.Protocol.Result { job = "job-2"; wait = true };
    Serve.Protocol.Cancel "job-3";
    Serve.Protocol.Stats;
    Serve.Protocol.Shutdown;
  ]

let sample_outcome =
  {
    Serve.Protocol.verdict = "not_equivalent";
    frame = 1;
    trace = [ "010"; "111" ];
    cached = true;
    runtime = 0.25;
    queue_wait = 0.125;
    resumed_iterations = 3;
    counters =
      Scorr.Counters.to_list
        {
          Scorr.Counters.zero with
          Scorr.Counters.iterations = 7;
          classes = 11;
          peak_bdd_nodes = 31;
          sat_calls = 13;
          conflicts = 17;
          propagations = 19_000;
          restarts = 2;
          reused_clauses = 23;
          shared_clauses = 5;
          spec_rounds = 2;
          spec_merges = 29;
          refuted_assumptions = 3;
          spec_by_sim = 1;
          spec_by_bdd = 4;
          spec_by_sat = 6;
          domains = 2;
          lane_solves = [ 8; 5 ];
          sched_wait_seconds = 0.375;
          eq_pct = 87.5;
        };
    cert = Some "cache/x/cert";
    reason = Some "because";
  }

let responses =
  [
    Serve.Protocol.Submitted { job = "job-1"; cached = false };
    Serve.Protocol.Job_status { job = "job-1"; state = "queued"; queue_pos = 2 };
    Serve.Protocol.Progress
      { job = "job-1"; round = 1; iteration = 4; classes = 9; engine = "sat-k2" };
    Serve.Protocol.Job_result { job = "job-1"; outcome = sample_outcome };
    Serve.Protocol.Job_result
      {
        job = "job-2";
        outcome =
          {
            sample_outcome with
            Serve.Protocol.verdict = "equivalent";
            frame = -1;
            trace = [];
            cert = None;
            reason = None;
          };
      };
    Serve.Protocol.Cancelled { job = "job-1"; state = "cancelling" };
    Serve.Protocol.Stats_report
      {
        Serve.Protocol.uptime = 12.5;
        jobs_submitted = 4;
        jobs_done = 2;
        jobs_cached = 1;
        jobs_cancelled = 1;
        queue_len = 1;
        running = 1;
        workers = 2;
        cache_entries = 3;
        cache_hits = 1;
        cache_misses = 3;
        cache_evictions = 0;
        warm_starts = 1;
        jobs =
          [
            { Serve.Protocol.js_job = "job-1"; js_state = "done"; js_sched_wait = 0.5 };
            { Serve.Protocol.js_job = "job-2"; js_state = "running"; js_sched_wait = 0.25 };
          ];
      };
    Serve.Protocol.Bye;
    Serve.Protocol.Error_resp "queue full (64 jobs)";
  ]

let test_request_round_trip () =
  List.iter
    (fun req ->
      let line = Serve.Protocol.request_to_line req in
      Alcotest.(check bool) "one line" false (String.contains line '\n');
      match Serve.Protocol.decode_request line with
      | Ok req' -> Alcotest.(check bool) ("round trips: " ^ line) true (req = req')
      | Error msg -> Alcotest.fail (Printf.sprintf "decode of %s failed: %s" line msg))
    requests

let test_response_round_trip () =
  List.iter
    (fun resp ->
      let line = Serve.Protocol.response_to_line resp in
      Alcotest.(check bool) "one line" false (String.contains line '\n');
      match Serve.Protocol.decode_response line with
      | Ok resp' -> Alcotest.(check bool) ("round trips: " ^ line) true (resp = resp')
      | Error msg -> Alcotest.fail (Printf.sprintf "decode of %s failed: %s" line msg))
    responses

let test_protocol_rejects_malformed () =
  let rejected line =
    match Serve.Protocol.decode_request line with Ok _ -> false | Error _ -> true
  in
  List.iter
    (fun line -> Alcotest.(check bool) (Printf.sprintf "rejects %S" line) true (rejected line))
    [
      "not json at all";
      "{}";
      "{\"req\":\"frobnicate\"}";
      "{\"req\":\"submit\"}";
      "{\"req\":\"submit\",\"spec\":{},\"impl\":{\"path\":\"b\"}}";
      "{\"req\":\"submit\",\"spec\":{\"path\":\"a\",\"aag\":\"x\"},\"impl\":{\"path\":\"b\"}}";
      "{\"req\":\"status\"}";
      "{\"req\":\"result\",\"job\":42}";
      "[1,2,3]";
    ];
  match Serve.Protocol.decode_response "{\"resp\":\"nope\"}" with
  | Ok _ -> Alcotest.fail "unknown response accepted"
  | Error _ -> ()

(* A submission deeper than the induction bound is a decoding error: the
   daemon answers it with an [error] response before any job exists. *)
let test_protocol_bounds_induction () =
  let submit k =
    Printf.sprintf
      "{\"req\":\"submit\",\"spec\":{\"path\":\"a\"},\"impl\":{\"path\":\"b\"},\
       \"opts\":{\"engine\":\"sat\",\"induction\":%d}}"
      k
  in
  (match Serve.Protocol.decode_request (submit Scorr.Verify.max_induction) with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("bound itself rejected: " ^ msg));
  List.iter
    (fun k ->
      let before = Gc.allocated_bytes () in
      (match Serve.Protocol.decode_request (submit k) with
      | Ok _ -> Alcotest.failf "accepted induction %d" k
      | Error _ -> ());
      Alcotest.(check bool)
        (Printf.sprintf "induction %d allocates little" k)
        true
        (Gc.allocated_bytes () -. before < 1e6))
    [ Scorr.Verify.max_induction + 1; 400_000_000 ]

let test_trace_strings () =
  let trace = [| [| true; false; true |]; [| false; false; true |] |] in
  let strings = Serve.Protocol.trace_to_strings trace in
  Alcotest.(check (list string)) "encoded" [ "101"; "001" ] strings;
  Alcotest.(check bool) "decodes back" true (Serve.Protocol.trace_of_strings strings = trace)

(* --- the counter table ------------------------------------------------------------ *)

let test_counter_table_unique () =
  let unique what xs =
    Alcotest.(check int) (what ^ " are unique") (List.length xs)
      (List.length (List.sort_uniq compare xs))
  in
  let fields = Scorr.Counters.fields in
  unique "JSON keys" (List.map (fun (f : Scorr.Counters.field) -> f.key) fields);
  unique "CLI labels" (List.map (fun (f : Scorr.Counters.field) -> f.label) fields);
  (* the counters are written flat into the outcome object: no key of the
     table may shadow one of the outcome's own *)
  let own = match Serve.Protocol.outcome_to_json { sample_outcome with counters = [] } with
    | Serve.Json.Obj members -> List.map fst members
    | _ -> Alcotest.fail "an outcome encodes as an object"
  in
  unique "outcome keys" (own @ List.map (fun (f : Scorr.Counters.field) -> f.key) fields)

(* A real run's counters survive stats -> outcome JSON -> decode, every one
   with an equal value. *)
let check_counters_round_trip options =
  let spec, impl = suite_pair "ctr8" in
  let stats = Scorr.verdict_stats (Scorr.check ~options spec impl) in
  let outcome = { sample_outcome with Serve.Protocol.counters = Scorr.Counters.to_list stats } in
  let line = Serve.Protocol.response_to_line (Serve.Protocol.Job_result { job = "j"; outcome }) in
  match Serve.Protocol.decode_response line with
  | Ok (Serve.Protocol.Job_result { outcome = decoded; _ }) ->
    let back = Scorr.Counters.of_list decoded.counters in
    List.iter
      (fun (f : Scorr.Counters.field) ->
        Alcotest.(check bool) (f.key ^ " survives") true (f.get back = f.get stats))
      Scorr.Counters.fields;
    stats
  | Ok _ | Error _ -> Alcotest.fail ("the outcome does not decode: " ^ line)

let test_counters_round_trip () =
  let sat =
    { Scorr.default_options with Scorr.Verify.engine = Scorr.Verify.Sat_engine; sat_unroll = 1 }
  in
  let plain = check_counters_round_trip { sat with use_speculation = false } in
  Alcotest.(check bool) "the SAT run did solver work" true (plain.Scorr.Verify.conflicts > 0);
  (* several lanes: the scheduler's float timings need many decimals *)
  ignore (check_counters_round_trip { sat with use_speculation = false; jobs = 4 });
  let spec = check_counters_round_trip { sat with use_speculation = true } in
  Alcotest.(check bool) "the speculative run speculated" true (spec.Scorr.Verify.spec_rounds > 0)

(* An outcome line without some counter key still decodes, the counter
   at zero, as lines from an older daemon do. *)
let test_missing_counter_decodes () =
  let json = Serve.Protocol.outcome_to_json sample_outcome in
  let without =
    match json with
    | Serve.Json.Obj members -> Serve.Json.Obj (List.remove_assoc "conflicts" members)
    | _ -> Alcotest.fail "an outcome encodes as an object"
  in
  let line =
    Serve.Json.to_string
      (Serve.Json.Obj
         [ ("resp", Serve.Json.String "result"); ("job", Serve.Json.String "j"); ("outcome", without) ])
  in
  match Serve.Protocol.decode_response line with
  | Ok (Serve.Protocol.Job_result { outcome; _ }) ->
    let c = Scorr.Counters.of_list outcome.counters in
    Alcotest.(check int) "missing counter reads 0" 0 c.Scorr.Counters.conflicts;
    Alcotest.(check int) "other counters intact" 13 c.Scorr.Counters.sat_calls
  | Ok _ | Error _ -> Alcotest.fail ("a line without a counter key does not decode: " ^ line)

(* --- job queue ------------------------------------------------------------------- *)

let test_jobq () =
  let q = Serve.Jobq.create ~capacity:3 in
  Alcotest.(check bool) "push 1" true (Serve.Jobq.push q 1);
  Alcotest.(check bool) "push 2" true (Serve.Jobq.push q 2);
  Alcotest.(check bool) "push 3" true (Serve.Jobq.push q 3);
  Alcotest.(check bool) "bounded" false (Serve.Jobq.push q 4);
  Alcotest.(check int) "length" 3 (Serve.Jobq.length q);
  Alcotest.(check (option int)) "position" (Some 1) (Serve.Jobq.position q (fun x -> x = 2));
  Alcotest.(check bool) "remove queued" true (Serve.Jobq.remove q (fun x -> x = 2));
  Alcotest.(check bool) "remove gone" false (Serve.Jobq.remove q (fun x -> x = 2));
  Alcotest.(check (option int)) "fifo" (Some 1) (Serve.Jobq.pop q);
  Alcotest.(check (option int)) "fifo skips removed" (Some 3) (Serve.Jobq.pop q);
  Alcotest.(check bool) "push after drain" true (Serve.Jobq.push q 5);
  Serve.Jobq.close q;
  Alcotest.(check bool) "closed refuses" false (Serve.Jobq.push q 6);
  Alcotest.(check (option int)) "drains after close" (Some 5) (Serve.Jobq.pop q);
  Alcotest.(check (option int)) "empty after close" None (Serve.Jobq.pop q)

let test_jobq_blocking_pop () =
  let q = Serve.Jobq.create ~capacity:4 in
  let consumer = Domain.spawn (fun () -> Serve.Jobq.pop q) in
  (* the consumer blocks until the producer pushes *)
  Unix.sleepf 0.05;
  Alcotest.(check bool) "push wakes consumer" true (Serve.Jobq.push q 7);
  Alcotest.(check (option int)) "consumer got it" (Some 7) (Domain.join consumer)

(* --- cache ------------------------------------------------------------------------ *)

let entry ?(verdict = "equivalent") ?(iterations = 5) () =
  {
    Serve.Cache.v_verdict = verdict;
    v_frame = (if verdict = "not_equivalent" then 1 else -1);
    v_trace = (if verdict = "not_equivalent" then [ "01"; "10" ] else []);
    v_iterations = iterations;
    v_classes = 4;
    v_sat_calls = 9;
    v_eq_pct = 75.0;
    v_cert = None;
  }

let digest_of s = Digest.to_hex (Digest.string s)

let test_cache_hit_miss () =
  let dir = temp_dir () in
  let cache = Serve.Cache.create ~dir () in
  let spec_digest = digest_of "spec" and impl_digest = digest_of "impl" in
  let opts_key = Serve.Cache.options_key Serve.Protocol.default_opts in
  Alcotest.(check bool) "miss" true
    (Serve.Cache.find cache ~spec_digest ~impl_digest ~opts_key = None);
  let e = Serve.Cache.store cache ~spec_digest ~impl_digest ~opts_key (entry ()) in
  Alcotest.(check bool) "hit" true
    (Serve.Cache.find cache ~spec_digest ~impl_digest ~opts_key = Some e);
  (* a different option set is a different key *)
  let opts_key' =
    Serve.Cache.options_key { Serve.Protocol.default_opts with engine = "sat" }
  in
  Alcotest.(check bool) "other options miss" true
    (Serve.Cache.find cache ~spec_digest ~impl_digest ~opts_key:opts_key' = None);
  (* the deadline is not part of the key: conclusive verdicts are
     budget-independent *)
  Alcotest.(check string) "deadline-free key" opts_key
    (Serve.Cache.options_key { Serve.Protocol.default_opts with deadline = 42.0 });
  (* a fresh instance over the same directory answers from disk *)
  let cache2 = Serve.Cache.create ~dir () in
  (match Serve.Cache.find cache2 ~spec_digest ~impl_digest ~opts_key with
  | Some e' -> Alcotest.(check bool) "persisted entry equal" true (e = e')
  | None -> Alcotest.fail "entry did not survive a restart");
  let s = Serve.Cache.stats cache in
  Alcotest.(check int) "hits" 1 s.Serve.Cache.hits;
  Alcotest.(check int) "misses" 2 s.Serve.Cache.misses

let test_cache_not_equivalent_trace () =
  let dir = temp_dir () in
  let cache = Serve.Cache.create ~dir () in
  let spec_digest = digest_of "s" and impl_digest = digest_of "i" in
  let opts_key = Serve.Cache.options_key Serve.Protocol.default_opts in
  let e =
    Serve.Cache.store cache ~spec_digest ~impl_digest ~opts_key (entry ~verdict:"not_equivalent" ())
  in
  let fresh = Serve.Cache.create ~dir () in
  match Serve.Cache.find fresh ~spec_digest ~impl_digest ~opts_key with
  | Some e' ->
    Alcotest.(check string) "verdict" "not_equivalent" e'.Serve.Cache.v_verdict;
    Alcotest.(check int) "frame" e.Serve.Cache.v_frame e'.Serve.Cache.v_frame;
    Alcotest.(check (list string)) "trace" e.Serve.Cache.v_trace e'.Serve.Cache.v_trace
  | None -> Alcotest.fail "trace entry did not persist"

let test_cache_eviction () =
  let dir = temp_dir () in
  let cache = Serve.Cache.create ~capacity:2 ~dir () in
  let opts_key = Serve.Cache.options_key Serve.Protocol.default_opts in
  let digests i = (digest_of (Printf.sprintf "spec%d" i), digest_of (Printf.sprintf "impl%d" i)) in
  List.iter
    (fun i ->
      let spec_digest, impl_digest = digests i in
      ignore (Serve.Cache.store cache ~spec_digest ~impl_digest ~opts_key (entry ~iterations:i ())))
    [ 1; 2; 3 ];
  let s = Serve.Cache.stats cache in
  Alcotest.(check int) "capacity bound" 2 s.Serve.Cache.entries;
  Alcotest.(check int) "one eviction" 1 s.Serve.Cache.evictions;
  (* the evicted entry is gone from memory but still answered from disk *)
  let spec_digest, impl_digest = digests 1 in
  match Serve.Cache.find cache ~spec_digest ~impl_digest ~opts_key with
  | Some e -> Alcotest.(check int) "reloaded from disk" 1 e.Serve.Cache.v_iterations
  | None -> Alcotest.fail "evicted entry lost entirely"

(* Warm-start probe over real checkpoints from an interrupted run. *)
let test_cache_best_checkpoint () =
  let spec, impl = suite_pair "ctr16" in
  let interrupted max_iterations =
    let options =
      {
        Scorr.default_options with
        Scorr.Verify.engine = Scorr.Verify.Sat_engine;
        max_iterations;
        use_retime = false;
      }
    in
    let run = Scorr.Verify.run_with_relation ~options spec impl in
    match Scorr.Verify.checkpoint_of_run ~options ~spec ~impl run with
    | Ok cp -> cp
    | Error msg -> Alcotest.fail ("no checkpoint: " ^ msg)
  in
  let cp1 = interrupted 1 and cp2 = interrupted 2 in
  let dir = temp_dir () in
  let cache = Serve.Cache.create ~dir () in
  let spec_digest = cp2.Scorr.Checkpoint.spec_digest
  and impl_digest = cp2.Scorr.Checkpoint.impl_digest in
  Serve.Cache.store_checkpoint cache ~spec_digest ~impl_digest
    ~opts_key:(Serve.Cache.options_key Serve.Protocol.default_opts)
    cp1;
  Serve.Cache.store_checkpoint cache ~spec_digest ~impl_digest
    ~opts_key:(Serve.Cache.options_key { Serve.Protocol.default_opts with engine = "sat" })
    cp2;
  let seed = cp2.Scorr.Checkpoint.seed in
  (match
     Serve.Cache.best_checkpoint cache ~spec_digest ~impl_digest ~candidates:"all" ~induction:1
       ~seed
   with
  | Some cp ->
    Alcotest.(check int) "most refined wins" cp2.Scorr.Checkpoint.iterations
      cp.Scorr.Checkpoint.iterations
  | None -> Alcotest.fail "no compatible checkpoint found");
  (* a different seed normalizes polarities differently: refused *)
  Alcotest.(check bool) "seed mismatch refused" true
    (Serve.Cache.best_checkpoint cache ~spec_digest ~impl_digest ~candidates:"all" ~induction:1
       ~seed:(seed + 1)
    = None);
  (* a deeper run cannot be seeded by these depth-1 checkpoints *)
  Alcotest.(check bool) "deeper run refused" true
    (Serve.Cache.best_checkpoint cache ~spec_digest ~impl_digest ~candidates:"all" ~induction:2
       ~seed
    = None);
  (* a different pair never matches *)
  Alcotest.(check bool) "other pair refused" true
    (Serve.Cache.best_checkpoint cache ~spec_digest:(digest_of "other") ~impl_digest
       ~candidates:"all" ~induction:1 ~seed
    = None)

(* --- daemon end to end ------------------------------------------------------------ *)

let aag aig = Serve.Protocol.Aag (Aig.Aiger.to_string aig)

(* A daemon whose select loop died keeps its listener open but never
   answers: the receive timeout turns that into a failure, not a hang. *)
let rec connect_retry path tries =
  match Serve.Client.connect ~socket:path () with
  | client ->
    Unix.setsockopt_float client.Serve.Client.fd Unix.SO_RCVTIMEO 60.;
    client
  | exception Serve.Client.Error _ when tries > 0 ->
    Unix.sleepf 0.05;
    connect_retry path (tries - 1)

let with_daemon ?(workers = 2) f =
  let dir = temp_dir () in
  let socket = Filename.concat dir "d.sock" in
  let cfg =
    {
      Serve.Daemon.default_config with
      Serve.Daemon.socket_path = socket;
      workers;
      cache_dir = Filename.concat dir "cache";
    }
  in
  let daemon = Domain.spawn (fun () -> Serve.Daemon.run cfg) in
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = connect_retry socket 2 in
         ignore (Serve.Client.request c Serve.Protocol.Shutdown);
         Serve.Client.close c
       with _ -> ());
      ignore (Domain.join daemon))
    (fun () ->
      let client = connect_retry socket 100 in
      Fun.protect ~finally:(fun () -> Serve.Client.close client) (fun () -> f ~socket ~client))

let submit client spec impl opts =
  snd (Serve.Client.submit_and_wait client ~spec:(aag spec) ~impl:(aag impl) ~opts ())

let test_daemon_end_to_end () =
  with_daemon (fun ~socket ~client ->
      let spec, impl = suite_pair "ctr8" in
      let opts = Serve.Protocol.default_opts in
      let progress = ref 0 in
      let _, o1 =
        Serve.Client.submit_and_wait
          ~on_progress:(fun ~round:_ ~iteration:_ ~classes:_ ~engine:_ -> incr progress)
          client ~spec:(aag spec) ~impl:(aag impl) ~opts ()
      in
      Alcotest.(check string) "verdict" "equivalent" o1.Serve.Protocol.verdict;
      Alcotest.(check bool) "first run not cached" false o1.Serve.Protocol.cached;
      Alcotest.(check bool) "progress streamed" true (!progress > 0);
      (* the persisted certificate validates independently *)
      (match o1.Serve.Protocol.cert with
      | None -> Alcotest.fail "no certificate persisted"
      | Some path ->
        let cert = Cert.Certificate.parse_file path in
        Alcotest.(check bool) "cert fingerprints" true
          (Cert.Certificate.matches_digests
             ~spec_digest:(Scorr.Checkpoint.fingerprint spec)
             ~impl_digest:(Scorr.Checkpoint.fingerprint impl)
             cert);
        (match Cert.Certificate.check ~spec ~impl cert with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Cert.Certificate.explain_check_error e)));
      (* exact resubmission: cache hit with the identical verdict *)
      let o2 = submit client spec impl opts in
      Alcotest.(check bool) "second run cached" true o2.Serve.Protocol.cached;
      Alcotest.(check string) "same verdict" o1.Serve.Protocol.verdict o2.Serve.Protocol.verdict;
      let iterations (o : Serve.Protocol.outcome) =
        (Scorr.Counters.of_list o.counters).Scorr.Counters.iterations
      in
      Alcotest.(check int) "same iterations" (iterations o1) (iterations o2);
      (* modified options over the same pair: a miss, but warm-started
         from the first run's checkpoint *)
      let o3 = submit client spec impl { opts with Serve.Protocol.engine = "sat" } in
      Alcotest.(check bool) "sat run not cached" false o3.Serve.Protocol.cached;
      Alcotest.(check string) "sat verdict" "equivalent" o3.Serve.Protocol.verdict;
      Alcotest.(check bool) "warm started" true (o3.Serve.Protocol.resumed_iterations > 0);
      (* a refuted pair caches its frame and trace *)
      let nspec, nimpl = inequivalent_pair () in
      let o4 = submit client nspec nimpl opts in
      Alcotest.(check string) "refuted" "not_equivalent" o4.Serve.Protocol.verdict;
      Alcotest.(check bool) "has frame" true (o4.Serve.Protocol.frame >= 0);
      Alcotest.(check bool) "has trace" true (o4.Serve.Protocol.trace <> []);
      let o5 = submit client nspec nimpl opts in
      Alcotest.(check bool) "refutation cached" true o5.Serve.Protocol.cached;
      Alcotest.(check int) "same frame" o4.Serve.Protocol.frame o5.Serve.Protocol.frame;
      Alcotest.(check (list string)) "same trace" o4.Serve.Protocol.trace o5.Serve.Protocol.trace;
      (* stats: counters and the per-job sched_wait list *)
      (match Serve.Client.request client Serve.Protocol.Stats with
      | Serve.Protocol.Stats_report s ->
        Alcotest.(check int) "submitted" 5 s.Serve.Protocol.jobs_submitted;
        Alcotest.(check int) "cached" 2 s.Serve.Protocol.jobs_cached;
        Alcotest.(check int) "warm starts" 1 s.Serve.Protocol.warm_starts;
        Alcotest.(check int) "per-job stats" 5 (List.length s.Serve.Protocol.jobs);
        List.iter
          (fun j ->
            Alcotest.(check string) ("done: " ^ j.Serve.Protocol.js_job) "done"
              j.Serve.Protocol.js_state;
            Alcotest.(check bool) "sched wait sane" true (j.Serve.Protocol.js_sched_wait >= 0.0))
          s.Serve.Protocol.jobs
      | _ -> Alcotest.fail "no stats report");
      (* unknown job ids are protocol errors, not crashes *)
      (match Serve.Client.request client (Serve.Protocol.Status "job-99") with
      | Serve.Protocol.Error_resp _ -> ()
      | _ -> Alcotest.fail "unknown job accepted");
      Alcotest.(check bool) "socket live" true (Sys.file_exists socket));
  ()

(* One daemon, a run of hostile submissions: each bad circuit is an
   error response to its client, the front door's extra formats (.v and
   binary .aig on [path]) get their verdict, and the daemon still proves
   the next valid pair. *)
let test_daemon_hostile_requests () =
  with_daemon (fun ~socket ~client ->
      let dir = Filename.dirname socket in
      let write name text =
        let path = Filename.concat dir name in
        Out_channel.with_open_bin path (fun oc -> output_string oc text);
        path
      in
      let spec, impl = suite_pair "ctr8" in
      let opts = Serve.Protocol.default_opts in
      let rejected what bad =
        let req = Serve.Protocol.Submit { spec = bad; impl = aag impl; opts; watch = true } in
        match Serve.Client.request client req with
        | Serve.Protocol.Error_resp _ -> ()
        | _ -> Alcotest.fail (what ^ ": expected an error response")
      in
      rejected "malformed inline aiger" (Serve.Protocol.Aag "aag 1 1 0 1 0\nx\n1\n");
      rejected "huge aag header" (Serve.Protocol.Aag "aag 4611686018427387903 1 0 0 0\n");
      rejected "directory path" (Serve.Protocol.Path dir);
      let counter kind = Circuits.Clocked.reset_counter ~kind ~bits:3 () in
      let binary kind =
        Aig.Aiger.to_binary_string (fst (Aig.of_netlist (Netlist.Clocking.lower (counter kind))))
      in
      let v = write "sync.v" (Netlist.Verilog.design_to_string (counter Netlist.Clocking.Sync)) in
      let verdict impl_name impl_text =
        let impl = Serve.Protocol.Path (write impl_name impl_text) in
        (snd (Serve.Client.submit_and_wait client ~spec:(Serve.Protocol.Path v) ~impl ~opts ()))
          .Serve.Protocol.verdict
      in
      Alcotest.(check string) ".v against its lowering as .aig" "equivalent"
        (verdict "sync.aig" (binary Netlist.Clocking.Sync));
      Alcotest.(check string) "sync .v against async .aig" "not_equivalent"
        (verdict "async.aig" (binary Netlist.Clocking.Async));
      Alcotest.(check string) "valid pair after all that" "equivalent"
        (submit client spec impl opts).Serve.Protocol.verdict)

let test_daemon_cancel_queued () =
  (* one worker: the first (slow) job occupies it, the second sits in
     the queue and is cancelled before it ever starts *)
  with_daemon ~workers:1 (fun ~socket:_ ~client ->
      let slow_spec, slow_impl = suite_pair "ctr16" in
      let quick_spec, quick_impl = suite_pair "ctr8" in
      Serve.Client.send client
        (Serve.Protocol.Submit
           { spec = aag slow_spec; impl = aag slow_impl; opts = Serve.Protocol.default_opts; watch = false });
      Serve.Client.send client
        (Serve.Protocol.Submit
           { spec = aag quick_spec; impl = aag quick_impl; opts = Serve.Protocol.default_opts; watch = false });
      let job1 =
        match Serve.Client.next client with
        | Serve.Protocol.Submitted { job; cached = false } -> job
        | _ -> Alcotest.fail "first submission not accepted"
      in
      let job2 =
        match Serve.Client.next client with
        | Serve.Protocol.Submitted { job; cached = false } -> job
        | _ -> Alcotest.fail "second submission not accepted"
      in
      (match Serve.Client.request client (Serve.Protocol.Cancel job2) with
      | Serve.Protocol.Cancelled _ -> ()
      | _ -> Alcotest.fail "cancel refused");
      (match Serve.Client.request client (Serve.Protocol.Result { job = job2; wait = true }) with
      | Serve.Protocol.Job_result { outcome; _ } ->
        Alcotest.(check string) "cancelled verdict" "cancelled" outcome.Serve.Protocol.verdict
      | _ -> Alcotest.fail "no result for the cancelled job");
      (* the slow job is unaffected *)
      match Serve.Client.request client (Serve.Protocol.Result { job = job1; wait = true }) with
      | Serve.Protocol.Job_result { outcome; _ } ->
        Alcotest.(check string) "slow job completes" "equivalent" outcome.Serve.Protocol.verdict
      | _ -> Alcotest.fail "no result for the slow job")

(* The qcheck property: for random circuit pairs, the daemon's verdict
   equals a fresh in-process run's, the resubmission returns the same
   verdict, and conclusive verdicts come back cached. *)
let test_cached_equals_fresh () =
  with_daemon (fun ~socket:_ ~client ->
      let prop seed =
        let spec, impl = aig_pair ~n_latches:4 ~n_gates:15 seed in
        let opts = Serve.Protocol.default_opts in
        (* mirror the daemon's option mapping for the same protocol opts *)
        let fresh_options =
          {
            Scorr.default_options with
            Scorr.Verify.engine = Scorr.Verify.Bdd_engine;
            sat_unroll = max 1 opts.Serve.Protocol.induction;
            seed = opts.Serve.Protocol.seed;
            use_analysis = opts.Serve.Protocol.analysis;
            deadline_seconds = opts.Serve.Protocol.deadline;
            preflight = false;
            jobs = 1;
          }
        in
        let fresh =
          match Scorr.check ~options:fresh_options spec impl with
          | Scorr.Equivalent _ -> "equivalent"
          | Scorr.Not_equivalent _ -> "not_equivalent"
          | Scorr.Unknown _ -> "unknown"
        in
        let o1 = submit client spec impl opts in
        let o2 = submit client spec impl opts in
        String.equal o1.Serve.Protocol.verdict fresh
        && String.equal o2.Serve.Protocol.verdict fresh
        && o2.Serve.Protocol.cached = (fresh <> "unknown")
      in
      QCheck.Test.check_exn
        (QCheck.Test.make ~count:8 ~name:"daemon verdict = fresh verdict (and caches)"
           QCheck.(int_range 0 9999)
           prop))

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "floats are plain" `Quick test_json_floats_plain;
          Alcotest.test_case "floats read back exactly" `Quick test_json_floats_exact;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects_malformed;
          Alcotest.test_case "rejects deep nesting fast" `Quick test_json_rejects_deep_nesting;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request round trip" `Quick test_request_round_trip;
          Alcotest.test_case "response round trip" `Quick test_response_round_trip;
          Alcotest.test_case "rejects malformed lines" `Quick test_protocol_rejects_malformed;
          Alcotest.test_case "bounds the induction depth" `Quick test_protocol_bounds_induction;
          Alcotest.test_case "trace bit strings" `Quick test_trace_strings;
        ] );
      ( "counters",
        [
          Alcotest.test_case "keys and labels are unique" `Quick test_counter_table_unique;
          Alcotest.test_case "a run's counters round-trip" `Quick test_counters_round_trip;
          Alcotest.test_case "a missing counter key decodes" `Quick test_missing_counter_decodes;
        ] );
      ( "jobq",
        [
          Alcotest.test_case "fifo, bounds, remove, close" `Quick test_jobq;
          Alcotest.test_case "blocking pop" `Quick test_jobq_blocking_pop;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit, miss, persistence" `Quick test_cache_hit_miss;
          Alcotest.test_case "refutation entries" `Quick test_cache_not_equivalent_trace;
          Alcotest.test_case "lru eviction" `Quick test_cache_eviction;
          Alcotest.test_case "warm-start probe" `Quick test_cache_best_checkpoint;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "end to end" `Slow test_daemon_end_to_end;
          Alcotest.test_case "cancel a queued job" `Slow test_daemon_cancel_queued;
          Alcotest.test_case "survives hostile requests" `Slow test_daemon_hostile_requests;
          Alcotest.test_case "cached = fresh (qcheck)" `Slow test_cached_equals_fresh;
        ] );
    ]
