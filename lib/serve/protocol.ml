(* The serve wire protocol: one JSON object per line, in both directions.

   Requests carry a ["req"] discriminator, responses a ["resp"] one, so a
   line is self-describing and a client can interleave streamed progress
   events with direct replies.  Decoding is total: malformed lines come
   back as [Error msg] (the daemon answers them with an [error] response
   and keeps the connection), never an exception across the boundary.

   Counterexample traces are shipped as one '0'/'1' string per frame
   (["0110", "1011"]) — compact, order-preserving, and trivially
   comparable in shell tests. *)

type circuit =
  | Path of string  (** a file the daemon reads (server-side path) *)
  | Aag of string  (** inline ASCII AIGER text (cwd-independent) *)

type verify_opts = {
  meth : string;  (** ["scorr"] | ["auto"] *)
  engine : string;  (** ["bdd"] | ["sat"] *)
  induction : int;  (** SAT-engine unrolling depth, at most {!Scorr.Verify.max_induction} *)
  seed : int;
  analysis : bool;
  speculate : bool;  (** speculative reduction: the BDD screen in front of the SAT sweep *)
  deadline : float;  (** per-job wall budget, seconds; 0 = none *)
}

let default_opts =
  {
    meth = "scorr";
    engine = "bdd";
    induction = 1;
    seed = 1;
    analysis = false;
    speculate = false;
    deadline = 0.0;
  }

type request =
  | Submit of { spec : circuit; impl : circuit; opts : verify_opts; watch : bool }
  | Status of string
  | Result of { job : string; wait : bool }
  | Cancel of string
  | Stats
  | Shutdown

type outcome = {
  verdict : string;  (** ["equivalent"] | ["not_equivalent"] | ["unknown"] | ["cancelled"] *)
  frame : int;  (** difference frame; -1 when not refuted *)
  trace : string list;  (** witness input bits, one string per frame *)
  cached : bool;  (** verdict served from the result cache *)
  runtime : float;  (** verification seconds (0 for cache hits) *)
  queue_wait : float;  (** seconds from submission to a worker picking it up *)
  resumed_iterations : int;  (** iterations inherited from a warm-start checkpoint *)
  counters : (string * Scorr.Counters.value) list;
      (** the run counters ({!Scorr.Counters.to_list}), written flat into
          the outcome object *)
  cert : string option;  (** on-disk certificate path, when one exists *)
  reason : string option;  (** unknown/cancel reason *)
}

type job_stat = { js_job : string; js_state : string; js_sched_wait : float }

type server_stats = {
  uptime : float;
  jobs_submitted : int;
  jobs_done : int;
  jobs_cached : int;
  jobs_cancelled : int;
  queue_len : int;
  running : int;
  workers : int;
  cache_entries : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  warm_starts : int;
  jobs : job_stat list;  (** per-job scheduling record, submission order *)
}

type response =
  | Submitted of { job : string; cached : bool }
  | Job_status of { job : string; state : string; queue_pos : int }
      (** [queue_pos] is 0-based among queued jobs; -1 when not queued *)
  | Progress of { job : string; round : int; iteration : int; classes : int; engine : string }
  | Job_result of { job : string; outcome : outcome }
  | Cancelled of { job : string; state : string }
  | Stats_report of server_stats
  | Bye
  | Error_resp of string

(* --- encoding ------------------------------------------------------------------ *)

let circuit_to_json = function
  | Path p -> Json.Obj [ ("path", Json.String p) ]
  | Aag text -> Json.Obj [ ("aag", Json.String text) ]

let opts_to_json o =
  Json.Obj
    [
      ("method", Json.String o.meth);
      ("engine", Json.String o.engine);
      ("induction", Json.Int o.induction);
      ("seed", Json.Int o.seed);
      ("analysis", Json.Bool o.analysis);
      ("speculate", Json.Bool o.speculate);
      ("deadline", Json.Float o.deadline);
    ]

let encode_request = function
  | Submit { spec; impl; opts; watch } ->
    Json.Obj
      [
        ("req", Json.String "submit");
        ("spec", circuit_to_json spec);
        ("impl", circuit_to_json impl);
        ("opts", opts_to_json opts);
        ("watch", Json.Bool watch);
      ]
  | Status job -> Json.Obj [ ("req", Json.String "status"); ("job", Json.String job) ]
  | Result { job; wait } ->
    Json.Obj [ ("req", Json.String "result"); ("job", Json.String job); ("wait", Json.Bool wait) ]
  | Cancel job -> Json.Obj [ ("req", Json.String "cancel"); ("job", Json.String job) ]
  | Stats -> Json.Obj [ ("req", Json.String "stats") ]
  | Shutdown -> Json.Obj [ ("req", Json.String "shutdown") ]

let opt_string = function None -> Json.Null | Some s -> Json.String s

(* Counters as JSON members, in table order: also the counter columns of
   a bench row. *)
let counters_to_json counters =
  let json (f : Scorr.Counters.field) = function
    | v when not (Scorr.Counters.measured f v) -> Json.Null
    | Scorr.Counters.Int n -> Json.Int n
    | Float x -> Json.Float x
    | Ints ns -> Json.List (List.map (fun n -> Json.Int n) ns)
  in
  List.filter_map
    (fun (f : Scorr.Counters.field) ->
      Option.map (fun v -> (f.key, json f v)) (List.assoc_opt f.key counters))
    Scorr.Counters.fields

let outcome_to_json o =
  Json.Obj
    ([
      ("verdict", Json.String o.verdict);
      ("frame", Json.Int o.frame);
      ("trace", Json.List (List.map (fun f -> Json.String f) o.trace));
      ("cached", Json.Bool o.cached);
      ("runtime", Json.Float o.runtime);
      ("queue_wait", Json.Float o.queue_wait);
      ("resumed_iterations", Json.Int o.resumed_iterations);
    ]
    @ counters_to_json o.counters
    @ [ ("cert", opt_string o.cert); ("reason", opt_string o.reason) ])

let encode_response = function
  | Submitted { job; cached } ->
    Json.Obj
      [ ("resp", Json.String "submitted"); ("job", Json.String job); ("cached", Json.Bool cached) ]
  | Job_status { job; state; queue_pos } ->
    Json.Obj
      [
        ("resp", Json.String "status");
        ("job", Json.String job);
        ("state", Json.String state);
        ("queue_pos", Json.Int queue_pos);
      ]
  | Progress { job; round; iteration; classes; engine } ->
    Json.Obj
      [
        ("resp", Json.String "progress");
        ("job", Json.String job);
        ("round", Json.Int round);
        ("iteration", Json.Int iteration);
        ("classes", Json.Int classes);
        ("engine", Json.String engine);
      ]
  | Job_result { job; outcome } ->
    Json.Obj
      [ ("resp", Json.String "result"); ("job", Json.String job); ("outcome", outcome_to_json outcome) ]
  | Cancelled { job; state } ->
    Json.Obj
      [ ("resp", Json.String "cancelled"); ("job", Json.String job); ("state", Json.String state) ]
  | Stats_report s ->
    Json.Obj
      [
        ("resp", Json.String "stats");
        ("uptime", Json.Float s.uptime);
        ("jobs_submitted", Json.Int s.jobs_submitted);
        ("jobs_done", Json.Int s.jobs_done);
        ("jobs_cached", Json.Int s.jobs_cached);
        ("jobs_cancelled", Json.Int s.jobs_cancelled);
        ("queue_len", Json.Int s.queue_len);
        ("running", Json.Int s.running);
        ("workers", Json.Int s.workers);
        ("cache_entries", Json.Int s.cache_entries);
        ("cache_hits", Json.Int s.cache_hits);
        ("cache_misses", Json.Int s.cache_misses);
        ("cache_evictions", Json.Int s.cache_evictions);
        ("warm_starts", Json.Int s.warm_starts);
        ( "jobs",
          Json.List
            (List.map
               (fun j ->
                 Json.Obj
                   [
                     ("job", Json.String j.js_job);
                     ("state", Json.String j.js_state);
                     ("sched_wait_seconds", Json.Float j.js_sched_wait);
                   ])
               s.jobs) );
      ]
  | Bye -> Json.Obj [ ("resp", Json.String "bye") ]
  | Error_resp msg -> Json.Obj [ ("resp", Json.String "error"); ("message", Json.String msg) ]

(* --- decoding ------------------------------------------------------------------ *)

exception Malformed of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Malformed msg)) fmt

let circuit_of_json v =
  match (Json.member "path" v, Json.member "aag" v) with
  | Json.String p, Json.Null -> Path p
  | Json.Null, Json.String a -> Aag a
  | Json.Null, Json.Null -> bad "circuit needs a \"path\" or \"aag\" field"
  | _ -> bad "circuit takes exactly one of \"path\" and \"aag\""

let opts_of_json v =
  match v with
  | Json.Null -> default_opts
  | v ->
    let d = default_opts in
    {
      meth = Json.to_str ~default:d.meth (Json.member "method" v);
      engine = Json.to_str ~default:d.engine (Json.member "engine" v);
      induction =
        (match Json.to_int ~default:d.induction (Json.member "induction" v) with
        | k when k > Scorr.Verify.max_induction ->
          bad "induction %d exceeds the bound %d" k Scorr.Verify.max_induction
        | k -> k);
      seed = Json.to_int ~default:d.seed (Json.member "seed" v);
      analysis = Json.to_bool ~default:d.analysis (Json.member "analysis" v);
      speculate = Json.to_bool ~default:d.speculate (Json.member "speculate" v);
      deadline = Json.to_float ~default:d.deadline (Json.member "deadline" v);
    }

let job_field v =
  match Json.member "job" v with
  | Json.String j -> j
  | _ -> bad "missing \"job\" field"

let decode guard line =
  match
    let v = try Json.of_string line with Json.Parse_error msg -> bad "bad JSON: %s" msg in
    guard v
  with
  | r -> Ok r
  | exception Malformed msg -> Error msg
  | exception Json.Parse_error msg -> Error msg

let request_of_json v =
  match Json.member "req" v with
  | Json.String "submit" ->
    Submit
      {
        spec = circuit_of_json (Json.member "spec" v);
        impl = circuit_of_json (Json.member "impl" v);
        opts = opts_of_json (Json.member "opts" v);
        watch = Json.to_bool ~default:false (Json.member "watch" v);
      }
  | Json.String "status" -> Status (job_field v)
  | Json.String "result" ->
    Result { job = job_field v; wait = Json.to_bool ~default:false (Json.member "wait" v) }
  | Json.String "cancel" -> Cancel (job_field v)
  | Json.String "stats" -> Stats
  | Json.String "shutdown" -> Shutdown
  | Json.String other -> bad "unknown request %S" other
  | _ -> bad "missing \"req\" discriminator"

let decode_request line = decode request_of_json line

let string_opt_of_json = function
  | Json.Null -> None
  | Json.String s -> Some s
  | v -> bad "expected a string or null, found %s" (Json.to_string v)

(* Every counter of the table, at its [zero] value when the key is
   missing or null. *)
let counters_of_json v =
  List.map
    (fun (f : Scorr.Counters.field) ->
      let default = f.get Scorr.Counters.zero in
      ( f.key,
        match (Json.member f.key v, default) with
        | Json.Null, _ -> default
        | j, Scorr.Counters.Int _ -> Scorr.Counters.Int (Json.to_int j)
        | j, Float _ -> Float (Json.to_float j)
        | j, Ints _ -> Ints (List.map (fun n -> Json.to_int n) (Json.to_list j)) ))
    Scorr.Counters.fields

let outcome_of_json v =
  {
    verdict = Json.to_str (Json.member "verdict" v);
    frame = Json.to_int ~default:(-1) (Json.member "frame" v);
    trace = List.map (fun f -> Json.to_str f) (Json.to_list (Json.member "trace" v));
    cached = Json.to_bool (Json.member "cached" v);
    runtime = Json.to_float ~default:0.0 (Json.member "runtime" v);
    queue_wait = Json.to_float ~default:0.0 (Json.member "queue_wait" v);
    resumed_iterations = Json.to_int ~default:0 (Json.member "resumed_iterations" v);
    counters = counters_of_json v;
    cert = string_opt_of_json (Json.member "cert" v);
    reason = string_opt_of_json (Json.member "reason" v);
  }

let response_of_json v =
  match Json.member "resp" v with
  | Json.String "submitted" ->
    Submitted { job = job_field v; cached = Json.to_bool (Json.member "cached" v) }
  | Json.String "status" ->
    Job_status
      {
        job = job_field v;
        state = Json.to_str (Json.member "state" v);
        queue_pos = Json.to_int ~default:(-1) (Json.member "queue_pos" v);
      }
  | Json.String "progress" ->
    Progress
      {
        job = job_field v;
        round = Json.to_int ~default:0 (Json.member "round" v);
        iteration = Json.to_int ~default:0 (Json.member "iteration" v);
        classes = Json.to_int ~default:0 (Json.member "classes" v);
        engine = Json.to_str ~default:"" (Json.member "engine" v);
      }
  | Json.String "result" -> Job_result { job = job_field v; outcome = outcome_of_json (Json.member "outcome" v) }
  | Json.String "cancelled" ->
    Cancelled { job = job_field v; state = Json.to_str (Json.member "state" v) }
  | Json.String "stats" ->
    Stats_report
      {
        uptime = Json.to_float ~default:0.0 (Json.member "uptime" v);
        jobs_submitted = Json.to_int ~default:0 (Json.member "jobs_submitted" v);
        jobs_done = Json.to_int ~default:0 (Json.member "jobs_done" v);
        jobs_cached = Json.to_int ~default:0 (Json.member "jobs_cached" v);
        jobs_cancelled = Json.to_int ~default:0 (Json.member "jobs_cancelled" v);
        queue_len = Json.to_int ~default:0 (Json.member "queue_len" v);
        running = Json.to_int ~default:0 (Json.member "running" v);
        workers = Json.to_int ~default:0 (Json.member "workers" v);
        cache_entries = Json.to_int ~default:0 (Json.member "cache_entries" v);
        cache_hits = Json.to_int ~default:0 (Json.member "cache_hits" v);
        cache_misses = Json.to_int ~default:0 (Json.member "cache_misses" v);
        cache_evictions = Json.to_int ~default:0 (Json.member "cache_evictions" v);
        warm_starts = Json.to_int ~default:0 (Json.member "warm_starts" v);
        jobs =
          List.map
            (fun j ->
              {
                js_job = Json.to_str (Json.member "job" j);
                js_state = Json.to_str (Json.member "state" j);
                js_sched_wait = Json.to_float ~default:0.0 (Json.member "sched_wait_seconds" j);
              })
            (Json.to_list (Json.member "jobs" v));
      }
  | Json.String "bye" -> Bye
  | Json.String "error" -> Error_resp (Json.to_str ~default:"" (Json.member "message" v))
  | Json.String other -> bad "unknown response %S" other
  | _ -> bad "missing \"resp\" discriminator"

let decode_response line = decode response_of_json line

let request_to_line r = Json.to_string (encode_request r)
let response_to_line r = Json.to_string (encode_response r)

(* Exit code a scriptable client maps an outcome to: the verify
   convention (0 equivalent, 1 not equivalent, 3 unknown), with
   cancellation grouped under 3 (inconclusive) and anything
   unrecognized under 2 (protocol trouble). *)
let exit_code_of_outcome o =
  match o.verdict with
  | "equivalent" -> 0
  | "not_equivalent" -> 1
  | "unknown" | "cancelled" -> 3
  | _ -> 2

(* Traces cross the wire as bit strings; these adapt the verify-side
   [bool array array] representation. *)
let trace_to_strings trace =
  Array.to_list
    (Array.map
       (fun frame ->
         String.init (Array.length frame) (fun i -> if frame.(i) then '1' else '0'))
       trace)

let trace_of_strings frames =
  List.map (fun s -> Array.init (String.length s) (fun i -> s.[i] = '1')) frames
  |> Array.of_list
