(* The seqver verification daemon.

   One main domain owns all the sockets: it accepts connections on a
   Unix socket (and optionally TCP), reads newline-framed JSON requests,
   and answers synchronously.  [workers] worker domains pop jobs from a
   bounded FIFO ({!Jobq}) and run full verifications; they never touch a
   socket.  Results and streamed progress flow back through an event
   list guarded by its own mutex plus a self-pipe byte that wakes the
   main select, so every client write happens on the main domain.

   A submission is answered from the fingerprint-keyed {!Cache} when the
   exact [(spec_md5, impl_md5, option set)] key has a conclusive verdict
   — no queueing, [cached: true] in the result.  A miss enqueues the
   job; before running it, the worker probes the cache's persisted
   checkpoints for the most refined one compatible with the pair
   (fingerprints, candidate set, seed, induction containment — the
   [--resume] validation rules) and warm-starts the fixed point from it.

   Cancellation rides the {!Scorr.Deadline} external flag: every job
   carries one, the verify options attach it to the run's deadline, and
   a [cancel] request trips it, aborting the run within one class solve.

   All timing (queue wait, runtime, uptime) goes through {!Scorr.Clock},
   the monotonic-safe wall clock. *)

type config = {
  socket_path : string;
  tcp_port : int option;  (* listen on 127.0.0.1:port as well *)
  workers : int;
  queue_capacity : int;
  cache_dir : string;
  cache_capacity : int;
  verbose : bool;
}

let default_config =
  {
    socket_path = "seqver.sock";
    tcp_port = None;
    workers = 2;
    queue_capacity = 64;
    cache_dir = ".seqver-cache";
    cache_capacity = 128;
    verbose = false;
  }

type job_state = Queued | Running | Done | Cancelled

let state_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Cancelled -> "cancelled"

type job = {
  id : string;
  spec : Aig.t;
  impl : Aig.t;
  spec_digest : string;
  impl_digest : string;
  opts : Protocol.verify_opts;
  opts_key : string;
  cancel : Scorr.Deadline.flag;
  submitted_at : float;
  mutable state : job_state;
  mutable sched_wait : float;  (* submission -> worker pickup, seconds *)
  mutable cancel_requested : bool;
  mutable outcome : Protocol.outcome option;
  mutable watchers : Unix.file_descr list;  (* clients streaming progress *)
  mutable waiters : Unix.file_descr list;  (* clients blocked in result --wait *)
}

type event =
  | E_progress of string * Scorr.Verify.progress
  | E_done of string * Protocol.outcome

type t = {
  cfg : config;
  cache : Cache.t;
  queue : job Jobq.t;
  mu : Mutex.t;  (* guards jobs, order, counters and job fields *)
  jobs : (string, job) Hashtbl.t;
  mutable order : string list;  (* submission order, reversed *)
  mutable next_id : int;
  mutable n_submitted : int;
  mutable n_done : int;
  mutable n_cached : int;
  mutable n_cancelled : int;
  mutable n_warm_starts : int;
  ev_mu : Mutex.t;
  mutable events : event list;  (* worker -> main, reversed *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  started_at : float;
  mutable stop : bool;
}

let stop_requested = Atomic.make false

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let logf d fmt =
  if d.cfg.verbose then Printf.ksprintf (fun s -> Printf.eprintf "seqver serve: %s\n%!" s) fmt
  else Printf.ksprintf ignore fmt

(* --- events (worker -> main) ---------------------------------------------------- *)

let post_event d ev =
  locked d.ev_mu (fun () -> d.events <- ev :: d.events);
  (* best-effort wake: the select also times out, so a dropped byte only
     delays delivery, never loses it *)
  try ignore (Unix.write_substring d.wake_w "." 0 1) with Unix.Unix_error _ -> ()

let take_events d =
  locked d.ev_mu (fun () ->
      let evs = List.rev d.events in
      d.events <- [];
      evs)

(* --- verification worker --------------------------------------------------------- *)

let engine_of = function
  | "sat" -> Scorr.Verify.Sat_engine
  | _ -> Scorr.Verify.Bdd_engine

(* The run's effective induction depth, mirroring the verify layer: the
   BDD engine is always depth 1, the SAT engine unrolls [induction]. *)
let effective_induction (opts : Protocol.verify_opts) =
  match engine_of opts.engine with
  | Scorr.Verify.Bdd_engine -> 1
  | Scorr.Verify.Sat_engine -> max 1 opts.induction

let scorr_options d job ~resume =
  {
    Scorr.default_options with
    Scorr.Verify.engine = engine_of job.opts.engine;
    sat_unroll = max 1 job.opts.induction;
    seed = job.opts.seed;
    use_analysis = job.opts.analysis || job.opts.meth = "auto";
    use_speculation = job.opts.speculate;
    deadline_seconds = job.opts.deadline;
    preflight = false;  (* done at submission time *)
    jobs = 1;  (* parallelism lives at the job level here *)
    cancel = Some job.cancel;
    progress = Some (fun p -> post_event d (E_progress (job.id, p)));
    resume;
  }

let base_outcome job =
  {
    Protocol.verdict = "unknown";
    frame = -1;
    trace = [];
    cached = false;
    runtime = 0.0;
    queue_wait = job.sched_wait;
    resumed_iterations = 0;
    counters = Scorr.Counters.(to_list zero);
    cert = None;
    reason = None;
  }

let outcome_of_stats o s = { o with Protocol.counters = Scorr.Counters.to_list s }

let run_job d job =
  let proceed =
    locked d.mu (fun () ->
        if job.cancel_requested || job.state <> Queued then false
        else begin
          job.state <- Running;
          job.sched_wait <- Scorr.Clock.since job.submitted_at;
          true
        end)
  in
  if proceed then begin
    (* warm start: the cache probe only serves the direct methods — the
       portfolio's rungs run at several depths, while a stored checkpoint
       binds to one.  Checkpoints bind the circuits as given, and a
       resumed analysis run re-applies its pre-reduction, so analysis
       jobs warm-start too *)
    let warm =
      if job.opts.meth = "auto" then None
      else
        Cache.best_checkpoint d.cache ~spec_digest:job.spec_digest ~impl_digest:job.impl_digest
          ~candidates:"all" ~induction:(effective_induction job.opts) ~seed:job.opts.seed
    in
    let resumed_iterations =
      match warm with Some cp -> cp.Scorr.Checkpoint.iterations | None -> 0
    in
    let t0 = Scorr.Clock.now () in
    let attempt resume =
      let options = scorr_options d job ~resume in
      if job.opts.meth = "auto" then
        (options, Scorr.portfolio ~options job.spec job.impl, None)
      else
        let (verdict, _, _) as run = Scorr.Verify.run_with_relation ~options job.spec job.impl in
        (options, verdict, Some run)
    in
    let result =
      match attempt warm with
      | r -> Ok (r, resumed_iterations)
      (* a checkpoint the probe accepted but validation refused (e.g. a
         racing overwrite): fall back to a cold run rather than failing *)
      | exception Scorr.Checkpoint.Incompatible _ when warm <> None ->
        (match attempt None with
        | r -> Ok (r, 0)
        | exception exn -> Error (Printexc.to_string exn))
      | exception exn -> Error (Printexc.to_string exn)
    in
    (* a warm start counts only once the resumed run was accepted *)
    (match result with
    | Ok (_, n) when n > 0 ->
      locked d.mu (fun () -> d.n_warm_starts <- d.n_warm_starts + 1);
      logf d "%s: warm start from a checkpoint at %d iterations" job.id n
    | Ok _ | Error _ -> ());
    let runtime = Scorr.Clock.since t0 in
    let outcome =
      match result with
      | Error msg ->
        { (base_outcome job) with runtime; reason = Some ("error: " ^ msg) }
      | Ok ((options, verdict, run), resumed_iterations) -> (
        let o =
          { (base_outcome job) with runtime; queue_wait = job.sched_wait; resumed_iterations }
        in
        match verdict with
        | Scorr.Equivalent stats ->
          let o = { (outcome_of_stats o stats) with verdict = "equivalent" } in
          (* reuse the certificate machinery: persist an independently
             checkable proof next to the cached verdict *)
          let cert =
            match run with
            | None -> None
            | Some run -> (
              match Cert.Certificate.of_run ~options ~spec:job.spec ~impl:job.impl run with
              | Ok cert -> Some (Cert.Certificate.to_string cert)
              | Error _ -> None)
          in
          let entry =
            Cache.store d.cache ~spec_digest:job.spec_digest ~impl_digest:job.impl_digest
              ~opts_key:job.opts_key ?cert
              (Cache.entry_of_stats ~verdict:"equivalent" ~frame:(-1) ~trace:[] stats)
          in
          { o with cert = entry.Cache.v_cert }
        | Scorr.Not_equivalent { frame; trace; stats } ->
          let trace = match trace with Some t -> Protocol.trace_to_strings t | None -> [] in
          let o = { (outcome_of_stats o stats) with verdict = "not_equivalent"; frame; trace } in
          ignore
            (Cache.store d.cache ~spec_digest:job.spec_digest ~impl_digest:job.impl_digest
               ~opts_key:job.opts_key
               (Cache.entry_of_stats ~verdict:"not_equivalent" ~frame ~trace stats));
          o
        | Scorr.Unknown stats ->
          let o = outcome_of_stats o stats in
          let cancelled = job.cancel_requested || Scorr.Deadline.cancelled job.cancel in
          if cancelled then { o with verdict = "cancelled"; reason = Some "cancelled" }
          else
            {
              o with
              verdict = "unknown";
              reason =
                (match stats.Scorr.Verify.exhausted with
                | Some why -> Some why
                | None -> Some "incomplete");
            })
    in
    (* every direct run with a relation leaves a checkpoint behind — an
       inconclusive one for its own resumption, a conclusive one so other
       option sets over the same pair can warm-start from the fixed point *)
    (match result with
    | Ok ((options, _, Some run), _) -> (
      match Scorr.Verify.checkpoint_of_run ~options ~spec:job.spec ~impl:job.impl run with
      | Ok cp ->
        Cache.store_checkpoint d.cache ~spec_digest:job.spec_digest ~impl_digest:job.impl_digest
          ~opts_key:job.opts_key cp
      | Error _ -> ())
    | _ -> ());
    post_event d (E_done (job.id, outcome))
  end

let worker d () =
  let rec loop () =
    match Jobq.pop d.queue with
    | None -> ()
    | Some job ->
      (try run_job d job
       with exn ->
         (* a worker must survive anything a job throws at it *)
         post_event d
           (E_done
              ( job.id,
                {
                  (base_outcome job) with
                  Protocol.reason = Some ("error: " ^ Printexc.to_string exn);
                } )));
      loop ()
  in
  loop ()

(* --- client connections ----------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

(* [send] returns false when the client is gone; the caller drops it. *)
let send resp fd =
  let line = Protocol.response_to_line resp ^ "\n" in
  try
    write_all fd line 0 (String.length line);
    true
  with Unix.Unix_error _ -> false

let drop_client d fd =
  locked d.mu (fun () ->
      Hashtbl.iter
        (fun _ job ->
          job.watchers <- List.filter (fun w -> w <> fd) job.watchers;
          job.waiters <- List.filter (fun w -> w <> fd) job.waiters)
        d.jobs);
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Deliver a response to a set of fds, returning the survivors. *)
let broadcast d resp fds =
  List.filter
    (fun fd ->
      if send resp fd then true
      else begin
        drop_client d fd;
        false
      end)
    fds

(* --- request handling -------------------------------------------------------------- *)

let cancelled_outcome job ~reason =
  { (base_outcome job) with Protocol.verdict = "cancelled"; reason = Some reason }

let find_job d id = locked d.mu (fun () -> Hashtbl.find_opt d.jobs id)

let handle_submit d conn ~spec ~impl ~opts ~watch =
  let valid_opts =
    match (opts.Protocol.meth, opts.Protocol.engine) with
    | ("scorr" | "auto"), ("bdd" | "sat") -> Ok ()
    | ("scorr" | "auto"), e -> Error (Printf.sprintf "unknown engine %S" e)
    | m, _ -> Error (Printf.sprintf "unknown method %S" m)
  in
  match valid_opts with
  | Error msg -> ignore (send (Protocol.Error_resp msg) conn.fd)
  | Ok () -> (
    (* the CLI's front door; a circuit it cannot load is an error
       response to this client *)
    let load subject = function
      | Protocol.Path path -> Lint.Intake.load (Lint.Intake.Path path)
      | Protocol.Aag text -> Lint.Intake.load ~subject (Lint.Intake.Text text)
    in
    match (load "spec" spec, load "impl" impl) with
    | Error e, _ | _, Error e ->
      ignore (send (Protocol.Error_resp (Lint.Intake.explain e)) conn.fd)
    | Ok spec, Ok impl -> (
      let spec_digest = Scorr.Relation.fingerprint spec in
      let impl_digest = Scorr.Relation.fingerprint impl in
      let opts_key = Cache.options_key opts in
      let job =
        locked d.mu (fun () ->
            d.next_id <- d.next_id + 1;
            {
              id = Printf.sprintf "job-%d" d.next_id;
              spec;
              impl;
              spec_digest;
              impl_digest;
              opts;
              opts_key;
              cancel = Scorr.Deadline.flag ();
              submitted_at = Scorr.Clock.now ();
              state = Queued;
              sched_wait = 0.0;
              cancel_requested = false;
              outcome = None;
              watchers = [];
              waiters = [];
            })
      in
      match Cache.find d.cache ~spec_digest ~impl_digest ~opts_key with
      | Some entry ->
        (* conclusive verdict on file: answer without queueing *)
        let outcome =
          {
            (base_outcome job) with
            Protocol.verdict = entry.Cache.v_verdict;
            frame = entry.v_frame;
            trace = entry.v_trace;
            cached = true;
            counters = Scorr.Counters.to_list (Cache.counters_of_entry entry);
            cert = entry.v_cert;
          }
        in
        locked d.mu (fun () ->
            job.state <- Done;
            job.outcome <- Some outcome;
            Hashtbl.replace d.jobs job.id job;
            d.order <- job.id :: d.order;
            d.n_submitted <- d.n_submitted + 1;
            d.n_cached <- d.n_cached + 1;
            d.n_done <- d.n_done + 1);
        logf d "%s: cache hit (%s)" job.id entry.Cache.v_verdict;
        if send (Protocol.Submitted { job = job.id; cached = true }) conn.fd && watch then
          ignore (send (Protocol.Job_result { job = job.id; outcome }) conn.fd)
      | None ->
        if Jobq.push d.queue job then begin
          locked d.mu (fun () ->
              Hashtbl.replace d.jobs job.id job;
              d.order <- job.id :: d.order;
              d.n_submitted <- d.n_submitted + 1;
              if watch then job.watchers <- conn.fd :: job.watchers);
          logf d "%s: queued (%s %s)" job.id job.spec_digest job.impl_digest;
          ignore (send (Protocol.Submitted { job = job.id; cached = false }) conn.fd)
        end
        else
          ignore
            (send
               (Protocol.Error_resp
                  (Printf.sprintf "queue full (%d jobs)" d.cfg.queue_capacity))
               conn.fd)))

let handle_status d conn id =
  match find_job d id with
  | None -> ignore (send (Protocol.Error_resp (Printf.sprintf "unknown job %S" id)) conn.fd)
  | Some job ->
    let state, pos =
      locked d.mu (fun () ->
          let pos =
            if job.state = Queued then
              match Jobq.position d.queue (fun j -> j.id = id) with Some p -> p | None -> -1
            else -1
          in
          (state_string job.state, pos))
    in
    ignore (send (Protocol.Job_status { job = id; state; queue_pos = pos }) conn.fd)

let handle_result d conn id ~wait =
  match find_job d id with
  | None -> ignore (send (Protocol.Error_resp (Printf.sprintf "unknown job %S" id)) conn.fd)
  | Some job -> (
    let outcome = locked d.mu (fun () -> job.outcome) in
    match outcome with
    | Some outcome -> ignore (send (Protocol.Job_result { job = id; outcome }) conn.fd)
    | None ->
      if wait then locked d.mu (fun () -> job.waiters <- conn.fd :: job.waiters)
      else
        ignore
          (send
             (Protocol.Job_status
                { job = id; state = locked d.mu (fun () -> state_string job.state); queue_pos = -1 })
             conn.fd))

let finish_job d job outcome =
  let watchers, waiters =
    locked d.mu (fun () ->
        job.state <- (if outcome.Protocol.verdict = "cancelled" then Cancelled else Done);
        job.outcome <- Some outcome;
        (if outcome.Protocol.verdict = "cancelled" then d.n_cancelled <- d.n_cancelled + 1
         else d.n_done <- d.n_done + 1);
        let ws = (job.watchers, job.waiters) in
        job.watchers <- [];
        job.waiters <- [];
        ws)
  in
  let resp = Protocol.Job_result { job = job.id; outcome } in
  ignore (broadcast d resp watchers);
  ignore (broadcast d resp waiters);
  logf d "%s: %s%s" job.id outcome.Protocol.verdict
    (if outcome.Protocol.cached then " (cached)" else "")

let handle_cancel d conn id =
  match find_job d id with
  | None -> ignore (send (Protocol.Error_resp (Printf.sprintf "unknown job %S" id)) conn.fd)
  | Some job ->
    let state = locked d.mu (fun () -> job.state) in
    let reply =
      match state with
      | Queued ->
        if Jobq.remove d.queue (fun j -> j.id = id) then begin
          finish_job d job (cancelled_outcome job ~reason:"cancelled before start");
          "cancelled"
        end
        else begin
          (* a worker picked it up while we looked: cancel the run *)
          locked d.mu (fun () -> job.cancel_requested <- true);
          Scorr.Deadline.cancel job.cancel;
          "cancelling"
        end
      | Running ->
        locked d.mu (fun () -> job.cancel_requested <- true);
        Scorr.Deadline.cancel job.cancel;
        "cancelling"
      | Done -> "done"
      | Cancelled -> "cancelled"
    in
    ignore (send (Protocol.Cancelled { job = id; state = reply }) conn.fd)

let handle_stats d conn =
  let cache_stats = Cache.stats d.cache in
  let report =
    locked d.mu (fun () ->
        let running =
          Hashtbl.fold (fun _ j acc -> if j.state = Running then acc + 1 else acc) d.jobs 0
        in
        {
          Protocol.uptime = Scorr.Clock.since d.started_at;
          jobs_submitted = d.n_submitted;
          jobs_done = d.n_done;
          jobs_cached = d.n_cached;
          jobs_cancelled = d.n_cancelled;
          queue_len = Jobq.length d.queue;
          running;
          workers = d.cfg.workers;
          cache_entries = cache_stats.Cache.entries;
          cache_hits = cache_stats.Cache.hits;
          cache_misses = cache_stats.Cache.misses;
          cache_evictions = cache_stats.Cache.evictions;
          warm_starts = d.n_warm_starts;
          jobs =
            List.rev_map
              (fun id ->
                let j = Hashtbl.find d.jobs id in
                {
                  Protocol.js_job = id;
                  js_state = state_string j.state;
                  js_sched_wait = j.sched_wait;
                })
              d.order;
        })
  in
  ignore (send (Protocol.Stats_report report) conn.fd)

let handle_request d conn = function
  | Protocol.Submit { spec; impl; opts; watch } -> handle_submit d conn ~spec ~impl ~opts ~watch
  | Protocol.Status id -> handle_status d conn id
  | Protocol.Result { job; wait } -> handle_result d conn job ~wait
  | Protocol.Cancel id -> handle_cancel d conn id
  | Protocol.Stats -> handle_stats d conn
  | Protocol.Shutdown ->
    ignore (send Protocol.Bye conn.fd);
    logf d "shutdown requested";
    d.stop <- true

(* Runs on the select loop, so nothing a request raises may escape: it
   becomes an error response for that one client, as a job's exception
   becomes an error outcome in the worker. *)
let handle_line d conn line =
  if String.trim line <> "" then
    match Protocol.decode_request line with
    | Ok req -> (
      try handle_request d conn req
      with exn ->
        ignore (send (Protocol.Error_resp ("error: " ^ Printexc.to_string exn)) conn.fd))
    | Error msg -> ignore (send (Protocol.Error_resp msg) conn.fd)

(* --- event delivery ---------------------------------------------------------------- *)

let deliver_events d =
  List.iter
    (fun ev ->
      match ev with
      | E_progress (id, p) -> (
        match find_job d id with
        | None -> ()
        | Some job ->
          let watchers = locked d.mu (fun () -> job.watchers) in
          let resp =
            Protocol.Progress
              {
                job = id;
                round = p.Scorr.Verify.p_round;
                iteration = p.Scorr.Verify.p_iteration;
                classes = p.Scorr.Verify.p_classes;
                engine = p.Scorr.Verify.p_engine;
              }
          in
          let survivors = broadcast d resp watchers in
          locked d.mu (fun () -> job.watchers <- survivors))
      | E_done (id, outcome) -> (
        match find_job d id with
        | None -> ()
        | Some job -> finish_job d job outcome))
    (take_events d)

(* --- listeners and the select loop -------------------------------------------------- *)

let make_unix_listener path =
  (* a stale socket file from a crashed daemon would make bind fail;
     only ever remove an actual socket, never a user's file *)
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> failwith (Printf.sprintf "%s exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  fd

let make_tcp_listener port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 16;
  fd

let run cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Atomic.set stop_requested false;
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop_requested true)) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> Atomic.set stop_requested true)) in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_w;
  let d =
    {
      cfg;
      cache = Cache.create ~capacity:cfg.cache_capacity ~dir:cfg.cache_dir ();
      queue = Jobq.create ~capacity:cfg.queue_capacity;
      mu = Mutex.create ();
      jobs = Hashtbl.create 64;
      order = [];
      next_id = 0;
      n_submitted = 0;
      n_done = 0;
      n_cached = 0;
      n_cancelled = 0;
      n_warm_starts = 0;
      ev_mu = Mutex.create ();
      events = [];
      wake_r;
      wake_w;
      started_at = Scorr.Clock.now ();
      stop = false;
    }
  in
  let unix_listener = make_unix_listener cfg.socket_path in
  let tcp_listener = Option.map make_tcp_listener cfg.tcp_port in
  let listeners = unix_listener :: Option.to_list tcp_listener in
  let workers = List.init (max 1 cfg.workers) (fun _ -> Domain.spawn (fun () -> worker d ())) in
  let conns = Hashtbl.create 16 in
  logf d "listening on %s%s (%d workers, cache %s)" cfg.socket_path
    (match cfg.tcp_port with Some p -> Printf.sprintf " and 127.0.0.1:%d" p | None -> "")
    (max 1 cfg.workers) cfg.cache_dir;
  let accept listener =
    match Unix.accept listener with
    | fd, _ -> Hashtbl.replace conns fd { fd; buf = Buffer.create 256 }
    | exception Unix.Unix_error _ -> ()
  in
  let read_client conn =
    let bytes = Bytes.create 65536 in
    match Unix.read conn.fd bytes 0 (Bytes.length bytes) with
    | exception Unix.Unix_error _ ->
      Hashtbl.remove conns conn.fd;
      drop_client d conn.fd
    | 0 ->
      Hashtbl.remove conns conn.fd;
      drop_client d conn.fd
    | n ->
      Buffer.add_subbytes conn.buf bytes 0 n;
      (* process every complete line in the buffer *)
      let text = Buffer.contents conn.buf in
      let rec consume start =
        match String.index_from_opt text start '\n' with
        | None ->
          Buffer.clear conn.buf;
          Buffer.add_string conn.buf (String.sub text start (String.length text - start))
        | Some nl ->
          handle_line d conn (String.sub text start (nl - start));
          consume (nl + 1)
      in
      consume 0
  in
  let drain_wake () =
    let bytes = Bytes.create 256 in
    match Unix.read d.wake_r bytes 0 (Bytes.length bytes) with
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  (* main loop: listeners + connected clients + the worker wake pipe *)
  while not (d.stop || Atomic.get stop_requested) do
    let fds = d.wake_r :: (listeners @ Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []) in
    (match Unix.select fds [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      List.iter
        (fun fd ->
          if fd = d.wake_r then drain_wake ()
          else if List.mem fd listeners then accept fd
          else
            match Hashtbl.find_opt conns fd with
            | Some conn -> read_client conn
            | None -> ())
        ready);
    deliver_events d
  done;
  logf d "shutting down";
  (* graceful shutdown: stop accepting, refuse the queue, cancel every
     unfinished job, join the workers, deliver the final results *)
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
  let unfinished =
    locked d.mu (fun () ->
        Hashtbl.fold (fun _ j acc -> if j.state = Queued || j.state = Running then j :: acc else acc)
          d.jobs [])
  in
  List.iter
    (fun job ->
      if Jobq.remove d.queue (fun j -> j.id = job.id) then
        finish_job d job (cancelled_outcome job ~reason:"daemon shutdown")
      else begin
        locked d.mu (fun () -> job.cancel_requested <- true);
        Scorr.Deadline.cancel job.cancel
      end)
    unfinished;
  Jobq.close d.queue;
  List.iter Domain.join workers;
  deliver_events d;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  Unix.close d.wake_r;
  Unix.close d.wake_w;
  Sys.set_signal Sys.sigterm prev_term;
  Sys.set_signal Sys.sigint prev_int;
  0
