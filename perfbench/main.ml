(* Closed-loop benchmark of seqver: one client issues one operation at a
   time, and an operation takes one (specification, implementation) pair
   from AIGER text to an independently checked result.  See README.md in
   this directory for the workloads, the metric definitions and the noise
   evidence behind the design.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--rev REV]

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  A wrong verdict,
   a rejected certificate, a witness that does not replay or an escaped
   exception names the pair and the seed on stderr and exits 1. *)

module V = Scorr.Verify
module Stats = Perfbench_stats.Stats

(* --- workloads ---------------------------------------------------------------- *)

type workload = Sat_signoff | Bdd_default | Speculate | Bughunt

let workloads =
  [ ("sat-signoff", Sat_signoff); ("bdd-default", Bdd_default); ("speculate", Speculate);
    ("bughunt", Bughunt) ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* Every option is written out, so neither a changed library default nor
   SEQVER_JOBS / SEQVER_SPECULATE in the environment can move a workload.
   Budgets are deterministic (node and call limits, no deadline).  The
   benchmark lints explicitly, so [preflight] is off inside the verifier
   to avoid linting twice. *)
let pinned =
  {
    V.engine = V.Bdd_engine;
    candidates = V.All_signals;
    preflight = false;
    use_sim_seed = true;
    sim_frames = 16;
    use_ternary_seed = true;
    use_batched_sweeps = true;
    use_incremental = true;
    use_speculation = false;
    use_analysis = false;
    use_fundep = true;
    use_retime = true;
    max_retime_rounds = 4;
    use_reach_dontcare = false;
    reach_block_size = 8;
    node_limit = 2_000_000;
    max_sat_calls = 200_000;
    sat_unroll = 1;
    presim_frames = 64;
    bmc_depth = 4;
    seed = 17;
    jobs = 1;
    deadline_seconds = 0.0;
    max_iterations = 0;
    checkpoint_path = None;
    checkpoint_every = 0;
    resume = None;
    progress = None;
    cancel = None;
  }

let options_of = function
  | Sat_signoff -> { pinned with V.engine = V.Sat_engine }
  | Bdd_default | Bughunt -> pinned
  | Speculate ->
    {
      pinned with
      V.engine = V.Sat_engine;
      sat_unroll = 2;
      use_analysis = true;
      use_speculation = true;
    }

(* Circuits left out of each pair set (README.md gives the measurements):
   ctr32 takes seconds per pair; crc32 and bus are not 1-inductive, and
   neither is shift24 once rewritten and fraiged (Unknown at k = 1 for
   almost every implementation seed); on tx the BDD engine exhausts its
   node budget. *)
let excluded = function
  | Sat_signoff -> [ "ctr32"; "crc32"; "bus"; "shift24" ]
  | Bdd_default -> [ "ctr32"; "crc32"; "bus"; "shift24"; "tx" ]
  | Speculate -> [ "ctr32" ]
  | Bughunt -> []

(* Pair counts, and where implementation seeds come from.  The slowest
   circuits of each workload are anchors: two pairs each, with the fixed
   implementation seeds 1 and 2 (on bughunt, mutant seeds 1 and 2 too).
   Their implementations swing a pair's time by 2-70x from seed to seed
   (README.md), and as the largest pairs they set pairs_per_s, the tail
   and peak RSS, so drawing them from the benchmark seed would make those
   metrics measure the draw.  There are enough anchors that the tail (the
   eleventh slowest pair) is an anchor pair, with a gap down to the
   slowest seeded pair.  Every other circuit gets [seeded_pairs] pairs
   with seeds drawn from the benchmark seed, so the median and the
   geometric mean rest on 51 to 72 fresh pairs. *)
let anchors = function
  | Sat_signoff -> [ "ctr8"; "ctr16"; "gray12"; "lfsr16"; "alu8"; "arb6"; "tx" ]
  | Bdd_default -> [ "ctr8"; "ctr16"; "gray12"; "lfsr16"; "alu8"; "arb4"; "arb6"; "rst-sync" ]
  | Speculate -> [ "ctr8"; "ctr16"; "gray12"; "arb6"; "bus"; "tx" ]
  | Bughunt -> [ "ctr16"; "ctr32"; "gray12"; "lfsr16"; "crc32"; "alu8"; "arb6"; "bus"; "tx" ]

(* The anchors that take a large share of a pass (0.4-3 s a pair).  A
   pass runs them once and every other pair [sweeps] times, interleaved,
   so that the fast pairs, which set the median and the geometric mean,
   are sampled several times and all through the run. *)
let heavy = function
  | Sat_signoff -> [ "ctr16"; "gray12"; "arb6"; "tx" ]
  | Bdd_default -> [ "ctr16"; "gray12"; "lfsr16"; "arb6" ]
  | Speculate -> [ "ctr16"; "gray12"; "bus" ]
  | Bughunt -> []

let sweeps = function Sat_signoff -> 4 | Bdd_default -> 5 | Speculate -> 3 | Bughunt -> 1

(* Seeded circuits that get fewer pairs than the others.  Per-pair times
   come in groups with gaps between them, and where the median falls at a
   gap it swings with the draw; these counts put it in the middle of a
   dense group (README.md): alu4, mod10 and rst-async on bdd-default; the
   20-55 ms group on sat-signoff; mod10, crc32 and shift24 on
   speculate. *)
let few = function
  | Sat_signoff | Bdd_default -> [ "ffde"; "det-bin"; "crc16"; "gclk-div"; "traffic" ]
  | Speculate -> [ "alu4"; "lfsr16"; "rst-async"; "arb4"; "alu8"; "rst-sync" ]
  | Bughunt -> []

let seeded_pairs workload circuit =
  let many, few_pairs =
    match workload with
    | Sat_signoff -> (8, 3)
    | Bdd_default -> (12, 3)
    | Speculate -> (6, 4)
    | Bughunt -> (6, 6)
  in
  if List.mem circuit (few workload) then few_pairs else many

let pairs_per_circuit workload circuit =
  if List.mem circuit (anchors workload) then 2
  else seeded_pairs workload circuit

let options_line o =
  Printf.sprintf
    "engine=%s candidates=%s preflight=%b sim_seed=%b sim_frames=%d ternary_seed=%b \
     batched=%b incremental=%b speculation=%b analysis=%b fundep=%b retime=%b \
     retime_rounds=%d dontcare=%b node_limit=%d max_sat_calls=%d k=%d presim_frames=%d \
     bmc_depth=%d seed=%d jobs=%d deadline=%g max_iterations=%d"
    (match o.V.engine with V.Bdd_engine -> "bdd" | V.Sat_engine -> "sat")
    (match o.V.candidates with V.All_signals -> "all" | V.Registers_only -> "registers")
    o.V.preflight o.V.use_sim_seed o.V.sim_frames o.V.use_ternary_seed o.V.use_batched_sweeps
    o.V.use_incremental o.V.use_speculation o.V.use_analysis o.V.use_fundep o.V.use_retime
    o.V.max_retime_rounds o.V.use_reach_dontcare o.V.node_limit o.V.max_sat_calls o.V.sat_unroll
    o.V.presim_frames o.V.bmc_depth o.V.seed o.V.jobs o.V.deadline_seconds o.V.max_iterations

(* --- spans -------------------------------------------------------------------- *)

let tracing = ref false
let spans : Stats.span list ref = ref []
let span_args : (int, (string * float) list) Hashtbl.t = Hashtbl.create 1024
let stack : int list ref = ref []
let next_id = ref 0
let current_op = ref (-1)
let last_span = ref (-1)

(* Time [f] as one span when tracing; a plain call otherwise. *)
let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let w0 = Gc.minor_words () in
    let t0 = Scorr.Clock.now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Scorr.Clock.now () in
        let w1 = Gc.minor_words () in
        stack := List.tl !stack;
        last_span := id;
        spans :=
          { Stats.id; name; op = !current_op; parent; start = t0; stop = t1; words = w1 -. w0 }
          :: !spans)
      f
  end

(* Attach counters to the span that just closed. *)
let annotate args = if !tracing then Hashtbl.replace span_args !last_span args

(* --- inputs ------------------------------------------------------------------- *)

type input = {
  pid : int;
  circuit : string;
  variant : int;  (** index of the pair among its circuit's pairs *)
  impl_seed : int;
  mutant_seed : int;  (** -1 when the workload does not mutate *)
  spec_text : string;
  impl_text : string;
}

let pair_label bench_seed inp =
  Printf.sprintf "pair %d (%s, implementation seed %d%s, benchmark seed %d)" inp.pid inp.circuit
    inp.impl_seed
    (if inp.mutant_seed >= 0 then Printf.sprintf ", mutant seed %d" inp.mutant_seed else "")
    bench_seed

exception Setup_failed of string

(* Build every pair of a workload from the benchmark seed.  Deterministic:
   the same seed gives byte-identical AIGER texts. *)
let make_inputs workload seed =
  let rng = Random.State.make [| seed; Hashtbl.hash (workload_name workload) |] in
  let entries =
    List.filter
      (fun e -> not (List.mem e.Circuits.Suite.name (excluded workload)))
      Circuits.Suite.suite
  in
  List.concat_map
    (fun entry ->
      let spec = span "setup.build" (fun () -> Circuits.Suite.aig_of entry) in
      let spec_text = span "setup.print" (fun () -> Aig.Aiger.to_string spec) in
      List.init (pairs_per_circuit workload entry.Circuits.Suite.name) (fun variant ->
          let anchor = List.mem entry.Circuits.Suite.name (anchors workload) in
          let draw () = if anchor then variant + 1 else Random.State.int rng 1_000_000 in
          let impl_seed = draw () in
          let impl =
            span "setup.recipe" (fun () ->
                Circuits.Suite.(implementation ~recipe:Retime_opt ~seed:impl_seed spec))
          in
          let impl, mutant_seed =
            match workload with
            | Bughunt ->
              let mutant_seed = draw () in
              let mutant =
                span "setup.mutate" (fun () ->
                    Transform.Mutate.observable_mutant ~attempts:50 ~seed:mutant_seed impl)
              in
              (match mutant with
              | Some (m, _) -> (m, mutant_seed)
              | None ->
                raise
                  (Setup_failed
                     (Printf.sprintf
                        "no observable mutant of %s (implementation seed %d, mutant seed %d)"
                        entry.Circuits.Suite.name impl_seed mutant_seed)))
            | Sat_signoff | Bdd_default | Speculate -> (impl, -1)
          in
          let impl_text = span "setup.print" (fun () -> Aig.Aiger.to_string impl) in
          let circuit = entry.Circuits.Suite.name in
          { pid = 0; circuit; variant; impl_seed; mutant_seed; spec_text; impl_text }))
    entries
  |> List.mapi (fun pid inp -> { inp with pid })
  |> Array.of_list

(* --- one operation ------------------------------------------------------------ *)

exception Wrong of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong s)) fmt

let () =
  Printexc.register_printer (function Wrong msg | Setup_failed msg -> Some msg | _ -> None)

type outcome = {
  decided : bool;
  exhausted : string option;
  counters : (string * float) list;  (** this operation's counters and phase times *)
}

let stats_counters (s : V.stats) ~verify_s =
  let i = float_of_int in
  let phase name = try List.assoc name s.V.phase_seconds with Not_found -> 0.0 in
  [
    ("scorr.refute_s", phase "refute");
    ("scorr.seed_s", phase "seed");
    ("scorr.initial_s", phase "initial");
    ("scorr.fixpoint_s", phase "fixpoint");
    ("analysis.prereduce_s", verify_s -. s.V.seconds);
    ("scorr.iterations", i s.V.iterations);
    ("scorr.batched_solves", i s.V.batched_solves);
    ("scorr.cache_hits", i s.V.cache_hits);
    ("scorr.static_splits", i s.V.static_splits);
    ("simpool.lanes", i s.V.pool_lanes);
    ("simpool.resim_splits", i s.V.resim_splits);
    ("sat.calls", i s.V.sat_calls);
    ("sat.conflicts", i s.V.conflicts);
    ("sat.propagations", i s.V.propagations);
    ("sat.encoded_vars", i s.V.encoded_vars);
    ("sat.reused_clauses", i s.V.reused_clauses);
    ("sat.core_prunes", i s.V.core_prunes);
    ("bdd.peak_nodes", i s.V.peak_bdd_nodes);
    ("dispatch.rounds", i s.V.spec_rounds);
    ("dispatch.merges", i s.V.spec_merges);
    ("dispatch.refuted", i s.V.refuted_assumptions);
    ("dispatch.by_sim", i s.V.spec_by_sim);
    ("dispatch.by_bdd", i s.V.spec_by_bdd);
    ("dispatch.by_sat", i s.V.spec_by_sat);
  ]

(* sat-signoff needs the relation for its certificate; the other
   workloads make the plain [Scorr.check] call. *)
let verify workload options spec impl =
  let t0 = Scorr.Clock.now () in
  let verdict, run =
    span "scorr.verify" (fun () ->
        match workload with
        | Sat_signoff ->
          let ((verdict, _, _) as run) = V.run_with_relation ~options spec impl in
          (verdict, Some run)
        | Bdd_default | Speculate | Bughunt -> (Scorr.check ~options spec impl, None))
  in
  let counters = stats_counters (V.verdict_stats verdict) ~verify_s:(Scorr.Clock.since t0) in
  annotate counters;
  (verdict, run, counters)

let ones (w : Cert.Witness.t) =
  Array.fold_left (fun n v -> Array.fold_left (fun n b -> if b then n + 1 else n) n v) 0 w.inputs

let run_op workload options inp =
  let spec, impl =
    span "aig.parse" (fun () ->
        (Aig.Aiger.parse_string inp.spec_text, Aig.Aiger.parse_string inp.impl_text))
  in
  span "lint.preflight" (fun () ->
      Lint.preflight_aig ~subject:"specification" spec;
      Lint.preflight_aig ~subject:"implementation" impl);
  let verdict, run, counters = verify workload options spec impl in
  let undecided (s : V.stats) = { decided = false; exhausted = s.V.exhausted; counters } in
  match (workload, verdict) with
  | _, V.Unknown s -> undecided s
  | (Sat_signoff | Bdd_default | Speculate), V.Not_equivalent { frame; _ } ->
    wrong "equivalent pair refuted at frame %d" frame
  | Bughunt, V.Equivalent _ -> wrong "mutant proved equivalent"
  | (Bdd_default | Speculate), V.Equivalent _ -> { decided = true; exhausted = None; counters }
  | Sat_signoff, V.Equivalent _ ->
    let module C = Cert.Certificate in
    let cert =
      span "cert.emit" (fun () ->
          match C.of_run ~options ~spec ~impl (Option.get run) with
          | Ok c -> c
          | Error e -> wrong "certificate not emitted: %s" (C.explain_emit_error e))
    in
    let cert =
      span "cert.prove" (fun () ->
          match C.prove ~spec ~impl cert with
          | Ok c -> c
          | Error e -> wrong "certificate not proved: %s" (C.explain_check_error e))
    in
    let text = span "cert.emit" (fun () -> C.to_string cert) in
    span "cert.check" (fun () ->
        match C.check ~use_proof:true ~spec ~impl (C.parse_string text) with
        | Ok () -> ()
        | Error e -> wrong "certificate rejected: %s" (C.explain_check_error e));
    let steps =
      match cert.C.proof with
      | None -> 0
      | Some segs -> List.fold_left (fun n seg -> n + List.length seg) 0 segs
    in
    {
      decided = true;
      exhausted = None;
      counters = ("cert.proof_steps", float_of_int steps) :: counters;
    }
  | Bughunt, V.Not_equivalent { trace = None; _ } -> wrong "refutation without a trace"
  | Bughunt, V.Not_equivalent { trace = Some trace; _ } ->
    let module W = Cert.Witness in
    let replays stage w =
      span "witness.replay" (fun () ->
          match W.replay ~spec ~impl w with
          | Ok _ -> ()
          | Error e -> wrong "witness does not replay %s shrink: %s" stage (W.explain_error e))
    in
    let w = W.of_trace trace in
    replays "before" w;
    (* counted first: shrink flips bits in the frame arrays it was given *)
    let ones_before = ones w in
    let small = span "witness.shrink" (fun () -> W.shrink ~spec ~impl w) in
    replays "after" small;
    {
      decided = true;
      exhausted = None;
      counters =
        ("witness.frames", float_of_int (W.n_frames small))
        :: ("witness.ones_before", float_of_int ones_before)
        :: ("witness.ones_after", float_of_int (ones small))
        :: counters;
    }

(* --- operations in a closed loop ------------------------------------------------ *)

type sample = {
  s_pid : int;
  latency : float;
  outcome : outcome;
  rss_mb : float;  (** peak resident set of the process after the operation *)
  rep : int;  (** 0 untraced; 1 and 2 the first and second traced run of the pair *)
}

let bench_seed = ref 0
let op_counter = ref 0

let fail_run workload inp msg =
  Printf.eprintf "perfbench: %s: WRONG on %s: %s\n%!" (workload_name workload)
    (pair_label !bench_seed inp) msg;
  Printf.printf "{\"correct\": false, \"attempted\": %d, \"failed\": 1, \"metrics\": {}}\n%!"
    !op_counter;
  exit 1

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  go ()

(* One operation, timed in the calling process.  A wrong verdict or an
   escaped exception comes back as [Error]. *)
let measure workload options inp ~rep =
  tracing := rep > 0;
  current_op := !op_counter;
  let majors () = (Gc.quick_stat ()).Gc.major_collections in
  let m0 = majors () in
  let t0 = Scorr.Clock.now () in
  match span "op" (fun () -> run_op workload options inp) with
  | exception Wrong msg ->
    tracing := false;
    Error msg
  | exception e ->
    tracing := false;
    Error ("exception " ^ Printexc.to_string e)
  | outcome ->
    let latency = Scorr.Clock.since t0 in
    let m1 = majors () in
    tracing := false;
    (* An untraced sample keeps only its verdict: every sample stays live
       for the rest of the run, and a larger live heap makes every later
       operation's major collection work longer. *)
    let outcome =
      if rep = 0 then { outcome with counters = [] }
      else
        { outcome with
          counters = ("gc.major_collections", float_of_int (m1 - m0)) :: outcome.counters }
    in
    Ok { s_pid = inp.pid; latency; outcome; rss_mb = peak_rss_mb (); rep }

(* Run [f] in a forked process and return its result, marshalled back over
   a pipe. *)
let in_child (f : unit -> ('a, string) result) : ('a, string) result =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let reply = try f () with e -> Error (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc reply [];
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let reply = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
    close_in ic;
    match (reply, snd (Unix.waitpid [] pid)) with
    | Some r, Unix.WEXITED 0 -> r
    | _, Unix.WSIGNALED n -> Error (Printf.sprintf "process killed by signal %d" n)
    | _ -> Error "process ended without a reply")

(* Every operation starts after a full major collection outside the timed
   span, which leaves it no garbage to sweep from the one before it:
   without it, a light pair run after a large BDD build took twice as long
   as after a small one.  Light operations then run in this process, whose
   heap keeps the memory it has touched, so they pay for few fresh pages:
   on a virtual machine that hands freed memory back to the host, a page
   fault's cost drifts with the host, and page faults were half the time
   of a light operation in a process of its own (README.md).  [isolate]
   runs the operation in a forked process instead.  The heavy pairs run
   that way, so that the hundreds of megabytes a large BDD build touches
   are not kept in this heap, where every later collection would sweep
   them. *)
let timed_op workload options inp ~rep ~isolate =
  Gc.full_major ();
  let reply =
    if isolate then in_child (fun () -> measure workload options inp ~rep)
    else measure workload options inp ~rep
  in
  incr op_counter;
  match reply with Error msg -> fail_run workload inp msg | Ok sample -> sample

(* Closed loop: one client, one operation at a time, over [pass] in order,
   pass after pass.  The first [covered] operations always run, so every
   pair has a sample; after them, the loop stops once [seconds] have
   passed.  Returns the samples and the number of operations run. *)
let closed_loop ~seconds ~covered pass step =
  let n = Array.length pass in
  let t0 = Scorr.Clock.now () in
  let rec go i acc =
    if i >= covered && Scorr.Clock.since t0 >= seconds then (List.concat (List.rev acc), i)
    else go (i + 1) (step i pass.(i mod n) :: acc)
  in
  go 0 []

let is_heavy workload inp = List.mem inp.circuit (heavy workload)

(* One pass of an end-to-end run: the heavy pairs once, every other pair
   [sweeps] times, interleaved (Stats.interleave).  Also returns how many
   operations of the pass it takes until every pair has run once. *)
let schedule workload inputs =
  let heavy, others = List.partition (is_heavy workload) (Array.to_list inputs) in
  let pass = Array.of_list (Stats.interleave [ (heavy, 1); (others, sweeps workload) ]) in
  let seen = Hashtbl.create 256 in
  let covered = ref 0 in
  Array.iteri
    (fun i inp ->
      if not (Hashtbl.mem seen inp.pid) then begin
        Hashtbl.add seen inp.pid ();
        covered := i + 1
      end)
    pass;
  (pass, !covered)

let per_pair_latency samples =
  Stats.per_key_medians (List.map (fun s -> (s.s_pid, s.latency)) samples)

(* --- host-speed probe ----------------------------------------------------------- *)

(* A frozen CPU kernel owned by the benchmark: an xorshift walk over a
   small table.  Its time is printed beside the metrics as a diagnostic of
   host speed and never used to scale them. *)
let probe_once () =
  let table = Array.make 4096 0 in
  let x = ref 88172645463325252 in
  let t0 = Scorr.Clock.now () in
  for i = 1 to 6_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = !x land 4095 in
    table.(j) <- table.(j) + i
  done;
  let dt = Scorr.Clock.since t0 in
  ignore (Sys.opaque_identity table);
  dt

let probe_ms () = 1000.0 *. Stats.median [ probe_once (); probe_once (); probe_once () ]

let gc_line () =
  let g = Gc.get () in
  Printf.sprintf "minor_heap_size=%d space_overhead=%d max_overhead=%d allocation_policy=%d"
    g.Gc.minor_heap_size g.Gc.space_overhead g.Gc.max_overhead g.Gc.allocation_policy

(* --- output -------------------------------------------------------------------- *)

(* Every digit as measured: integers plainly, other values round-trip. *)
let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "metric %-28s %18s %s\n" name (json_num v) unit)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_num v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* --- set-up --------------------------------------------------------------------- *)

(* One input generation; [traced] records its spans. *)
let setup_once ~traced workload seed =
  Gc.full_major ();
  tracing := traced;
  current_op := -1;
  let t0 = Scorr.Clock.now () in
  let inputs = make_inputs workload seed in
  let dt = Scorr.Clock.since t0 in
  tracing := false;
  let setup_spans = !spans in
  spans := [];
  (inputs, dt, setup_spans)

let inputs_digest inputs = Digest.string (Marshal.to_string inputs [])

(* One more input generation, which must reproduce the texts whose digest
   is [expect]: its time.  The inputs it builds are dropped. *)
let setup_again workload seed ~expect =
  Gc.full_major ();
  let t0 = Scorr.Clock.now () in
  let inputs = make_inputs workload seed in
  let dt = Scorr.Clock.since t0 in
  if inputs_digest inputs <> expect then raise (Setup_failed "set-up is not deterministic");
  dt

(* Set-up repetitions of an end-to-end run.  The host's speed drifts over
   seconds, so the repetitions are spread evenly over the timed phase
   rather than run back to back: repetition k is due at k/12 of it. *)
let setup_reps = 12

(* --- end-to-end run (--trace 0) ------------------------------------------------- *)

let report_probe workload before after =
  Printf.printf "probe %s host_kernel_ms before=%.3f after=%.3f (diagnostic only)\n"
    (workload_name workload) before after

let count p samples = List.length (List.filter p samples)

let report_undecided seed inputs samples =
  List.iter
    (fun s ->
      if not s.outcome.decided then
        Printf.printf "undecided %s exhausted=%s\n" (pair_label seed inputs.(s.s_pid))
          (Option.value s.outcome.exhausted ~default:"none"))
    samples

let end_to_end workload seed seconds =
  let options = options_of workload in
  let inputs, first_setup, _ = setup_once ~traced:false workload seed in
  let expect = inputs_digest inputs in
  let setup_times = ref [ first_setup ] in
  let catch_up due =
    while List.length !setup_times < due do
      setup_times := setup_again workload seed ~expect :: !setup_times
    done
  in
  let pass, covered = schedule workload inputs in
  let before = probe_ms () in
  let t0 = Scorr.Clock.now () in
  let samples, ops =
    closed_loop ~seconds ~covered pass (fun _ inp ->
        let s = timed_op workload options inp ~rep:0 ~isolate:(is_heavy workload inp) in
        let elapsed = Scorr.Clock.since t0 in
        catch_up (min setup_reps (1 + int_of_float (float_of_int setup_reps *. elapsed /. seconds)));
        [ s ])
  in
  catch_up setup_reps;
  let setup_times = !setup_times in
  let after = probe_ms () in
  let attempted = List.length samples in
  let decided = count (fun s -> s.outcome.decided) samples in
  report_undecided seed inputs samples;
  let medians = per_pair_latency samples in
  List.iter
    (fun (pid, v) -> Printf.printf "pair %3d %-10s median_s=%.6f\n" pid inputs.(pid).circuit v)
    medians;
  let per_pair = List.map snd medians in
  let tail =
    match Stats.tail per_pair with Some t -> t | None -> failwith "too few pairs for a tail"
  in
  (* The peak after every pair has run once: later samples grow the heap,
     so a peak over the whole run would depend on how many passes it
     completes. *)
  let first_pass = List.filteri (fun i _ -> i < covered) samples in
  report_probe workload before after;
  Printf.printf
    "run %s pairs=%d pass_ops=%d passes=%.2f ops=%d setup_reps=%d setup_min_s=%.4f \
     setup_max_s=%.4f tail=p%.1f (%d of %d pair medians beyond)\n"
    (workload_name workload) (Array.length inputs) (Array.length pass)
    (float_of_int ops /. float_of_int (Array.length pass))
    attempted (List.length setup_times)
    (List.fold_left Float.min infinity setup_times)
    (List.fold_left Float.max 0.0 setup_times)
    tail.Stats.percentile tail.Stats.beyond tail.Stats.samples;
  print_result ~correct:true ~attempted ~failed:0
    [
      ( "pairs_per_s",
        float_of_int (List.length per_pair) /. List.fold_left ( +. ) 0.0 per_pair,
        "1/s" );
      ("verdict_p50_s", Stats.median per_pair, "s");
      ("verdict_tail_s", tail.Stats.value, "s");
      ("verdict_geomean_s", Stats.geomean per_pair, "s");
      ("decided_frac", Stats.decided_frac ~decided ~attempted, "ratio");
      ("setup_s", Stats.median setup_times, "s");
      ("peak_rss_mb", List.fold_left (fun m s -> Float.max m s.rss_mb) 0.0 first_pass, "MB");
    ]

(* --- layer-traced run (--trace 1) ------------------------------------------------- *)

let counter name s = try List.assoc name s.outcome.counters with Not_found -> 0.0

(* Counters summed over samples; peaks take the maximum. *)
let total name samples =
  let pick = if name = "bdd.peak_nodes" then Float.max else ( +. ) in
  List.fold_left (fun acc s -> pick acc (counter name s)) 0.0 samples

let is_time name = Filename.check_suffix name "_s"

(* Counters steered by wall-clock timing.  Dispatch routes each obligation
   by an online cost model of measured solve times, so its counters move
   with host speed; under speculation every fixed-point obligation goes
   through it, so every work counter of the run moves with them. *)
let steered workload name =
  (String.length name > 9 && String.sub name 0 9 = "dispatch.")
  || (options_of workload).V.use_speculation

(* Work counters, expected to repeat exactly when a pair is run again. *)
let work_counters s =
  List.filter (fun (n, _) -> not (is_time n || n = "gc.major_collections")) s.outcome.counters

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Where the traced run writes its spans, relative to the working
   directory. *)
let trace_dir = ".perfbench-out"

(* Chrome trace-event JSON: one complete event per span, times in
   microseconds from the first span. *)
let write_trace path spans =
  let t0 = List.fold_left (fun t s -> Float.min t s.Stats.start) infinity spans in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      let args = try Hashtbl.find span_args s.Stats.id with Not_found -> [] in
      Printf.fprintf oc
        "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \
         \"args\": {\"span\": %d, \"op\": %d, \"parent\": %d, \"minor_words\": %.0f%s}}\n"
        (if i = 0 then "" else ",")
        s.Stats.name
        (1e6 *. (s.Stats.start -. t0))
        (1e6 *. (s.Stats.stop -. s.Stats.start))
        s.Stats.id s.Stats.op s.Stats.parent s.Stats.words
        (String.concat ""
           (List.map (fun (k, v) -> Printf.sprintf ", \"%s\": %s" k (json_num v)) args)))
    spans;
  output_string oc "]}\n"

(* The traced run takes the first pair of every circuit and runs each one
   three times back to back: untraced, traced, traced (the first two swap
   places on every other pair).  The untraced run against the first traced
   run gives the tracing overhead within the same host period; the two
   traced runs must agree on every work counter except the timing-steered
   ones, whose largest spread is reported as dispatch.spread. *)
let layered workload seed seconds =
  let options = options_of workload in
  let all_inputs, _, setup_spans = setup_once ~traced:true workload seed in
  List.iter (fun sp -> next_id := max !next_id (sp.Stats.id + 1)) setup_spans;
  let inputs = Array.of_list (List.filter (fun i -> i.variant = 0) (Array.to_list all_inputs)) in
  let n = Array.length inputs in
  let before = probe_ms () in
  let step i inp =
    let run rep = timed_op workload options inp ~rep ~isolate:false in
    if i mod 2 = 0 then
      let u = run 0 in
      let t1 = run 1 in
      [ u; t1; run 2 ]
    else
      let t1 = run 1 in
      let u = run 0 in
      [ t1; u; run 2 ]
  in
  let first_op = !op_counter in
  let samples, ops = closed_loop ~seconds ~covered:n inputs step in
  let passes = ops / n in
  let after = probe_ms () in
  let attempted = List.length samples in
  report_undecided seed all_inputs samples;
  let first_pass = List.filteri (fun i _ -> i < 3 * n) samples in
  let t1 = List.filter (fun s -> s.rep = 1) first_pass in
  let t2 = List.filter (fun s -> s.rep = 2) first_pass in
  let traced = List.filter (fun s -> s.rep > 0) samples in
  let traced_ops = float_of_int (List.length traced) in
  (* deterministic counters must repeat exactly *)
  let moved =
    List.concat_map
      (fun a ->
        let b = List.find (fun b -> b.s_pid = a.s_pid) t2 in
        List.filter_map
          (fun (name, v) ->
            if List.assoc_opt name (work_counters b) = Some v then None else Some name)
          (work_counters a))
      t1
    |> List.sort_uniq compare
  in
  let unsteady = List.filter (fun name -> not (steered workload name)) moved in
  List.iter
    (fun name ->
      Printf.printf "counter %s moved between the two traced runs: %s -> %s%s\n" name
        (json_num (total name t1)) (json_num (total name t2))
        (if steered workload name then " (timing-steered)" else " (expected to repeat)"))
    moved;
  let exempt =
    List.concat_map (fun s -> List.map fst (work_counters s)) t1
    |> List.sort_uniq compare |> List.filter (steered workload)
  in
  if exempt <> [] then
    Printf.printf "exempt %s timing-steered counters, not required to repeat: %s\n"
      (workload_name workload) (String.concat " " exempt);
  if unsteady <> [] then begin
    Printf.eprintf "perfbench: %s: counters moved between two traced runs of seed %d: %s\n%!"
      (workload_name workload) seed (String.concat " " unsteady);
    Printf.printf "{\"correct\": false, \"attempted\": %d, \"failed\": %d, \"metrics\": {}}\n%!"
      attempted (List.length unsteady);
    exit 1
  end;
  let dispatch_spread =
    List.fold_left
      (fun acc name -> Float.max acc (Stats.rel_spread [ total name t1; total name t2 ]))
      0.0
      (List.filter (steered workload) moved)
  in
  let c name = total name t1 in
  let selfs = Stats.self_times !spans in
  let setup_selfs = Stats.self_times setup_spans in
  let self_field f names tbl =
    List.fold_left (fun acc n -> acc +. (try f (List.assoc n tbl) with Not_found -> 0.0)) 0.0 names
  in
  let self_s = self_field (fun s -> s.Stats.self_s) in
  let self_w = self_field (fun s -> s.Stats.self_words) in
  let per_op_s names = self_s names selfs /. traced_ops in
  let per_op_mw names = self_w names selfs /. traced_ops /. 1e6 in
  let mean_time name = total name traced /. traced_ops in
  let latency_sum reps =
    List.fold_left (fun acc (_, v) -> acc +. v) 0.0
      (per_pair_latency (List.filter (fun s -> List.mem s.rep reps) samples))
  in
  let overhead = (latency_sum [ 1 ] /. latency_sum [ 0 ]) -. 1.0 in
  List.iter
    (fun (name, (s : Stats.self)) ->
      Printf.printf "layer %-16s self_s_per_op=%.6f alloc_mw_per_op=%.4f spans=%d\n" name
        (s.Stats.self_s /. traced_ops) (s.Stats.self_words /. traced_ops /. 1e6) s.Stats.count)
    selfs;
  report_probe workload before after;
  Printf.printf "run %s pairs=%d passes=%d ops=%d trace_overhead=%.4f dispatch_spread=%.4f\n"
    (workload_name workload) n passes attempted overhead dispatch_spread;
  (try
     if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
     let path =
       Filename.concat trace_dir (Printf.sprintf "%s-seed%d.json" (workload_name workload) seed)
     in
     let keep =
       List.rev setup_spans
       @ List.filter (fun s -> s.Stats.op < first_op + (3 * n)) (List.rev !spans)
     in
     write_trace path keep;
     Printf.printf "trace %s (%d spans: set-up and the first pass)\n" path (List.length keep)
   with Sys_error msg -> Printf.printf "trace not written: %s\n" msg);
  let cert = [ "cert.emit"; "cert.prove"; "cert.check" ] in
  let witness = [ "witness.replay"; "witness.shrink" ] in
  let setup_names = [ "setup.build"; "setup.recipe"; "setup.mutate"; "setup.print" ] in
  print_result ~correct:true ~attempted ~failed:0
    [
      ("aig.parse_s", per_op_s [ "aig.parse" ], "s");
      ("lint.preflight_s", per_op_s [ "lint.preflight" ], "s");
      ("scorr.refute_s", mean_time "scorr.refute_s", "s");
      ("scorr.seed_s", mean_time "scorr.seed_s", "s");
      ("scorr.initial_s", mean_time "scorr.initial_s", "s");
      ("scorr.fixpoint_s", mean_time "scorr.fixpoint_s", "s");
      ("scorr.iterations", c "scorr.iterations", "count");
      ("scorr.batched_solves", c "scorr.batched_solves", "count");
      ("scorr.cache_hits", c "scorr.cache_hits", "count");
      ("scorr.static_splits", c "scorr.static_splits", "count");
      ("simpool.lanes", c "simpool.lanes", "count");
      ("simpool.resim_splits", c "simpool.resim_splits", "count");
      ("simpool.split_ratio", ratio (c "simpool.resim_splits") (c "simpool.lanes"), "ratio");
      ("sat.calls", c "sat.calls", "count");
      ("sat.conflicts", c "sat.conflicts", "count");
      ("sat.propagations", c "sat.propagations", "count");
      ("sat.encoded_vars", c "sat.encoded_vars", "count");
      ("sat.reused_clauses", c "sat.reused_clauses", "count");
      ("sat.core_prunes", c "sat.core_prunes", "count");
      ( "sat.prune_ratio",
        ratio (c "sat.core_prunes") (c "sat.core_prunes" +. c "sat.calls"),
        "ratio" );
      ("bdd.peak_nodes", c "bdd.peak_nodes", "count");
      ("dispatch.rounds", c "dispatch.rounds", "count");
      ("dispatch.merges", c "dispatch.merges", "count");
      ("dispatch.refuted", c "dispatch.refuted", "count");
      ( "dispatch.refuted_ratio",
        ratio (c "dispatch.refuted")
          (c "dispatch.by_sim" +. c "dispatch.by_bdd" +. c "dispatch.by_sat"),
        "ratio" );
      ("dispatch.by_sim", c "dispatch.by_sim", "count");
      ("dispatch.by_bdd", c "dispatch.by_bdd", "count");
      ("dispatch.by_sat", c "dispatch.by_sat", "count");
      ("dispatch.spread", dispatch_spread, "ratio");
      ("analysis.prereduce_s", mean_time "analysis.prereduce_s", "s");
      ("cert.emit_s", per_op_s [ "cert.emit" ], "s");
      ("cert.prove_s", per_op_s [ "cert.prove" ], "s");
      ("cert.check_s", per_op_s [ "cert.check" ], "s");
      ("cert.proof_steps", c "cert.proof_steps", "count");
      ("witness.replay_s", per_op_s [ "witness.replay" ], "s");
      ("witness.shrink_s", per_op_s [ "witness.shrink" ], "s");
      ("witness.frames", c "witness.frames", "count");
      ( "witness.bits_kept_ratio",
        ratio (c "witness.ones_after") (c "witness.ones_before"),
        "ratio" );
      ("setup.build_s", self_s [ "setup.build" ] setup_selfs, "s");
      ("setup.recipe_s", self_s [ "setup.recipe" ] setup_selfs, "s");
      ("setup.mutate_s", self_s [ "setup.mutate" ] setup_selfs, "s");
      ("setup.print_s", self_s [ "setup.print" ] setup_selfs, "s");
      ("setup.alloc_mw", self_w setup_names setup_selfs /. 1e6, "Mword");
      ("aig.alloc_mw", per_op_mw [ "aig.parse" ], "Mword");
      ("lint.alloc_mw", per_op_mw [ "lint.preflight" ], "Mword");
      ("scorr.alloc_mw", per_op_mw [ "scorr.verify" ], "Mword");
      ("cert.alloc_mw", per_op_mw cert, "Mword");
      ("witness.alloc_mw", per_op_mw witness, "Mword");
      ("bench.self_s", per_op_s [ "op" ], "s");
      ("gc.major_collections", c "gc.major_collections", "count");
      ("trace.overhead_frac", overhead, "ratio");
    ]

(* --- command line ---------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0 and trace = ref 0 in
  let rev = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W sat-signoff | bdd-default | speculate | bughunt");
      ("--seed", Arg.Set_int seed, "N benchmark seed (required)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the layer-traced run (1)");
      ("--rev", Arg.Set_string rev, "REV source revision to record");
    ]
  in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S\n%s\n" !workload usage;
      exit 2
  in
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    Printf.eprintf "perfbench: need --seed >= 0, --seconds > 0 and --trace 0|1\n";
    exit 2
  end;
  bench_seed := !seed;
  Printf.printf "config workload=%s seed=%d seconds=%g trace=%d rev=%s ocaml=%s cpus=%d\n"
    !workload !seed !seconds !trace !rev Sys.ocaml_version (Domain.recommended_domain_count ());
  Printf.printf "config gc %s\n" (gc_line ());
  Printf.printf "config options %s\n%!" (options_line (options_of w));
  try
    if !trace = 0 then end_to_end w !seed !seconds else layered w !seed !seconds
  with Setup_failed msg ->
    Printf.eprintf "perfbench: %s: set-up failed for seed %d: %s\n" !workload !seed msg;
    exit 1
