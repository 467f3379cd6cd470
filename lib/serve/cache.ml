(* Fingerprint-keyed result store of the serve daemon.

   A cache key is [(spec_md5, impl_md5, canonical option string)].  The
   option string covers exactly the options that can change a conclusive
   verdict's *derivation* (method, engine, induction depth, seed,
   analysis) and deliberately excludes the deadline: a conclusive verdict
   is budget-independent, so a pair proved under a 10 s budget answers
   the same submission under any other budget.  Only conclusive verdicts
   (equivalent / not equivalent) are cached — an Unknown is a property of
   the budget, not the pair, and caching it would pin a transient failure.

   Inconclusive runs still contribute: their final partition is persisted
   as a checkpoint under the same key, and a later submission for the
   same fingerprints warm-starts from the most refined compatible
   checkpoint (probed with {!Scorr.Checkpoint.compatible} — same
   candidate set and seed, induction depth no shallower than the
   checkpoint requires).

   Layout on disk, one directory per key under the cache root:

   {v
   <root>/<spec8><impl8>-<md5(optkey)8>/
     verdict       line-oriented verdict record (conclusive runs only)
     cert          equivalence certificate (equivalent verdicts with a relation)
     checkpoint    most refined partition reached (inconclusive runs)
   v}

   The in-memory layer is a bounded LRU of verdict records; the disk
   layer is the persistent source of truth that survives daemon
   restarts.  Everything is guarded by one mutex — entries are small and
   the daemon's verification work happens elsewhere. *)

type verdict_entry = {
  v_verdict : string;  (* "equivalent" | "not_equivalent" *)
  v_frame : int;  (* -1 when not refuted *)
  v_trace : string list;  (* witness input bits per frame *)
  v_iterations : int;
  v_classes : int;
  v_sat_calls : int;
  v_eq_pct : float;
  v_cert : string option;  (* path of the persisted certificate *)
}

(* A verdict record keeps four of the run counters. *)
let entry_of_stats ~verdict ~frame ~trace (s : Scorr.Verify.stats) =
  { v_verdict = verdict; v_frame = frame; v_trace = trace; v_iterations = s.Scorr.Verify.iterations;
    v_classes = s.classes; v_sat_calls = s.sat_calls; v_eq_pct = s.eq_pct; v_cert = None }

let counters_of_entry e =
  { Scorr.Counters.zero with Scorr.Counters.iterations = e.v_iterations; classes = e.v_classes;
    sat_calls = e.v_sat_calls; eq_pct = e.v_eq_pct }

type stats = {
  entries : int;  (* in-memory LRU occupancy *)
  hits : int;
  misses : int;
  evictions : int;
}

type slot = { mutable entry : verdict_entry; mutable last_used : int }

type t = {
  dir : string;
  capacity : int;
  mu : Mutex.t;
  table : (string, slot) Hashtbl.t;
  mutable tick : int;  (* LRU clock: bumped on every touch *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?(capacity = 128) ~dir () =
  mkdir_p dir;
  {
    dir;
    capacity = max 1 capacity;
    mu = Mutex.create ();
    table = Hashtbl.create 64;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

(* Canonical option string: order-fixed, deadline-free (see above). *)
let options_key (o : Protocol.verify_opts) =
  (* speculate on/off prove the same verdict but report different
     solver-work counters, so the runs must not share a cache entry *)
  Printf.sprintf "m=%s e=%s k=%d seed=%d analysis=%b spec=%b" o.meth o.engine
    (max 1 o.induction) o.seed o.analysis o.speculate

let key ~spec_digest ~impl_digest ~opts_key =
  spec_digest ^ ":" ^ impl_digest ^ ":" ^ opts_key

(* One filesystem directory per key; fingerprints are already hex MD5s,
   the option string is digested to keep the name short and shell-safe. *)
let entry_dir t ~spec_digest ~impl_digest ~opts_key =
  let short s n = if String.length s > n then String.sub s 0 n else s in
  Filename.concat t.dir
    (Printf.sprintf "%s%s-%s" (short spec_digest 8) (short impl_digest 8)
       (short (Digest.to_hex (Digest.string opts_key)) 8))

let verdict_path dir = Filename.concat dir "verdict"
let cert_path dir = Filename.concat dir "cert"
let checkpoint_path dir = Filename.concat dir "checkpoint"

(* --- verdict record disk format ------------------------------------------------ *)

exception Malformed of string

let write_file path text =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text);
  Sys.rename tmp path

let entry_to_string ~spec_digest ~impl_digest ~opts_key e =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "seqver-cache 1\n";
  Buffer.add_string buf (Printf.sprintf "spec-md5 %s\n" spec_digest);
  Buffer.add_string buf (Printf.sprintf "impl-md5 %s\n" impl_digest);
  Buffer.add_string buf (Printf.sprintf "options %s\n" opts_key);
  Buffer.add_string buf (Printf.sprintf "verdict %s\n" e.v_verdict);
  Buffer.add_string buf (Printf.sprintf "frame %d\n" e.v_frame);
  Buffer.add_string buf (Printf.sprintf "iterations %d\n" e.v_iterations);
  Buffer.add_string buf (Printf.sprintf "classes %d\n" e.v_classes);
  Buffer.add_string buf (Printf.sprintf "sat-calls %d\n" e.v_sat_calls);
  Buffer.add_string buf (Printf.sprintf "eq-pct %.6f\n" e.v_eq_pct);
  List.iter (fun frame -> Buffer.add_string buf (Printf.sprintf "trace %s\n" frame)) e.v_trace;
  (match e.v_cert with
  | Some _ -> Buffer.add_string buf "cert yes\n"
  | None -> ());
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let entry_of_string ~spec_digest ~impl_digest ~opts_key dir text =
  let fail fmt = Printf.ksprintf (fun msg -> raise (Malformed msg)) fmt in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  let fields = Hashtbl.create 16 in
  let traces = ref [] in
  let saw_end = ref false in
  List.iter
    (fun line ->
      match String.index_opt line ' ' with
      | _ when line = "end" -> saw_end := true
      | None -> fail "malformed line %S" line
      | Some i ->
        let k = String.sub line 0 i and v = String.sub line (i + 1) (String.length line - i - 1) in
        if k = "trace" then traces := v :: !traces else Hashtbl.replace fields k v)
    lines;
  if not !saw_end then fail "truncated verdict record (no end marker)";
  let field k = match Hashtbl.find_opt fields k with Some v -> v | None -> fail "missing %s" k in
  let int_field k = try int_of_string (field k) with Failure _ -> fail "bad integer in %s" k in
  if field "seqver-cache" <> "1" then fail "unsupported cache version %s" (field "seqver-cache");
  (* a record written for different fingerprints or options is a hash
     collision in the directory name, not an answer *)
  if field "spec-md5" <> spec_digest || field "impl-md5" <> impl_digest then
    fail "fingerprint mismatch: record is for %s/%s" (field "spec-md5") (field "impl-md5");
  if field "options" <> opts_key then fail "option-set mismatch: record is for %S" (field "options");
  let cert =
    match Hashtbl.find_opt fields "cert" with
    | Some "yes" when Sys.file_exists (cert_path dir) -> Some (cert_path dir)
    | _ -> None
  in
  {
    v_verdict = field "verdict";
    v_frame = int_field "frame";
    v_trace = List.rev !traces;
    v_iterations = int_field "iterations";
    v_classes = int_field "classes";
    v_sat_calls = int_field "sat-calls";
    v_eq_pct = (try float_of_string (field "eq-pct") with Failure _ -> fail "bad eq-pct");
    v_cert = cert;
  }

(* --- LRU ------------------------------------------------------------------------ *)

let touch t slot =
  t.tick <- t.tick + 1;
  slot.last_used <- t.tick

let evict_if_full t =
  if Hashtbl.length t.table >= t.capacity then begin
    let victim = ref None in
    Hashtbl.iter
      (fun k slot ->
        match !victim with
        | Some (_, lu) when lu <= slot.last_used -> ()
        | _ -> victim := Some (k, slot.last_used))
      t.table;
    match !victim with
    | Some (k, _) ->
      Hashtbl.remove t.table k;
      t.evictions <- t.evictions + 1
    | None -> ()
  end

let insert t k entry =
  match Hashtbl.find_opt t.table k with
  | Some slot ->
    slot.entry <- entry;
    touch t slot
  | None ->
    evict_if_full t;
    let slot = { entry; last_used = 0 } in
    touch t slot;
    Hashtbl.replace t.table k slot

(* --- public operations ---------------------------------------------------------- *)

(* Memory first, then disk (promoting a disk hit into the LRU so a
   restarted daemon re-warms itself from its own store). *)
let find t ~spec_digest ~impl_digest ~opts_key =
  locked t (fun () ->
      let k = key ~spec_digest ~impl_digest ~opts_key in
      match Hashtbl.find_opt t.table k with
      | Some slot ->
        touch t slot;
        t.hits <- t.hits + 1;
        Some slot.entry
      | None ->
        let dir = entry_dir t ~spec_digest ~impl_digest ~opts_key in
        let vp = verdict_path dir in
        if Sys.file_exists vp then begin
          let text () = In_channel.with_open_bin vp In_channel.input_all in
          match entry_of_string ~spec_digest ~impl_digest ~opts_key dir (text ()) with
          | entry ->
            insert t k entry;
            t.hits <- t.hits + 1;
            Some entry
          | exception (Malformed _ | Sys_error _) ->
            (* unreadable record: treat as a miss, let a fresh run overwrite it *)
            t.misses <- t.misses + 1;
            None
        end
        else begin
          t.misses <- t.misses + 1;
          None
        end)

let store t ~spec_digest ~impl_digest ~opts_key ?cert entry =
  locked t (fun () ->
      let dir = entry_dir t ~spec_digest ~impl_digest ~opts_key in
      mkdir_p dir;
      let entry =
        match cert with
        | None -> entry
        | Some cert_text ->
          write_file (cert_path dir) cert_text;
          { entry with v_cert = Some (cert_path dir) }
      in
      write_file (verdict_path dir) (entry_to_string ~spec_digest ~impl_digest ~opts_key entry);
      insert t (key ~spec_digest ~impl_digest ~opts_key) entry;
      entry)

let store_checkpoint t ~spec_digest ~impl_digest ~opts_key cp =
  locked t (fun () ->
      let dir = entry_dir t ~spec_digest ~impl_digest ~opts_key in
      mkdir_p dir;
      write_file (checkpoint_path dir) (Scorr.Checkpoint.to_string cp))

(* Warm-start probe: scan every persisted checkpoint whose directory name
   starts with this fingerprint pair (any option set — compatibility is
   decided by {!Scorr.Checkpoint.compatible}, not the directory name) and
   return the most refined compatible one. *)
let best_checkpoint t ~spec_digest ~impl_digest ~candidates ~induction ~seed =
  locked t (fun () ->
      let short s = if String.length s > 8 then String.sub s 0 8 else s in
      let prefix = short spec_digest ^ short impl_digest ^ "-" in
      let dirs = try Sys.readdir t.dir with Sys_error _ -> [||] in
      Array.fold_left
        (fun best name ->
          if not (String.length name > String.length prefix
                  && String.sub name 0 (String.length prefix) = prefix)
          then best
          else
            let cp_path = checkpoint_path (Filename.concat t.dir name) in
            if not (Sys.file_exists cp_path) then best
            else
              match Scorr.Checkpoint.parse_file cp_path with
              | exception (Scorr.Checkpoint.Parse_error _ | Sys_error _) -> best
              | cp -> (
                match
                  Scorr.Checkpoint.compatible ~spec_digest ~impl_digest ~candidates ~induction
                    ~seed cp
                with
                | Error _ -> best
                | Ok () -> (
                  match best with
                  | Some b when b.Scorr.Checkpoint.iterations >= cp.Scorr.Checkpoint.iterations ->
                    best
                  | _ -> Some cp)))
        None dirs)

let stats t =
  locked t (fun () ->
      { entries = Hashtbl.length t.table; hits = t.hits; misses = t.misses; evictions = t.evictions })
