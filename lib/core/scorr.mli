(** Sequential equivalence checking without state space traversal.

    The paper's method (van Eijk, DATE'98): prove two sequential circuits
    equivalent by computing the {e maximum signal correspondence relation}
    — the greatest equivalence relation over the (polarity-normalized)
    signals of the product machine that holds in the initial state and is
    inductive over one time frame — using only combinational techniques.

    Typical use:
    {[
      let spec, _ = Aig.of_netlist (Netlist.Blif.parse_file "spec.blif") in
      let impl, _ = Aig.of_netlist (Netlist.Blif.parse_file "impl.blif") in
      match Scorr.check spec impl with
      | Scorr.Equivalent stats -> ...
      | Scorr.Not_equivalent { frame; _ } -> ...
      | Scorr.Unknown _ -> ...      (* sound incompleteness *)
    ]} *)

(** The run counters of one verification, declared once: the record every
    source returns when harvested, the rule that combines two harvests,
    and the table the CLI, bench rows and serve outcomes render from.  A
    new counter is one record field, one row of {!fields}, and the code
    that increments it. *)
module Counters : sig
  module Record : sig
    type stats = {
      iterations : int;  (** refinement iterations, all rounds *)
      retime_rounds : int;  (** times the retiming extension was invoked *)
      candidates : int;  (** |F| of the last round *)
      classes : int;  (** classes of the final relation *)
      peak_bdd_nodes : int;
      sat_calls : int;
      pool_lanes : int;  (** counterexample patterns accumulated in the pool *)
      resim_splits : int;  (** classes created by bit-parallel pattern replay *)
      batched_solves : int;  (** one-per-class disjunctive solves / key scans *)
      cache_hits : int;  (** classes skipped by the stability (UNSAT) cache *)
      static_splits : int;
          (** always 0: the PI-support prefilter is gone, and the field
              stays only because perfbench reads it *)
      spec_rounds : int;
          (** speculative reductions screened, one per fixed-point
              iteration; 0 when speculation was off *)
      spec_merges : int;
          (** candidate members merged onto representatives, summed over
              the speculation rounds *)
      refuted_assumptions : int;
          (** always 0: the screen never refutes; the field stays only
              because perfbench reads it *)
      spec_by_sim : int;
          (** always 0: the dispatcher's simulation screen is gone, and
              the field stays only because perfbench reads it *)
      spec_by_bdd : int;  (** obligations the BDD screen proved valid *)
      spec_by_sat : int;  (** obligations the screen left to the SAT sweep *)
      domains : int;  (** worker lanes of the sweep scheduler *)
      lane_solves : int list;  (** sweep tasks completed per lane *)
      sched_wait_seconds : float;
          (** coordinator idle time awaiting worker lanes *)
      conflicts : int;  (** SAT conflicts, summed over every solver of the run *)
      propagations : int;  (** SAT propagations, likewise *)
      restarts : int;  (** SAT restarts, likewise *)
      encoded_vars : int;  (** SAT variables created, across every solver *)
      reused_clauses : int;
          (** clauses already in place when a solve was issued — the work
              the persistent solvers did not redo *)
      core_prunes : int;
          (** class re-solves skipped by failed-assumption-core transfer *)
      eq_pct : float;
      seconds : float;  (** wall-clock time of the whole run *)
      phase_seconds : (string * float) list;
          (** wall time per phase ([refute], [seed], [initial], [fixpoint],
              [outputs]), accumulated across retiming rounds *)
      exhausted : string option;
          (** [Some reason] when an [Unknown] verdict came from a blown
              budget (["deadline"], ["sat calls"], ["bdd nodes"],
              ["iterations"]) rather than from the method's incompleteness *)
    }
  end

  include module type of struct include Record end

  type t = stats

  val zero : t
  (** Nothing counted ([domains] is 1: the coordinator's lane). *)

  type value = Int of int | Float of float | Ints of int list

  type rule = Sum | Max | Lanes | Result
  (** How two harvests combine: [Sum] for work, [Max] for peaks, [Lanes]
      adds per-lane lists element-wise; a [Result] is a property of the
      final relation that Verify sets once. *)

  type group = Fixpoint | Solver | Speculation | Scheduler

  type field = {
    key : string;  (** JSON key of bench rows and serve outcomes *)
    label : string;  (** CLI label *)
    unit : string;  (** ["s"] or ["%"] for float counters; [""] otherwise *)
    group : group;  (** the CLI prints a group only when it has something to say *)
    rule : rule;
    get : t -> value;
    set : t -> value -> t;
  }

  val fields : field list
  (** One row per counter, in display order.  [seconds], [phase_seconds]
      and [exhausted] describe the run rather than count its work and
      have no row. *)

  val combine : t -> t -> t
  (** Fold a harvest into an accumulator, counter by counter by its rule;
      fields without a row keep the accumulator's values. *)

  val measured : field -> value -> bool
  (** [false] for a peak still at 0 (the run built no BDD): JSON writes
      it as null. *)

  val to_list : t -> (string * value) list
  (** Every counter keyed by its JSON key, in table order. *)

  val of_list : (string * value) list -> t
  (** Inverse of {!to_list}; missing keys stay at {!zero}. *)

  val render : t -> string
  (** The CLI block: a ["  label: value"] line per counter of every group
      with something to say. *)
end

(** The product machine (shared inputs, union of latches) and per-signal
    provenance used for the equivalence-percentage statistic. *)
module Product : sig
  type side = { n_latches : int; latch_offset : int; lit_in_product : int -> int }

  type t = {
    aig : Aig.t;
    spec : side;
    impl : side;
    is_spec : bool array;
    is_impl : bool array;
    outputs : (string * int * int) list;  (** name, spec literal, impl literal *)
    n_original_nodes : int;
  }

  val make : Aig.t -> Aig.t -> t
  (** Pair two circuits over shared inputs; outputs are matched by name.
      A PO ["outputs_agree"] is added so {!Reach} can traverse the same
      machine.
      @raise Invalid_argument on interface mismatch. *)

  val candidate_nodes : t -> int list
  val node_is_spec : t -> int -> bool
  val node_is_impl : t -> int -> bool
  val node_is_helper : t -> int -> bool
  (** Nodes added by retiming augmentation (excluded from statistics). *)

  val reference_values : ?seed:int -> t -> bool array
  (** Valuation of all signals at the initial state under one fixed input
      vector: the polarity normalization point of Section 3. *)
end

(** Equivalence classes over candidate signals, refined monotonically. *)
module Partition : sig
  type t

  val create : n_nodes:int -> candidates:int list -> pol:bool array -> t
  val n_classes : t -> int
  val class_of : t -> int -> int
  val polarity : t -> int -> bool
  val members : t -> int -> int list
  val is_candidate : t -> int -> bool

  val norm_lit : t -> int -> int
  (** Polarity-normalized literal of a candidate node. *)

  val representative : t -> int -> int

  val refine_by_key : t -> (int -> 'k) -> int
  (** Split classes by a key; returns the number of classes created. *)

  val refine_class : t -> int -> equal:(int -> int -> bool) -> bool
  val lits_equal : t -> int -> int -> bool
  (** Are two literals provably equal under the relation (same class,
      consistent polarity)? *)

  val constraint_pairs : t -> (int * int) list
  (** The (representative, member) pairs whose equalities form Q. *)

  val multi_member_classes : t -> int list

  val version : t -> int
  (** Monotone counter bumped once by every refinement event that splits
      a class.  A class proof holds while the version stands
      ({!Sweep.select}). *)

  val pp : Format.formatter -> t -> unit
end

(** Monotonic-safe wall clock: [Unix.gettimeofday] clamped to be
    non-decreasing process-wide (including across domains), so intervals
    measured against it are never negative. *)
module Clock : sig
  val now : unit -> float
  val since : float -> float
  (** Seconds elapsed since an earlier {!now} reading (>= 0). *)

  val measure : record:(float -> unit) -> (unit -> 'a) -> 'a
  (** Run a thunk and deliver its wall time to [record] on {e every} exit,
      including exceptional ones — a phase that aborts on a blown budget
      still reports the time it consumed. *)

  val timed : (unit -> 'a) -> 'a * float
  (** Run a thunk and return its result with its wall time.  Exception-safe
      via {!measure}, though the elapsed time is only observable on normal
      returns. *)
end

(** Wall-clock deadline budgets: an absolute expiry instant plus a shared
    cancellation flag, so the first worker lane that observes expiry
    cancels every other lane's next poll without further clock reads.
    Expiry never raises here — engines test {!Deadline.expired} and raise
    {!Sweep.Budget_exceeded}, keeping the abort path uniform with the
    call-count and node-count budgets. *)
module Deadline : sig
  type t

  type flag
  (** An external cancellation flag: a shared atomic owned by someone
      outside the run (e.g. the serve daemon's per-job cancel).  Kept
      separate from the deadline's internal expiry latch so a portfolio
      rung whose time slice expires does not masquerade as a job-level
      cancel, and one flag can reach every rung a job will ever start. *)

  val flag : unit -> flag
  val cancel : flag -> unit
  (** Request cancellation; every deadline carrying the flag reports
      {!expired} from its next poll on. *)

  val cancelled : flag -> bool

  val none : t
  (** Never expires. *)

  val make : seconds:float -> t
  (** A deadline [seconds] from now; non-positive yields {!none}. *)

  val with_flag : flag -> t -> t
  (** Attach an external cancellation flag to a deadline. *)

  val active : t -> bool
  val expired : t -> bool
  (** Polled by the engines once per class solve, so an abort lands
      within one class-solve of the expiry. *)

  val remaining : t -> float
  (** Seconds left ([infinity] for {!none}, clamped at 0). *)
end

(** Domain pool scheduling the SAT engine's sweep rounds.

    A pool of [jobs] lanes: lane 0 is the calling domain (the
    coordinator participates in its own batches), lanes 1.. are
    persistent worker domains.  Each lane lazily builds private state
    with [init lane] inside its own domain and reuses it across every
    {!map}.  At [jobs = 1] everything runs inline with no domains, locks
    or atomics — the degenerate pool is the sequential code path. *)
module Parsweep : sig
  type 'w t

  val create : jobs:int -> init:(int -> 'w) -> 'w t
  (** Spawn [jobs - 1] worker domains ([jobs] is clamped to >= 1).
      [init] runs lazily, once per lane, inside the lane's domain. *)

  val jobs : _ t -> int

  val map : 'w t -> f:('w -> 'a -> 'b) -> 'a array -> 'b array
  (** Run [f] over every task and return the results in task order,
      whatever lane computed them.  Every lane claims the next unclaimed
      task from one shared atomic cursor until none is left.
      A task that raises does not kill its lane: the exception of the
      smallest failing task index is re-raised here after the batch
      completes, and the pool remains usable. *)

  val initialized_states : 'w t -> 'w list
  (** The lane states built so far, in lane order.  Coordinator-only,
      and only between batches: the batch hand-off is what makes the
      workers' lazily built states visible.  The SAT engine walks these
      to harvest solver counters. *)

  val harvest : _ t -> Counters.t
  (** The scheduler's run counters: [domains] (lanes, the coordinator's
      lane 0 included), [lane_solves] (tasks completed per lane,
      lifetime) and [sched_wait_seconds] (coordinator idle time awaiting
      stragglers). *)

  val shutdown : _ t -> unit
  (** Join the worker domains; idempotent.  Subsequent {!map} calls
      raise [Invalid_argument]. *)
end

(** Counterexample pattern pool: solver/BDD counterexamples packed as bit
    lanes of a 64-wide simulation buffer, replayed against every class at
    once by one bit-parallel pass. *)
module Simpool : sig
  type t

  val create : Aig.t -> t
  val lanes : t -> int
  (** Filled lanes of the current buffer (0..64). *)

  val total_lanes : t -> int
  val flushes : t -> int
  val resim_splits : t -> int
  (** Classes created by flushes so far. *)

  val is_full : t -> bool

  val add : t -> pi:(int -> bool) -> latch:(int -> bool) -> unit
  (** Pack one (input, state) valuation into the next free lane.
      @raise Invalid_argument when the pool {!is_full}. *)

  val flush : t -> Partition.t -> int
  (** Split every class by the members' values on all buffered patterns
      (unused lanes masked out); resets the buffer and returns the number
      of classes created. *)

  val snapshot : t -> (bool array * bool array) list
  (** The (input, state) valuations of the currently buffered lanes, in
      insertion order — the patterns a checkpoint must preserve so no
      witnessed split is lost across an interruption. *)
end

(** The engine-independent half of the Eq. (3) fixed point, shared by
    both refinement engines: the counterexample pattern pool, the
    stability cache behind class selection and the sweep counters.  Each
    engine keeps only its class check and its Eq. (2) refinement.  The
    one skip rule: a class proven stable at the current partition version
    is skipped, and every other multi-member class is checked, so a sweep
    that splits nothing is the greatest fixed point. *)
module Sweep : sig
  exception Budget_exceeded of string
  (** The one budget abort of a run, raised by both engines, the
      speculation screen and Verify's own poll; it names the budget
      (["deadline"], ["sat calls"], ["bdd nodes"], ["iterations"]). *)

  type t

  val create : Aig.t -> t
  (** Fresh sweep state over a product AIG. *)

  val harvest : t -> Counters.t
  (** Pool lanes, replay splits, batched solves and cache hits so far. *)

  val proved : t -> int -> version:int -> unit
  (** Record a class an engine proved stable at a partition version. *)

  val mark_proved : t -> Partition.t -> int list -> unit
  (** Record classes another prover (the speculative BDD screen) proved
      stable at the partition's current version; the sweep treats them
      like its own proofs at that version. *)

  val select : t -> Partition.t -> (int -> 'a option) -> 'a array
  (** A round's tasks in ascending class order: every multi-member class
      not proven at the current version, mapped through the engine's
      task function ([None] drops it).  Every skipped class counts one
      cache hit. *)
end

(** Random sequential simulation seeding (Section 4). *)
module Simseed : sig
  val signatures : ?seed:int -> ?n_frames:int -> Product.t -> bool array -> int64 list array
  val refine : ?seed:int -> ?n_frames:int -> Product.t -> Partition.t -> int
end

(** Ternary (X-valued) simulation seeding: exact partition splits by the
    input-independent part of the state sequence from the initial state. *)
module Ternseed : sig
  val refine : ?max_steps:int -> Product.t -> Partition.t -> int
  (** Split classes whose members have definitely-unequal ternary
      signatures; returns the number of classes split.  Sound and exact:
      split signals differ at a fixed frame of every run. *)

  val stuck_constants : ?max_steps:int -> Product.t -> (int * bool) list
  (** Product-machine latches (by index) provably stuck at a constant. *)
end

(** Speculative reduction (ABC-style SRM): the product machine rebuilt
    with every candidate class merged onto its representative, one
    assumption obligation per merge that structural hashing did not
    discharge outright, and the BDD screen that proves classes on the
    reduction ahead of the SAT sweep.  Exactness argument in
    specreduce.ml. *)
module Specreduce : sig
  type obligation = {
    ob_class : int;  (** partition class id at build time *)
    ob_member : int;  (** original product node merged away *)
    ob_rep : int;  (** its class representative (original node) *)
    ob_mem_lit : int;  (** reduced literal: the member's own function *)
    ob_rep_lit : int;  (** reduced literal: what fanouts read instead *)
  }

  type t = {
    raig : Aig.t;  (** the speculatively reduced product (never cleaned up) *)
    map : int array;  (** original node id -> reduced literal of its positive literal *)
    partition_version : int;
    obligations : obligation array;  (** strashing survivors, ascending member id *)
    n_merges : int;  (** members merged onto representatives *)
    n_trivial : int;  (** merges discharged structurally *)
    strash_rewrites : int;  (** two-level identities fired during rebuild *)
  }

  val build : Product.t -> Partition.t -> t
  val tr : t -> int -> int
  (** Reduced image of an original-product literal. *)

  (** The BDD screen of a speculative run: per-round manager and node
      budget, plus the classes banned after a blowup. *)
  type screen = {
    node_limit : int;  (** per-round BDD manager budget *)
    latch_pos : int array;  (** latch index -> BDD variable position *)
    deadline : Deadline.t;  (** polled once per obligation *)
    banned : (int, unit) Hashtbl.t;  (** classes whose check blew the budget *)
    mutable counters : Counters.t;
        (** speculation rounds and merges, obligations proved by the BDD
            check ([spec_by_bdd]) and left to the sweep ([spec_by_sat]),
            peak BDD nodes *)
  }

  val screen_create : node_limit:int -> latch_order:int array -> deadline:Deadline.t -> screen

  val screen : screen -> Product.t -> Partition.t -> int list
  (** Build the reduction of the partition and check every obligation of
      an unbanned class for unconstrained two-frame validity on it.
      Returns the multi-member classes whose obligations are all
      structurally trivial or valid: they hold at the partition's
      current version (which the screen does not change) for every
      induction depth, provided every other class is proven at that
      same version (the argument in specreduce.ml).  Never refutes.
      @raise Sweep.Budget_exceeded when the deadline expires. *)
end

(** BDD refinement engine (the paper's own implementation style). *)
module Engine_bdd : sig
  exception Build_exceeded of { reason : string; live_nodes : int }
  (** A budget ran out inside {!make}; [live_nodes] is the manager's
      live node count at the abort.  {!Verify.run} hands a node-budget
      abort, here or in a refinement step, to the SAT engine at k = 1. *)

  type ctx

  val make :
    ?use_fundep:bool ->
    ?latch_order:int array ->
    ?care_of:(Bdd.manager -> int array -> Bdd.t) ->
    ?node_limit:int ->
    ?deadline:Deadline.t ->
    Product.t ->
    ctx
  (** @raise Build_exceeded when the node budget or the deadline runs
      out while the engine is built. *)

  val harvest : ctx -> Counters.t
  (** Peak nodes and the sweep's counters. *)

  val refine_initial : ctx -> Partition.t -> unit
  (** Equation (2): exact initial-state partition. *)

  val refine_once : ctx -> Partition.t -> bool
  (** Equation (3): one refinement iteration ({!Sweep}'s protocol) with
      one node-free scan per class not proven at the current version;
      [true] when a class split, [false] at the fixed point.
      @raise Sweep.Budget_exceeded when the node budget or the deadline
      runs out. *)

  val norm_ini : ctx -> Partition.t -> int -> Bdd.t
  (** Normalized initial-state function of a candidate node. *)
end

(** SAT refinement engine with counterexample-driven bulk splitting and an
    optional k-inductive unrolling (the paper's future-work direction). *)
module Engine_sat : sig
  type ctx

  val make :
    ?max_sat_calls:int ->
    ?k:int ->
    ?jobs:int ->
    ?deadline:Deadline.t ->
    Product.t ->
    ctx
  (** [jobs] worker lanes solve the Eq.(3) sweep rounds; each lane > 0
      owns a private copy of the unrolled product CNF built inside its
      own domain.  Default 1 (sequential, no domains spawned).  Every
      solver lives across all rounds and iterations. *)

  val shutdown : ctx -> unit
  (** Join the sweep pool's worker domains; idempotent. *)

  val sweep : ctx -> Sweep.t
  (** The engine's sweep state, where the speculative screen marks the
      classes it proves ({!Sweep.mark_proved}). *)

  val harvest : ctx -> Counters.t
  (** SAT calls, pool and sweep counters, solver work (read live from
      every solver) and the scheduler's counters accumulated so far.
      Coordinator-only, between rounds (reads the pool's lane states). *)

  val refine_initial : ctx -> Partition.t -> unit
  (** Equation (2) batched: one staged disjunctive solve per (class,
      frame), counterexamples pooled and replayed bit-parallel. *)

  val refine_once : ctx -> Partition.t -> bool
  (** Equation (3) batched: the classes not proven at the current
      version are frozen into snapshot tasks, solved across the pool's
      lanes (one staged disjunctive solve each, on the lane's private
      solver), and the outcomes merged serially in ascending class order
      with pooled counterexamples; [true] when a class split, [false] at
      the fixed point.  The fixed point reached is
      schedule-independent: the same for every worker count as for the
      sequential sweep (property-tested).  Budgets are enforced {e per
      class solve}: every lane reserves a slot in the shared atomic call
      counter (and polls the shared deadline flag) before issuing a
      solve, so a parallel round overshoots [max_sat_calls] by at most
      the [jobs] solves already in flight. *)
end

(** Candidate-set extension by forward retiming with lag 1 (Fig. 3). *)
module Retime_aug : sig
  val augment : Product.t -> int
  (** Add the combinational logic of every applicable lag-1 forward move;
      returns the number of new signals. *)
end

(** The signal-correspondence relation as a file, behind checkpoints and
    certificates alike (paper Theorem 1: a partition between the initial
    one and the greatest fixed point resumes the iteration losslessly, and
    the fixed point itself is the proof).  One line format — header,
    [key value] fields, one [class] line per multi-member class, a
    per-kind tail, [end] — with a few integer fields of each kind's own
    among the shared ones (DESIGN.md §4e).  Prints, parses and validates;
    solves nothing. *)
module Relation : sig
  type t = {
    spec_digest : string;  (** MD5 of the canonical AIGER text *)
    impl_digest : string;
    engine : string;  (** informational: which engine computed the relation *)
    candidates : string;  (** ["all"] | ["registers"] *)
    induction : int;  (** k of the run; 1 = the paper's Equation (3) *)
    retime_rounds : int;  (** augmentation rounds to replay on the product *)
    product_nodes : int;  (** product size after the replay (shape check) *)
    classes : int list list;  (** normalized literals, each class sorted *)
  }

  exception Parse_error of string

  val fingerprint : Aig.t -> string
  (** MD5 hex digest of the circuit's canonical AIGER text. *)

  val n_classes : t -> int
  val n_constraints : t -> int

  val classes_of : Partition.t -> int list list
  (** The multi-member classes of a partition, as sorted normalized literals. *)

  (** What a relation may claim: at most 64 retiming rounds, and no
      literal outside the recorded product. *)
  type flaw = Retime_rounds of int | Literal of int

  val flaw : t -> flaw option
  (** The reader rejects a flawed file; {!Checkpoint.compatible} and the
      certificate checker test records built in memory. *)

  val explain_flaw : flaw -> string

  val replay : t -> Product.t -> (unit, int) result
  (** Replay the recorded retiming augmentations on a fresh product and
      check its size; [Error n] carries the rebuilt size. *)

  type kind = {
    name : string;  (** names the file in parse errors *)
    magic : string;  (** the header keyword *)
    own : (string * string * bool) list;
        (** the kind's integer fields: key, the shared field it follows,
            required *)
    last : string;  (** the section a trailing-content error names *)
  }

  val to_string : kind -> own:(string * int) list -> t -> (Buffer.t -> unit) -> string
  (** The one writer; the function prints the tail. *)

  val parse :
    kind -> tail:(string list -> 'a * string list) -> string -> t * (string * int) list * 'a
  (** The one reader: the relation, the kind's own fields present, and
      what [tail] made of the lines before [end].
      @raise Parse_error on malformed input or a relation with a {!flaw}. *)

  val has_header : kind -> string -> bool

  val section :
    kind ->
    key:string ->
    noun:string ->
    items:string ->
    (string -> string list -> 'a * string list) ->
    string list ->
    'a list * string list
  (** A [key N] count line then [N] items, each parsed from its first
      line and the lines after it: a tail's building block. *)

  val fail : ('a, unit, string, 'b) format4 -> 'a
end

(** Resumable checkpoints of the greatest fixed-point iteration.

    The refinement is monotone and every split is sound with respect to
    the greatest fixed point, so a partially refined partition sits
    between the initial partition and the (unique) fixed point; re-running
    the iteration from it converges to exactly the same fixed point as an
    uninterrupted run.  A checkpoint with induction depth [kc] may seed
    any run with effective depth [k <= kc], since gfp(kc) ⊆ gfp(k).

    The file is a {!Relation} file: the seed after [induction], the
    iterations after [product-nodes], and the pending counterexample pool
    lanes as its tail. *)
module Checkpoint : sig
  type t = {
    relation : Relation.t;  (** fingerprints, options, shape, classes *)
    seed : int;  (** polarity-normalization / simulation seed *)
    iterations : int;  (** refinement iterations completed before the cut *)
    patterns : (bool array * bool array) list;
        (** pending pool lanes: (inputs, state) *)
  }

  exception Incompatible of string
  (** Raised by resume validation: fingerprint/shape/option mismatch. *)

  val n_patterns : t -> int

  val compatible :
    spec_digest:string ->
    impl_digest:string ->
    candidates:string ->
    induction:int ->
    seed:int ->
    t ->
    (unit, string) result
  (** The non-raising compatibility probe behind {!validate}, keyed on
      digests so callers holding only fingerprints (the serve cache, the
      [checkpoint inspect] diagnostic) can test a checkpoint without the
      circuits in hand.  [Error msg] carries the human-readable mismatch,
      fingerprint mismatches reporting both MD5s; a relation with a
      {!Relation.flaw} is refused too. *)

  val validate :
    spec:Aig.t -> impl:Aig.t -> candidates:string -> induction:int -> seed:int -> t -> unit
  (** Fingerprint and option validation before any engine work is spent.
      [induction] is the resuming run's effective depth; a checkpoint of
      a deeper run is accepted, a shallower one is refused.
      @raise Incompatible on any mismatch. *)

  val seed_partition : t -> Partition.t -> int
  (** Refine a freshly seeded partition to the checkpointed classes;
      returns the number of classes created.
      @raise Incompatible on polarity or candidacy divergence. *)

  val to_string : t -> string
  val parse_string : string -> t
  (** @raise Relation.Parse_error on malformed or truncated input. *)

  val to_file : string -> t -> unit
  val parse_file : string -> t
end

(** The full verification method (Fig. 4). *)
module Verify : sig
  type engine_kind = Bdd_engine | Sat_engine
  type candidate_set = All_signals | Registers_only

  type progress = {
    p_round : int;  (** retiming round the iteration belongs to *)
    p_iteration : int;  (** refinement iterations completed so far *)
    p_classes : int;  (** equivalence classes remaining *)
    p_engine : string;
        (** label of the engine doing the work, e.g. ["bdd"], ["sat-k2"];
            ["sat-k1"] once a BDD run has handed off to the SAT sweep *)
  }
  (** One snapshot of the fixed-point iteration, delivered to
      [options.progress] after the initial refinement and after every
      completed iteration — the serve daemon streams these to watching
      clients. *)

  type options = {
    engine : engine_kind;
    candidates : candidate_set;
    preflight : bool;
        (** Lint the circuits first; raise [Lint.Rejected] with a full
            report when either has error-level defects.  Default true. *)
    use_sim_seed : bool;
    sim_frames : int;
    use_ternary_seed : bool;
        (** Seed the partition with {!Ternseed.refine}.  Default true. *)
    use_batched_sweeps : bool;
    use_incremental : bool;
        (** Both must be [true] (the default): {!run_with_relation}
            raises [Invalid_argument] naming the field otherwise.  They
            once selected the pairwise scans and the throwaway-solver
            baseline, which are gone; the fields remain only because
            perfbench builds the whole record. *)
    use_speculation : bool;
        (** Speculative reduction (default false, overridable via the
            SEQVER_SPECULATE environment variable): before every sweep of
            the fixed point, merge every candidate class onto its
            representative ({!Specreduce}) and BDD-check each surviving
            merge obligation on the REDUCED product; classes whose
            obligations all hold are proven at the current partition
            version and the SAT sweep takes the rest.  The exact engine
            is then always the SAT sweep, at depth [sat_unroll] under
            [Sat_engine] and at depth 1 under [Bdd_engine].  The fixed
            point, verdict and final partition equal the plain sweeps'
            at the same depth (property-tested). *)
    use_analysis : bool;
        (** Static-analysis steering (default false): the run verifies
            the FRAIG-reduced pair ({!prereduces}), and {!portfolio}
            picks its k = 1 engine by the shape metrics
            ({!Analysis.Steer.bdd_first}). *)
    use_fundep : bool;
    use_retime : bool;
    max_retime_rounds : int;
    use_reach_dontcare : bool;
    reach_block_size : int;
    node_limit : int;
    max_sat_calls : int;
    sat_unroll : int;
        (** SAT-engine induction depth; 1 = the paper.  At most
            {!max_induction}: {!run_with_relation} raises
            [Invalid_argument] beyond it. *)
    presim_frames : int;
    bmc_depth : int;
        (** Exhaustive refutation depth (0 disables).  The bounded model
            check runs at most once per run, after a fixed point that did
            not prove the outputs, or after a budget abort before one: a
            proof by the first fixed point never pays for it.  The
            initial-split disproof unrolls at least this deep too. *)
    seed : int;
    jobs : int;
        (** Worker domains for the SAT engine's Eq.(3) sweep rounds; the
            BDD engine ignores it (hash-consing is shared-mutable).  The
            fixed point and verdict are identical for every value.
            Default 1, overridable via the SEQVER_JOBS environment
            variable. *)
    deadline_seconds : float;
        (** Wall-clock budget for the whole run; engines poll a shared
            cancellation flag once per class solve, so the abort lands
            within one class-solve of the expiry.  [<= 0] (the default)
            means no deadline. *)
    max_iterations : int;
        (** Abort (Unknown, ["iterations"]) after this many refinement
            iterations; 0 (the default) = unlimited.  Deterministic, which
            the deadline is not — the interruption point the resume
            property tests use. *)
    checkpoint_path : string option;
        (** Write the partial partition here whenever a budget or deadline
            aborts the fixed point.  Default [None]. *)
    checkpoint_every : int;
        (** Additionally checkpoint every N refinement iterations; 0 (the
            default) writes on aborts only. *)
    resume : Checkpoint.t option;
        (** Seed the fixed point from a prior run's checkpoint.  Validated
            against the circuits and options ({!Checkpoint.validate})
            before any engine work; the resumed run provably reaches the
            same verdict and final partition as an uninterrupted one. *)
    progress : (progress -> unit) option;
        (** Called (on the verifying domain) after the initial refinement
            and after every fixed-point iteration.  Default [None]. *)
    cancel : Deadline.flag option;
        (** External cancellation: when set, the flag is attached to the
            run's deadline (even an unlimited one), so {!Deadline.cancel}
            from another domain aborts the run within one class solve —
            the verdict is [Unknown] with [exhausted = Some "deadline"].
            Default [None]. *)
  }

  val default_options : options

  val max_induction : int
  (** 64: the deepest induction any entry point accepts (options, CLI
      [-k], serve requests, certificates).  It bounds memory, not time:
      only a deadline bounds a run at large depths. *)

  include module type of struct include Counters.Record end
  (** [stats] is the counter record {!Counters.t}, labels included. *)

  type verdict =
    | Equivalent of stats
    | Not_equivalent of {
        frame : int;
        trace : bool array array option;
            (** input vectors of a witnessing run.  Every refutation path
                (presimulation, the initial-frame class split, and the
                bounded refutation after the fixed point) derives a
                concrete trace, so this is [Some] in practice; [None]
                survives only as a defensive case. *)
        stats : stats;
      }
    | Unknown of stats

  val verdict_stats : verdict -> stats
  val run : ?options:options -> Aig.t -> Aig.t -> verdict

  val latch_order_from_outputs : Product.t -> int array
  (** Structural state-variable order interleaving the two sides along the
      output-pair cones (exposed for instrumentation and tests). *)

  val prereduces : options -> bool
  (** Will this run verify the FRAIG-reduced pair instead of the circuits
      as given?  True exactly when [use_analysis] is on: both sides are
      pre-reduced once by {!Analysis.Reduce.run} under [seed]
      (semantics-preserving, so verdicts and witness traces carry back to
      the originals).  Every relation file the run writes binds the
      circuits as given: a resumed run re-applies the reduction before
      it validates and replays the checkpoint, and certificate emitters
      must record it so checking can replay it too. *)

  val run_with_relation :
    ?options:options -> Aig.t -> Aig.t -> verdict * Product.t * Partition.t option
  (** Like {!run}, also returning the product machine and (when a fixed
      point was computed) the final correspondence relation — the
      checker's certificate.  When [prereduces options] holds, the product
      and relation are over the FRAIG-reduced pair, not the circuits as
      given. *)

  val pp_relation : Format.formatter -> Product.t * Partition.t -> unit
  (** Print the multi-member classes of a relation with side/kind tags. *)

  val register_correspondence : ?options:options -> Aig.t -> Aig.t -> verdict

  val relation_of_run :
    options:options ->
    spec:Aig.t ->
    impl:Aig.t ->
    verdict * Product.t * Partition.t ->
    Relation.t
  (** The relation of a {!run_with_relation} result under the options
      that produced it: what a certificate or a checkpoint records. *)

  val checkpoint_of_run :
    options:options ->
    spec:Aig.t ->
    impl:Aig.t ->
    verdict * Product.t * Partition.t option ->
    (Checkpoint.t, string) result
  (** Snapshot a finished or aborted {!run_with_relation} result as an
      in-memory checkpoint (pending pool lanes are not included), so a
      later run can resume from its partition. *)

  val portfolio : ?options:options -> ?max_unroll:int -> Aig.t -> Aig.t -> verdict
  (** Production mode: one rung per induction depth k = 1..[max_unroll],
      in ascending k; the first conclusive verdict wins, and the last
      rung's verdict is returned otherwise.  The k = 1 rung runs
      [options.engine] (the BDD engine hands off to the SAT sweep when
      its node budget runs out); deeper rungs run the SAT engine.  All
      rungs are sound.  Only the k = 1 rung presimulates and runs the
      bounded model check: the deeper rungs would repeat both on the same
      product.  The verdict's stats cover every rung run: counters and
      phase times summed, the relation figures of the last rung.  [options.resume] seeds every rung whose depth
      the checkpoint's allows.

      With [deadline_seconds] set, the remaining wall clock is split
      evenly over the remaining rungs.

      With [use_analysis] set, both circuits are reduced once for all
      rungs ({!prereduces}), and the k = 1 engine is the one
      {!Analysis.Steer.bdd_first} picks. *)
end

(** {1 Convenience} *)

type options = Verify.options
type stats = Verify.stats

type verdict = Verify.verdict =
  | Equivalent of stats
  | Not_equivalent of { frame : int; trace : bool array array option; stats : stats }
  | Unknown of stats

val default_options : options

val check : ?options:options -> Aig.t -> Aig.t -> verdict
(** Prove sequential equivalence of two circuits.  Sound for all three
    verdicts; [Unknown] reflects the method's incompleteness or an
    exceeded resource budget. *)

val register_correspondence : ?options:options -> Aig.t -> Aig.t -> verdict
(** The restricted method of [5]/[9]: correspondence over registers only,
    outputs checked combinationally under the tied registers. *)

val portfolio : ?options:options -> ?max_unroll:int -> Aig.t -> Aig.t -> verdict
(** {!Verify.portfolio}: escalate through induction depths until
    conclusive. *)

val verdict_stats : verdict -> stats
