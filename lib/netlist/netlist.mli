(** Gate-level sequential circuits.

    The external circuit representation: multi-input gates over named nets,
    D flip-flops with explicit initial values (the paper's Mealy FSM with a
    specified initial state), BLIF I/O and 64-way bit-parallel simulation.

    Circuits are built imperatively: allocate nets with [add_*], then close
    latch feedback with {!set_latch_data}.  {!validate} checks that the
    result is well-formed. *)

type gate_fn =
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Not
  | Buf
  | Const0
  | Const1

type node = Input | Gate of gate_fn * int array | Latch of { mutable data : int; init : bool }

type t
(** A circuit under construction or completed; nets are dense ints. *)

val create : string -> t
(** [create model_name] is an empty circuit. *)

val model : t -> string
val num_nets : t -> int
val node : t -> int -> node

(** {1 Construction} *)

val add_input : ?name:string -> t -> int
val add_gate : ?name:string -> t -> gate_fn -> int list -> int

val add_latch : ?name:string -> t -> init:bool -> int
(** Allocate a latch output net; its data input is closed later with
    {!set_latch_data}. *)

val add_undriven : ?name:string -> t -> int
(** A net that is referenced but has no driver — not a primary input.
    Used by the lenient parser modes to keep elaborating malformed files;
    the [undriven-net] lint rule reports such nets. *)

val unsafe_set_node : t -> int -> node -> unit
(** Replace the driver of a net in place, bypassing the construction-time
    arity and range checks.  For parser recovery and for seeding defective
    circuits in lint tests; the result may be ill-formed and must be
    re-checked ({!validate}, {!Check.run}) before simulation or
    conversion. *)

val set_latch_data : t -> int -> data:int -> unit
val add_output : t -> string -> int -> unit

val band : t -> int -> int -> int
val bor : t -> int -> int -> int
val bxor : t -> int -> int -> int
val bnot : t -> int -> int
val bmux : t -> sel:int -> t1:int -> t0:int -> int
val const0 : t -> int
val const1 : t -> int

(** {1 Naming} *)

val set_name : t -> int -> string -> unit
val name_of : t -> int -> string option
val net_of_name : t -> string -> int option

val names : t -> (int * string) list
(** All (net, name) bindings, sorted by net.  Several nets may share one
    name (a multiply-driven signal of the source file); the name table
    lookup {!net_of_name} then answers the most recent binding. *)

(** {1 Structure} *)

val inputs : t -> int list
(** Primary inputs in declaration order. *)

val latches : t -> int list
(** Latch output nets in declaration order. *)

val outputs : t -> (string * int) list
val latch_data : t -> int -> int
val latch_init : t -> int -> bool

val topo_order : t -> int list
(** All nets, gates after their fanins.
    @raise Failure on a combinational cycle. *)

val validate : t -> (unit, string) result
(** Well-formedness, built on the lint rules ({!Check.errors}): [Error]
    carries {e every} error-level diagnostic, not just the first. *)

val pp_stats : Format.formatter -> t -> unit

(** {1 Diagnostics} *)

(** The diagnostics data model shared by the netlist- and AIG-level lint
    rules (renderers live in the [lint] library). *)
module Diag : sig
  type severity = Error | Warning | Info

  type t = {
    rule : string;  (** stable identifier, e.g. ["multiply-driven"] *)
    severity : severity;
    message : string;
    nets : (int * string option) list;  (** affected nets with names *)
  }

  val make : ?nets:(int * string option) list -> string -> severity -> string -> t
  val makef :
    ?nets:(int * string option) list ->
    string -> severity -> ('a, unit, string, t) format4 -> 'a

  val severity_name : severity -> string
  val severity_rank : severity -> int
  val net_label : int * string option -> string
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
  val worst : t list -> severity option
  val count : severity -> t list -> int
  val errors : t list -> t list
end

(** Netlist-level static analysis: the rule catalog is documented in the
    README ([seqver lint]) and in [check.ml]. *)
module Check : sig
  val run : ?ternary_steps:int -> t -> Diag.t list
  (** All diagnostics of all rules, sorted by severity then rule id.  The
      ternary stuck-latch rule only runs on circuits without error-level
      defects; [ternary_steps = 0] disables it. *)

  val errors : t -> Diag.t list
  (** Only the structural error-level rules (the basis of {!validate}). *)
end

(** X-valued simulation from the initial state (all inputs X). *)
module Ternary : sig
  type v = F | T | X

  val stuck : ?max_steps:int -> init:v array -> (v array -> v array) -> (int * bool) list
  (** [stuck ~init step]: the latch-stuck analysis over latch-indexed
      states, shared by every circuit representation.  [init] is the
      initial state and [step] one ternary frame (all inputs X).  Walks
      at most [max_steps] (default 64) frames from [init] taking the meet
      of the visited states, then prunes the candidates to an inductively
      closed set.  Returns [(latch index, constant)] in ascending index
      order. *)

  val stuck_latches : ?max_steps:int -> t -> (int * bool) list
  (** Latches provably stuck at a constant on every reachable state: the
      facts hold initially and are closed under one ternary step (sound
      invariants).  Requires a well-formed circuit. *)
end

(** {1 BLIF I/O} *)

module Blif : sig
  exception Parse_error of string

  val parse_string : ?lenient:bool -> string -> t
  (** With [~lenient:true] (default false), structurally malformed input
      is materialized instead of rejected so the lint rules can report
      every defect: undefined signals become undriven nets, a latch whose
      data signal is undefined stays unclosed, duplicate definitions all
      build (one name, several nets) and combinational cycles are closed
      through a buffer.  Strict mode additionally rejects duplicate
      definitions, which were previously dropped silently. *)

  val parse_file : ?lenient:bool -> string -> t
  val to_string : t -> string
  val to_file : string -> t -> unit
end

(** {1 ISCAS'89 .bench I/O} *)

module Bench : sig
  exception Parse_error of string

  val parse_string : ?model:string -> ?lenient:bool -> string -> t
  (** DFF initial values are taken as 0 (the .bench convention).
      [~lenient] recovers from undefined signals, duplicate definitions
      and combinational cycles exactly like {!Blif.parse_string}. *)

  val parse_file : ?lenient:bool -> string -> t
  val to_string : t -> string
  val to_file : string -> t -> unit
end

(** {1 Clocked registers: enables, resets, gated clocks}

    A clocked design is a circuit plus one spec per latch describing how
    that register is really clocked.  {!Clocking.lower} normalizes every
    spec away — the clk2fflogic move — producing a plain always-enabled
    circuit whose step function equals the reference semantics
    implemented directly by {!Clocking.simulate}, so the whole
    verification pipeline applies unchanged. *)

module Clocking : sig
  type reset_kind = Sync | Async

  type spec = {
    clock_gate : int option;
        (** derived-clock net: the register captures on the 0→1 edge of
            this net, sampled against its previous step's value (taken
            as 0 before the first step).  [None] = the primary clock. *)
    enable : int option;  (** capture only when this net is 1 *)
    reset : (reset_kind * int * bool) option;
        (** reset kind, controlling net, and the value the register is
            reset to.  A synchronous reset applies on the clock trigger
            and wins over the enable; an asynchronous reset dominates
            immediately — every fanout of the register sees the reset
            value in the same cycle. *)
  }

  type clocked := t

  type t
  (** A circuit plus per-latch register specs. *)

  val create : string -> t
  val of_circuit : ?clock_name:string -> clocked -> t
  (** Wrap a plain circuit; every latch gets the default (always-on,
      primary-clock, no-reset) spec. *)

  val circuit : t -> clocked
  (** The underlying circuit; build combinational logic and close latch
      feedback ({!set_latch_data}) directly on it. *)

  val clock_name : t -> string
  val set_clock_name : t -> string -> unit

  val default_spec : spec
  val spec : t -> int -> spec
  val set_spec : t -> int -> spec -> unit

  val is_plain : t -> bool
  (** No latch carries a non-default spec. *)

  val add_reg :
    ?name:string ->
    ?clock_gate:int ->
    ?enable:int ->
    ?reset:reset_kind * int * bool ->
    t ->
    init:bool ->
    int
  (** Allocate a register with a spec; spec nets may be allocated after
      the register (feedback is real) and are range-checked at
      {!validate}/{!lower} time. *)

  val validate : t -> (unit, string) result

  val simulate : t -> int64 array list -> (string * int64) list list
  (** Direct 64-lane reference simulation of the multi-clock semantics,
      independent of {!lower}; same calling convention as {!Sim.run}. *)

  exception Lower_error of string

  val lower : t -> clocked
  (** Rewrite every spec-bearing register into a plain always-enabled
      latch plus mux feedback logic (plus one shadow latch per distinct
      gate net holding its previous value).  Net names are preserved.
      @raise Lower_error if an async reset cone passes through its own
      register's output. *)
end

(** {1 Structural Verilog I/O} *)

module Verilog : sig
  exception Parse_error of string

  val to_string : t -> string
  (** One module with assigns for the gates and a clocked always-block
      with reset-to-initial-value for the latches.  Emitted labels are
      uniquified: sanitization collisions, user signals shadowing the
      generated [clock]/[reset] ports, and names colliding with the
      [n<net>] fallback are all suffixed apart. *)

  val to_file : string -> t -> unit

  val design_to_string : Clocking.t -> string
  (** Like {!to_string} but keeps enables, resets and gated clocks as
      [always @(posedge …)] blocks with [if (reset)] / [if (enable)]
      nests instead of baking the reset mux into the data logic. *)

  val parse_string : ?lenient:bool -> string -> Clocking.t
  (** Read the structural subset the writer emits: one module,
      input/output/wire/reg declarations, [assign]s over the writer's
      operator set ([~ & | ^], [~(...)] forms, constants), and
      [always @(posedge clk)] / [always @(posedge clk or posedge rst)]
      blocks whose bodies are non-blocking assignments under optional
      [if (rst) … else if (en) …] nests.  A reset branch assigning a
      constant becomes the register's reset spec and initial value; a
      posedge net that is not a module input becomes a gated-clock spec.
      With [~lenient:true], undefined signals become undriven nets and
      registers without an always-block stay unclosed, mirroring
      {!Blif.parse_string}; strict mode raises {!Parse_error}. *)

  val parse_file : ?lenient:bool -> string -> Clocking.t
end

(** {1 Bit-parallel simulation} *)

module Sim : sig
  type circuit := t

  type t
  (** Simulator state: 64 parallel patterns per net. *)

  val create : circuit -> t

  val reset : t -> unit
  (** Load every latch with its initial value (all 64 patterns alike). *)

  val eval_comb : t -> int64 array -> unit
  (** Evaluate combinational logic under the given input words (one word
      per primary input, in declaration order). *)

  val value : t -> int -> int64
  (** Word of a net after {!eval_comb}. *)

  val step : t -> unit
  (** Clock edge: latches capture their data inputs. *)

  val output_values : t -> (string * int64) list

  val run : circuit -> int64 array list -> (string * int64) list list
  (** Reset, then evaluate/step through the frames; outputs per frame. *)

  val random_stimuli : seed:int -> n_inputs:int -> n_frames:int -> int64 array list
end
