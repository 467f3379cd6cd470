(** And-Inverter Graphs with latches.

    The internal representation of all algorithms in this library.
    Literals follow the AIGER convention: literal [2n] is node [n],
    [2n+1] its complement; literal [0] is the constant false.  Structural
    hashing guarantees that no two distinct AND nodes share (normalized)
    fanins, and AND fanins always reference earlier nodes, so ascending
    node ids are a topological order. *)

type node =
  | Const
  | Pi of int  (** primary input (index) *)
  | Latch of int  (** latch output (index) *)
  | And of int * int  (** fanin literals, fst <= snd *)

type t
(** A mutable AIG. *)

(** {1 Literals} *)

val lit_of_node : int -> int
val node_of_lit : int -> int
val lit_is_compl : int -> bool
val lit_not : int -> int
val lit_false : int
val lit_true : int

(** {1 Construction} *)

val create : unit -> t
val add_pi : t -> int
(** Fresh primary input; returns its (positive) literal. *)

val add_latch : t -> init:bool -> int
(** Fresh latch; returns its output literal.  Close the feedback loop with
    {!set_latch_next}. *)

val set_latch_next : t -> int -> next:int -> unit
(** [set_latch_next t latch_lit ~next] sets the next-state function. *)

val mk_and : t -> int -> int -> int
(** Structurally hashed AND with constant/idempotence/complement folding. *)

val mk_or : t -> int -> int -> int
val mk_xor : t -> int -> int -> int
val mk_xnor : t -> int -> int -> int
val mk_mux : t -> sel:int -> t1:int -> t0:int -> int
val mk_ands : t -> int list -> int
val mk_ors : t -> int list -> int
val add_po : t -> string -> int -> unit

(** {1 Accessors} *)

val num_nodes : t -> int
val num_pis : t -> int
val num_latches : t -> int
val num_ands : t -> int
val node : t -> int -> node
val pis : t -> int list
(** PI node ids in index order. *)

val pos : t -> (string * int) list
(** Named output literals in declaration order. *)

val latch_ids : t -> int list
val latch_node : t -> int -> int
val latch_next : t -> int -> int
val latch_init : t -> int -> bool
val pi_index : t -> int -> int
val latch_index : t -> int -> int
val validate : t -> (unit, string) result
val pp_stats : Format.formatter -> t -> unit

(** {1 Copying and cleanup} *)

val copy_into :
  t -> src:t -> pi_lit:(int -> int) -> latch_lit:(int -> int) -> (int -> int)
(** Import the combinational structure of [src] into the first AIG, mapping
    its PIs and latch outputs through the given functions.  Returns a
    translator from [src] literals to destination literals.  Latch
    next-state functions and POs are not transferred — used to build product
    machines and time-frame unrollings. *)

val cleanup : t -> t * (int -> int)
(** Drop nodes unreachable from the POs, latch logic and interface; returns
    the compacted AIG and a literal translator. *)

(** {1 Simulation} *)

module Sim : sig
  val eval_comb : t -> pi_words:int64 array -> latch_words:int64 array -> int64 array
  (** 64 parallel patterns: word per node id. *)

  val lit_word : int64 array -> int -> int64
  (** Value of a literal given the node-word array. *)

  val initial_latch_words : t -> int64 array
  val step : t -> pi_words:int64 array -> latch_words:int64 array -> int64 array * int64 array
  (** Evaluate and clock: (node words, next latch words). *)

  val run : t -> int64 array list -> (string * int64) list list * int64 array
  val random_frames : seed:int -> n_pis:int -> n_frames:int -> int64 array list
end

(** {1 SAT encoding} *)

module Cnf : sig
  val encode :
    ?act:int -> Sat.t -> t -> pi_var:(int -> int) -> latch_var:(int -> int) -> int -> Sat.Lit.t
  (** Tseitin-encode the combinational logic; PIs/latches use the supplied
      SAT variables.  Returns AIG-literal → SAT-literal.  With [act], every
      clause is guarded by the activation variable so [Sat.release] retracts
      the encoding from a persistent solver. *)

  val encode_fresh : Sat.t -> t -> int array * int array * (int -> Sat.Lit.t)
  (** Fresh variables for PIs and latches: [(pi_vars, latch_vars, lit_of)]. *)

  val tie_next : ?act:int -> Sat.t -> t -> (int -> Sat.Lit.t) -> int array
  (** [tie_next solver t lit_of] makes one fresh variable per latch, tied
      to that latch's next-state function in the frame encoded by
      [lit_of]: the next frame's latch variables. *)

  val unroll :
    ?act:int ->
    ?on_frame:(int -> (int -> Sat.Lit.t) -> unit) ->
    Sat.t ->
    t ->
    n:int ->
    first_latch_var:(int -> int) ->
    (int -> Sat.Lit.t) array * int array array
  (** Chain [n] frames: frame [i] gets fresh input variables and its own
      {!encode}; frame 0 reads [first_latch_var], every later frame the
      {!tie_next} variables of its predecessor (the last frame is not
      tied).  [on_frame i lit_of] runs right after frame [i] is encoded,
      before its tie, for per-frame constraints.  Returns each frame's
      literal map and input variables.  Variables are allocated frame by
      frame: inputs, encoding, tie. *)
end

(** {1 AIGER I/O (ASCII aag, binary aig)} *)

module Aiger : sig
  exception Parse_error of string

  val to_string : t -> string
  (** ASCII (aag). *)

  val parse_string : string -> t
  (** Total: malformed text raises [Parse_error], and no header count
      allocates more than the text can hold. *)

  val to_binary_string : t -> string
  (** Binary (aig): varint-delta-encoded ANDs, topologically renumbered. *)

  val parse_binary_string : string -> t
  (** Total like {!parse_string}; the input count, which takes no bytes
      in this format, is capped at 2^20. *)
end

(** {1 Netlist conversion} *)

val of_netlist : Netlist.t -> t * (int -> int)
(** Convert a gate-level circuit; the function maps netlist nets to AIG
    literals. *)
