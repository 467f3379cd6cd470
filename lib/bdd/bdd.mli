(** Reduced ordered binary decision diagrams.

    A from-scratch ROBDD package in the style of the "BDD package developed
    at Eindhoven University" used by the paper, laid out as in Brace,
    Rudell and Bryant's package: a flat node store with complement edges,
    an open-addressed unique table and a lossy computed cache, owned by a
    manager; quantification, composition, generalized cofactors, and
    rebuild-based variable reordering.

    A BDD is an int edge into its manager's store.  Within one manager two
    BDDs are semantically equal iff they are equal ints; {!equal} is that
    test, and negation flips one bit without making a node. *)

type manager
(** Mutable owner of a node universe: node store, unique table, computed
    cache and the global variable order. *)

type t
(** A BDD edge.  Valid only together with the manager that created it;
    every traversal takes that manager. *)

(** {1 Managers and variables} *)

val create : unit -> manager
(** Fresh manager with the identity variable order. *)

val clear_caches : manager -> unit
(** Empty the computed cache (the nodes and the unique table are kept).
    The cache is bounded, so no caller needs this to limit memory. *)

exception Limit_exceeded
(** Raised by any operation that would grow the node store beyond the
    manager's node limit — a hard memory budget enforced even inside a
    single long-running operation. *)

val set_node_limit : manager -> int -> unit
(** Install the budget ([max_int] initially). *)

val nvars : manager -> int
(** Number of variables known to the manager. *)

val live_nodes : manager -> int
(** Number of nodes in the store; the "BDD nodes" statistic of the paper's
    Table 1.  With complement edges a function and its negation share
    their nodes. *)

val made_nodes : manager -> int
(** Total number of nodes ever created: a monotone work/peak measure.  The
    store is never collected, so this equals {!live_nodes}. *)

val var : manager -> int -> t
(** [var m i] is the function of the i-th variable (created on demand). *)

val nvar : manager -> int -> t
(** [nvar m i] is the complement of variable [i]. *)

val level : manager -> int -> int
(** Current level (position in the order) of a variable. *)

(** {1 Constants and tests} *)

val one : t
val zero : t
val is_true : t -> bool
val is_false : t -> bool

val equal : t -> t -> bool
(** Int equality on edges; equivalent to semantic equality within one
    manager. *)

val id : t -> int
(** The edge as an int, unique per function within its manager (usable as
    a hash key). *)

val leq : manager -> t -> t -> bool
(** [leq m f g] holds when [f] implies [g], i.e. [mk_and m f (mk_not m g)]
    is {!zero}.  It makes no node: the test walks both graphs and keeps
    its answers in the computed cache.  [leq m q (mk_xnor m f g)] tells
    whether [f] and [g] agree wherever [q] holds without building
    [f /\ q] or [g /\ q]. *)

(** {1 Boolean connectives} *)

val mk_not : manager -> t -> t
(** O(1): flips the complement bit and makes no node. *)

val mk_and : manager -> t -> t -> t
val mk_or : manager -> t -> t -> t
val mk_xor : manager -> t -> t -> t
val mk_xnor : manager -> t -> t -> t
val mk_nand : manager -> t -> t -> t
val mk_nor : manager -> t -> t -> t
val mk_imp : manager -> t -> t -> t
val mk_iff : manager -> t -> t -> t
val ite : manager -> t -> t -> t -> t
val big_and : manager -> t list -> t
val big_or : manager -> t list -> t

val cube : manager -> (int * bool) list -> t
(** Conjunction of literals. *)

(** {1 Cofactors, quantification, composition} *)

val cofactor : manager -> t -> int -> bool -> t
(** [cofactor m f v b] restricts variable [v] to constant [b]. *)

val exists : manager -> int list -> t -> t
val forall : manager -> int list -> t -> t

val and_exists : manager -> int list -> t -> t -> t
(** [and_exists m vars f g] = [exists m vars (mk_and m f g)], computed
    without building the full conjunction: the relational-product core of
    symbolic image computation. *)

val compose : manager -> t -> int -> t -> t
(** [compose m f v g] substitutes function [g] for variable [v] in [f]. *)

val vector_compose : manager -> t -> t option array -> t
(** Simultaneous substitution; [subst.(v) = Some g] replaces variable [v]
    by [g], [None] (or out of range) leaves it unchanged. *)

val rename : manager -> t -> (int * int) list -> t
(** Variable renaming (special case of vector composition). *)

val constrain : manager -> t -> t -> t
(** Generalized cofactor: [constrain m f c] agrees with [f] on [c] and is
    chosen by the Coudert–Madre mapping elsewhere.
    @raise Invalid_argument if the care set is [zero]. *)

val restrict : manager -> t -> care:t -> t
(** Coudert–Madre restrict: simplify [f] using the complement of [care] as
    don't-cares; the result agrees with [f] wherever [care] holds and never
    has larger support.  This is the don't-care mechanism of the paper's
    Section 4.
    @raise Invalid_argument if the care set is [zero]. *)

(** {1 Analysis} *)

val support : manager -> t -> int list
(** Sorted list of variables the function depends on. *)

val size : manager -> t -> int
(** Number of internal nodes of the DAG rooted here; [f] and [mk_not f]
    have the same size. *)

val size_list : manager -> t list -> int
(** Shared node count of a set of roots. *)

val size_at_most : manager -> t -> int -> int option
(** [size_at_most m f k] is [Some n] when the DAG has [n <= k] nodes,
    [None] otherwise; aborts early, so probing a huge function is cheap. *)

val eval : manager -> t -> (int -> bool) -> bool

val sat_count : manager -> nvars:int -> t -> float
(** Number of satisfying assignments over [nvars] variables. *)

val any_sat : manager -> t -> (int * bool) list option
(** One satisfying partial assignment, or [None] when unsatisfiable.  The
    walk prefers each node's then-branch. *)

val all_sat : manager -> t -> (int * bool) list list
(** Every satisfying path as a partial cube (tests / small functions). *)

val pp : ?max_cubes:int -> manager -> Format.formatter -> t -> unit
val to_dot : manager -> Format.formatter -> t -> unit

(** {1 Variable ordering} *)

module Reorder : sig
  val copy_to : src:manager -> dst:manager -> t list -> t list
  (** Rebuild roots of [src] inside another manager (any variable order). *)

  val manager_with_order : int array -> manager
  (** Manager where variable [order.(i)] sits at level [i]. *)

  val with_order : src:manager -> order:int array -> t list -> manager * t list
  (** Fresh manager with the given order plus the rebuilt roots. *)

  val interleave : int list list -> int list
  (** Interleave variable groups round-robin; the classical order for
      product machines (spec/impl state bits alternating). *)

  val sift : ?max_passes:int -> manager -> t list -> manager * t list
  (** Greedy adjacent-swap improvement by rebuilding; returns the manager
      and roots of the best order found. *)
end
