(** Logical forms (LFs): the intermediate representation produced by the
    semantic parser and consumed by disambiguation and code generation.

    An LF is a tree of {e nested predicates} (paper §4.1, Figure 2): internal
    nodes are predicates such as [@Is], [@And], [@If], [@Action], [@Of];
    leaves are scalar arguments (domain terms, numbers, strings).  A single
    sentence may parse to zero, one, or many LFs; more than one LF means the
    sentence is (at least syntactically) ambiguous. *)

type t =
  | Term of string      (** a domain term or noun phrase, e.g. ["checksum"] *)
  | Num of int          (** a numeric literal *)
  | Str of string       (** a quoted string literal *)
  | Var of string       (** an unresolved variable (used mid-derivation) *)
  | Pred of string * t list
      (** a predicate application, e.g. [Pred ("@Is", [x; y])] *)

(** {1 Predicate-name constants}

    The predicate vocabulary used across SAGE.  Keeping them as named
    constants avoids typo-induced mismatches between the lexicon, the
    disambiguation checks and the code-generator handler table. *)

val p_is : string          (** assignment / equality: [@Is(lhs, rhs)] *)
val p_and : string         (** conjunction *)
val p_or : string          (** disjunction *)
val p_not : string         (** negation *)
val p_if : string          (** conditional: [@If(cond, consequence)] *)
val p_of : string          (** attachment: [@Of(attr, owner)] *)
val p_in : string          (** containment: [@In(item, container)] *)
val p_action : string      (** action: [@Action(fname, args...)] *)
val p_compute : string     (** computation: [@Compute(what)] *)
val p_num : string         (** numeric wrapper predicate [@Num(n)] *)
val p_cmp : string         (** comparison: [@Cmp(op, a, b)] *)
val p_may : string         (** permission/possibility modality *)
val p_must : string        (** obligation modality *)
val p_adv_before : string  (** advice: code must run before a function *)
val p_adv_comment : string (** non-actionable sentence marker *)
val p_seq : string         (** sequence of sub-forms *)
val p_set : string         (** imperative set: [@Set(field, value)] *)
val p_send : string        (** send a message *)
val p_discard : string     (** discard a packet *)
val p_select : string      (** select an entity (e.g. a session) *)
val p_reverse : string     (** reverse two fields *)
val p_update : string      (** state-variable update *)
val p_call : string        (** invoke a named procedure *)
val p_field : string       (** field reference wrapper *)

(** {1 Construction helpers} *)

val term : string -> t
val num : int -> t
val str : string -> t
val is_ : t -> t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val if_ : t -> t -> t
val of_ : t -> t -> t
val action : string -> t list -> t
val pred : string -> t list -> t

(** {1 Observation} *)

val equal : t -> t -> bool
val compare : t -> t -> int

val size : t -> int
(** Number of nodes in the LF tree. *)

val depth : t -> int
(** Height of the LF tree; a leaf has depth 1. *)

val head : t -> string option
(** [head lf] is the root predicate name, or [None] for leaves. *)

val predicates : t -> string list
(** All predicate names appearing in the tree, in pre-order, with
    duplicates. *)

val leaves : t -> t list
(** All leaf nodes in left-to-right order. *)

val exists : (t -> bool) -> t -> bool
(** [exists p lf] is true if any subform satisfies [p].  Subforms are
    visited in pre-order and the walk stops at the first hit; it
    allocates nothing of its own. *)

val map : (t -> t) -> t -> t
(** [map f lf] applies [f] bottom-up to every subform. *)

val mem_pred : string -> t -> bool
(** [mem_pred name lf] is true if predicate [name] occurs anywhere. *)

(** {1 Printing and parsing} *)

val pp : Format.formatter -> t -> unit
(** Renders in the paper's notation, e.g. [@Is('checksum',@Num(0))]. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Parses the [pp] notation back.  Accepts predicate applications
    [@Name(arg,...)], quoted atoms ['term'], bare numbers, and bare words
    (read as terms).  Returns [Error msg] on malformed input. *)

(** {1 Structural analyses used by disambiguation} *)

val isomorphic : commutative:(string -> bool) -> t -> t -> bool
(** [isomorphic ~commutative a b] decides whether two LF trees are isomorphic
    (paper §4.2, associativity check): equal up to reassociation of
    associative predicate chains and, for predicates for which [commutative]
    holds, reordering of children.  Implemented by flattening associative
    chains and comparing canonical forms. *)

val canonicalize : commutative:(string -> bool) -> associative:(string -> bool) -> t -> t
(** Canonical form used by [isomorphic]: associative chains are flattened
    into a single variadic node and commutative children are sorted. *)

val dedup : t list -> t list
(** Remove exact duplicates, preserving first-occurrence order. *)
