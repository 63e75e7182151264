(** Lambda-calculus semantic terms attached to CCG categories.

    During parsing every constituent carries a semantic term; lexical items
    contribute lambda abstractions (e.g. {i is} ↦ [λx.λy.@Is(y,x)]) and the
    combinators apply/compose them.  A complete derivation's term
    beta-reduces to a ground term that converts to a {!Sage_logic.Lf.t}. *)

type t =
  | Var of string
  | Lam of string * t
  | App of t * t
  | Lf of Sage_logic.Lf.t
      (** an (argument-free) embedded logical-form fragment *)
  | Pred of string * t list
      (** predicate application whose arguments may still contain
          variables or redexes *)

val var : string -> t
val lam : string -> t -> t
val lam2 : string -> string -> t -> t
val app : t -> t -> t
val lf : Sage_logic.Lf.t -> t
val pred : string -> t list -> t
val term : string -> t
(** [term s] = [lf (Lf.term s)]. *)
val num : int -> t

val equal : t -> t -> bool

val free_vars : t -> string list

val beta_reduce : t -> t
(** The beta-normal form, by hereditary substitution.  Children are
    normalised first, so an application meets two normal forms; putting
    a normal argument into a normal body can only create a redex where
    the variable heads an application, and the substitution reduces it
    as it builds it.  Every node left unchanged is shared with the input
    ([==]): a term already normal comes back itself without allocating.
    A binder inside a substitution is renamed to a fresh [<base>_<n>]
    when it occurs free in the argument.

    Bounded: one step is one node that normalisation or substitution
    visits, and a call may take 10 000 (RFC sentences produce tiny
    terms); raises [Failure] if the bound is exceeded, which indicates a
    lexicon bug. *)

val to_lf : t -> Sage_logic.Lf.t option
(** Convert a beta-normal, closed term to a logical form.  [None] if the
    term still contains lambdas, variables, or applications (i.e. the
    derivation did not consume all expected arguments). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
