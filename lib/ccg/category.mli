(** CCG syntactic categories.

    Primitive categories: noun [N], noun phrase [NP], sentence [S],
    prepositional phrase [PP].  Complex categories combine them with the
    two slashes: [X/Y] seeks a [Y] to its right to form an [X]; [X\Y]
    seeks a [Y] to its left.  [Conj] is the special category of
    coordinating tokens (and / or / comma), handled by a dedicated
    coordination rule as in standard CCG practice. *)

type atom = N | NP | S | PP

type t =
  | Atom of atom
  | Fwd of t * t   (** [Fwd (x, y)] prints as [x/y] *)
  | Bwd of t * t   (** [Bwd (x, y)] prints as [x\y] *)
  | Conj of string (** coordination token carrying its connective name *)

val n : t
val np : t
val s : t

val fwd : t -> t -> t
(** [fwd x y] = [Fwd (x, y)], printed [x/y]. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val arity : t -> int
(** Number of arguments a category still seeks (nesting depth of slashes). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val of_string : string -> (t, string) result
(** Parse the standard notation, e.g. ["(S\\NP)/NP"].  Backslash binds as in
    CCG convention: left-associative with parentheses for grouping. *)
