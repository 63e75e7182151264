(** The domain-specific term dictionary (paper §3, §6.1).

    The paper builds a dictionary of about 400 networking nouns and noun
    phrases from the index of a standard networking textbook, and uses it to
    label domain noun phrases before CCG parsing.  This module holds our
    equivalent, hand-assembled list, plus protocol-specific extensions
    (BFD state variables, NTP peer variables) that the paper adds in
    §6.4 and §7. *)

type t

val base : unit -> t
(** The ~400-entry networking dictionary. *)

val empty : t
(** A dictionary with no entries (used for the Table 8 ablation). *)

val extend : t -> string list -> t
(** [extend dict terms] adds protocol-specific multiword terms, e.g. BFD
    state variables.  Matching is case-insensitive. *)

val mem : t -> string -> bool
(** [mem dict phrase] checks a (possibly multiword) phrase, matched on its
    lower-cased word sequence. *)

val longest_match : t -> string list -> int
(** [longest_match dict words] is the length (in words) of the longest
    dictionary phrase that is a prefix of [words]; [0] if none matches. *)

val size : t -> int
(** Number of distinct phrases. *)

val bfd_state_variables : string list
(** BFD protocol/connection state variables and values from RFC 5880,
    added for §6.4 (the "state management dictionary"). *)

