(** The CCG lexicon: the domain-specific syntax and semantics of RFC
    English (paper §3).

    Each entry maps a word or multiword phrase to a syntactic category and
    a lambda-term semantics, e.g.

    - [checksum ↦ NP : 'checksum']
    - [is ↦ (S\NP)/NP : λx.λy.@Is(y,x)]
    - [zero ↦ NP : @Num(0)]

    Entries are grouped by origin so the paper's incremental-extension
    statistics (§6.1, §6.3, §6.4: 71 entries for ICMP, +8 for IGMP, +5 for
    NTP, +15 for BFD) can be reproduced by introspection. *)

type origin = Core | Icmp | Igmp | Ntp | Bfd | Bgp

type entry = {
  phrase : string;        (** lower-case surface form, possibly multiword *)
  cat : Category.t;
  sem : Sem.t;
  origin : origin;
}

type t

val core : unit -> t
(** Function words and general RFC English: determiners, auxiliaries,
    prepositions, modals, conjunctions and common verbs. *)

val icmp : unit -> t
(** [core] plus the ICMP-specific entries. *)

val igmp : unit -> t
(** [icmp] plus the IGMP extensions. *)

val ntp : unit -> t
(** [igmp] plus the NTP extensions (the paper adds NTP on top of IGMP). *)

val bfd : unit -> t
(** [ntp] plus the BFD state-management extensions. *)

val bgp : unit -> t
(** [bfd] plus the BGP FSM-prose extensions (the §7 "within reach"
    demonstration). *)

val entries : t -> entry list
val count : ?origin:origin -> t -> int
(** Number of entries, optionally restricted to one origin group. *)

val lookup : t -> string -> entry list
(** [lookup lex phrase] finds all explicit entries for the (lower-cased)
    phrase. *)

val entries_for_chunk : t -> Sage_nlp.Chunker.chunk -> entry list
(** All lexical hypotheses for a chunk: explicit entries, plus the
    fallbacks — an NP chunk with no entry becomes [NP : 'text']; a number
    becomes [NP : n].  A non-NP chunk with no entry yields [[]] (the parse
    will fail, surfacing the vocabulary gap). *)

val add : t -> entry list -> t
