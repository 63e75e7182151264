(** RFC 792 (Internet Control Message Protocol), the paper's primary
    evaluation corpus: all eight message descriptions, in the RFC's own
    layout (header ASCII art, field descriptions, Description /
    Addressing prose).

    Two versions are provided, reproducing the paper's human-in-the-loop
    flow (Figure 4): [text] contains the original sentences — including
    the ambiguous "To form an <x> reply message ..." family, the
    unparseable gateway-address description, and the under-specified
    "may be zero" identifier sentences — and [rewritten_text] is the
    post-disambiguation spec from which interoperating code is
    generated. *)

val title : string

val text : string
(** The original specification text. *)

val rewritten_text : string
(** The disambiguated specification: ambiguous sentences rewritten,
    under-specified behavior clarified with message-scoped sentences. *)

val annotated_non_actionable : string list
(** Sentence prefixes a human annotated as non-actionable before the run
    (paper §5.2: "Humans may intervene to identify non-actionable
    sentences").  The pipeline tags their LFs [@AdvComment] without
    attempting code generation. *)

val dictionary_extension : string list
(** Corpus-specific multiword noun phrases added to the term dictionary
    (field labels, message names). *)
