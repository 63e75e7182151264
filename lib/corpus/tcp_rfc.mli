(** RFC 793 (TCP) excerpts — the §7 "toward greater generality"
    demonstration.  The paper argues TCP is within SAGE's reach once
    complex state management and state-machine diagrams are added; this
    corpus shows which parts parse {e today} with modest lexicon
    extensions (the header format, field descriptions, simple
    constraints) and which do not (the state machine prose), making the
    gap concrete and measurable. *)

val title : string
val text : string
val annotated_non_actionable : string list
val dictionary_extension : string list
