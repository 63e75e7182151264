(** RFC 4271 (BGP-4) excerpts — the second §7 "within reach"
    demonstration.  BGP's finite state machine is specified in {e prose}
    ("the local system ... changes its state to Connect"), which is
    exactly the state-management style SAGE already parses for BFD; this
    corpus exercises the OPEN message header and a subset of the §8 FSM
    event sentences. *)

val title : string
val text : string
val annotated_non_actionable : string list
val dictionary_extension : string list
