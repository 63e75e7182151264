(** RFC 5880 (Bidirectional Forwarding Detection): the §4.1 control-packet
    format and the §6.8.6 state-management (reception) sentences the paper
    analyzes in §6.4, in original and rewritten form (Table 5). *)

val title : string

val text : string
(** Original §6.8.6 sentences, including the two Table 5 problem
    sentences (cross-sentence co-reference; rephrasing fragment). *)

val rewritten_text : string
(** Post-rewrite text: the co-reference made explicit and the rephrasing
    fragment removed, as in Table 5. *)

val state_management_section : string
(** ["Reception of BFD Control Packets"]: the section whose sentences
    are the state-management sentences of the paper's §6.4. *)

val state_management_band : int * int
(** [(20, 25)], the inclusive range of state-management sentence counts
    that matches the paper's 22. *)

val annotated_non_actionable : string list
val dictionary_extension : string list

val diagram : string
(** The §4.1 control-packet ASCII art (exposed for tests). *)
