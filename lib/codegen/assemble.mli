(** Assembling per-sentence IR into packet-handling functions (§5.2).

    SAGE concatenates the code of a message's logical forms into one
    function per (message, role), naming it from the context dictionary.
    Document order is preserved except where advice applies: a checksum
    field's assignment is emitted last (every other field must already
    hold its final value), and [@AdvBefore] statements are placed
    immediately before it. *)

type item = {
  sentence : string;
  placement : Generate.placement option;
      (** [None] when the sentence is non-actionable (tagged @AdvComment):
          it becomes a comment in the generated code *)
}

type variant = {
  variant_message : string;   (** e.g. "echo reply message" *)
  variant_role : Ir.role;
  fixed_assignments : (string * int) list;
      (** from Fixed_value / code-value field descriptions: C field
          identifier → value *)
}

val assemble :
  protocol:string ->
  variants:variant list ->
  items:item list ->
  Ir.func list
(** Build one function per variant.  Items whose placement targets a
    specific message go only to matching variants; untargeted items go to
    every variant (field descriptions apply to all forms of the
    message). *)

val function_name : protocol:string -> message:string -> role:Ir.role -> string
(** "ICMP" + "Echo Reply Message" + Receiver → ["icmp_echo_reply_receiver"]. *)

val message_matches : target:string -> variant:string -> bool
(** Whether a sentence's target message names this variant (exact match
    after lower-casing, determiner stripping and dropping a trailing
    " message"). *)
