(** Lowering logical forms to IR (paper §5.2, "LF-to-code predicate
    handler functions").

    Each predicate that can appear at the root of (a fragment of) a
    winnowed LF has a handler that converts it to IR statements or
    expressions, consulting the context dictionaries.  A sentence whose LF
    contains an unresolvable term or an unhandled predicate is a
    {e code-generation failure}; the pipeline's iterative discovery then
    asks whether it is non-actionable and tags it [@AdvComment] (§5.2). *)

type advice = {
  before_field : string;   (** run [adv_stmts] just before this field's
                               computation is emitted *)
  adv_stmts : Ir.stmt list;
}

type placement = {
  stmts : Ir.stmt list;
  advice : advice list;
  target : string option;
      (** message variant this code belongs to, when the sentence names
          one ("To form an echo reply message, ...") *)
}

val gen_sentence :
  Context.dynamic -> Sage_logic.Lf.t -> (placement, string) result
(** Lower one sentence's (single, winnowed) LF. *)

val expr_of_lf :
  Context.dynamic -> Sage_logic.Lf.t -> (Ir.expr, string) result
(** Lower an entity/condition LF fragment to an expression (exposed for
    tests). *)

val handler_count : int
