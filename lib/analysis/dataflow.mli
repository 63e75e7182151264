(** The dataflow substrate shared by the analyzer's checks: expression
    reads, definite-assignment flow over {!Sage_codegen.Ir.stmt} lists,
    and the per-function analysis context. *)

module Ir = Sage_codegen.Ir

type ctx = {
  func : Ir.func;
  layout : Sage_rfc.Header_diagram.t option;
      (** the byte-accurate packet layout the function writes into, when
          the pipeline knows it (from [struct_of_function]) *)
  sentence_of_stmt : Ir.stmt -> string option;
      (** per-sentence provenance: which specification sentence produced
          this statement (built by the pipeline from codegen placements;
          structural lookup) *)
}

val ctx :
  ?layout:Sage_rfc.Header_diagram.t ->
  ?sentence_of_stmt:(Ir.stmt -> string option) ->
  Ir.func ->
  ctx

type reads = {
  fields : (Ir.layer * string) list;  (** [Field] reads *)
  params : string list;               (** [Param] (local/env) reads *)
  has_call : bool;
      (** the expression invokes a framework function, which may read
          any field — a read barrier for dead-store purposes *)
}

val reads_of_expr : Ir.expr -> reads

val reads_lvalue : reads -> Ir.lvalue -> bool
(** Whether the reads touch the given lvalue ([has_call] counts). *)

val iter_exprs : (Ir.expr -> unit) -> Ir.stmt list -> unit
(** Every expression evaluated by the statements: assignment RHSs,
    [Do] arguments and [If] conditions, recursing into branches. *)

val flow :
  ?on_expr:(assigned:Ir.lvalue list -> Ir.expr -> unit) ->
  Ir.lvalue list ->
  Ir.stmt list ->
  Ir.lvalue list * bool
(** [flow ~on_expr assigned stmts] is definite-assignment analysis:
    returns the lvalues assigned on every path through [stmts] (starting
    from [assigned]) and whether the statements diverge (all paths end in
    [Discard]).  [If] merges branches by intersection; a diverging
    branch is exempt.  [on_expr] is called on each evaluated expression
    with the definite set at that program point. *)

val assigned_anywhere : Ir.stmt list -> Ir.lvalue list
(** Every lvalue assigned by any statement on any path, in first-write
    order. *)

val is_checksum_field : string -> bool
(** Whether a field name/identifier denotes the checksum (the field
    {!Sage_codegen.Assemble} orders last). *)

val mentions : name:string -> string -> bool
(** Case-insensitive, underscore/space-insensitive whole-word test:
    does the sentence mention the field name as a word sequence?  Used
    to attach spec-sentence provenance to coverage findings. *)
