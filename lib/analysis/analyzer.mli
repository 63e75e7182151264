(** The static-analysis pass over generated IR: runs the syntactic
    checks ({!Def_assign}, {!Dead_code}, {!Overflow}), the
    abstract-interpretation proof layer ({!Bounds}, {!Branches},
    {!Checksum_window} over a shared {!Absint} summary, plus the
    program-level {!Fsm} wedge detector), and aggregates sorted
    diagnostics.

    The analyzer is total: a check that raises is converted into an
    [SA000] warning carrying the exception, so analysis can run inside
    the pipeline without jeopardising a document run. *)

val analyze_func :
  ?layout:Sage_rfc.Header_diagram.t ->
  ?sentence_of_stmt:(Sage_codegen.Ir.stmt -> string option) ->
  Sage_codegen.Ir.func ->
  Diagnostic.t list
(** Analyze one generated function against its packet layout (when
    known) with optional per-sentence provenance. *)

val analyze_program :
  ?sentence_of_stmt:(Sage_codegen.Ir.stmt -> string option) ->
  struct_of_function:(string * Sage_rfc.Header_diagram.t) list ->
  Sage_codegen.Ir.func list ->
  Diagnostic.t list
(** Analyze every function of a run, resolving each function's layout
    through [struct_of_function] (the pipeline's mapping).  Includes
    the cross-function FSM wedge check (SA011). *)

val proved_functions :
  Diagnostic.t list -> Sage_codegen.Ir.func list -> string list
(** The functions with no SA007 finding: every packet access is
    statically in bounds for every packet length (relative to the
    harness environment contract).  The fuzzer's [--check-proofs] mode
    asserts no bounds finding ever fires on these. *)

type fail_on = Fail_never | Fail_error | Fail_warning
(** Exit-code policy: never fail, fail on [Error] findings, or fail on
    [Warning]-or-worse findings. *)

val exit_code_on : fail_on:fail_on -> Diagnostic.t list -> int
(** [1] when the policy says the process must fail, [0] otherwise. *)
