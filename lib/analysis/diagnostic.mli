(** Structured findings of the IR static analyzer (paper §4–§5: checks
    over program structure, not human review, catch ambiguity and
    under-specification).

    Every finding carries a stable code ([SA001]…), a severity, the
    generated function it was found in, and — when the analyzer can
    recover it — the specification sentence that produced (or failed to
    produce) the statements involved.  [Error] findings are the ones
    [--fail-on error] turns into a nonzero exit. *)

type severity = Error | Warning | Info

type t = {
  code : string;           (** stable diagnostic code, e.g. ["SA001"] *)
  severity : severity;
  fn_name : string;        (** generated function the finding is in *)
  protocol : string;
  text : string;           (** human-readable one-line message *)
  field : string option;   (** header field involved, if any *)
  stmt_id : int option;
      (** stable pre-order statement id ([Ir.numbered_stmts]) the
          finding anchors to — the same numbering coverage uses *)
  sentence : string option;
      (** per-sentence provenance: the specification sentence behind the
          finding (e.g. the unparsed sentence that mentions an
          unassigned field) *)
}

val v :
  ?field:string ->
  ?stmt_id:int ->
  ?sentence:string ->
  code:string ->
  severity:severity ->
  fn_name:string ->
  protocol:string ->
  string ->
  t

val severity_name : severity -> string
(** ["error"], ["warning"], ["info"]. *)

val catalog : (string * string) list
(** Every code the analyzer can emit, with a one-line description. *)

val describe_code : string -> string option

val sort : t list -> t list
(** Deterministic order: function, then code, then statement id
    (program-level findings without one last), then severity (errors
    first), field, message.  Both renderers sort internally, so
    rendered output is byte-identical across [--jobs] and check
    execution order. *)

val errors : t list -> int
val warnings : t list -> int
val count : severity -> t list -> int
val has_errors : t list -> bool
(** Whether [--fail-on error] must fail the run. *)

val to_string : t -> string
(** One finding, one (occasionally two) lines. *)

val render_text : ?protocol:string -> t list -> string
(** All findings plus a severity summary line; "no findings" when
    empty. *)

val to_json : t -> string

val render_json : ?protocol:string -> t list -> string
(** [{"protocol": …, "errors": n, "warnings": n, "infos": n,
    "diagnostics": […]}] — machine-readable, stable key order, sorted
    diagnostics (the artifact the CI static-analysis job uploads). *)
