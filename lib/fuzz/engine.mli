(** The coverage-guided differential fuzz loop: sequential, fully
    seeded, byte-identical output for a fixed (seed, iters, protocol,
    backend) on every platform and [--jobs] setting. *)

type finding = {
  fn : string;
  kind : Oracle.kind;
  packet : bytes;
  shrunk : bytes;
  detail : string;
  shrink_steps : int;
}

type result = {
  protocol : string;
  seed : int;
  iters : int;
  executions : int;
  rejected : int;
  corpus : int;
  findings : finding list;  (** oldest first, at most one per function *)
  coverage : Sage_interp.Coverage.t;
  funcs : Sage_codegen.Ir.func list;
  proved : string list;
      (** the SA007-proved functions this run cross-validates against *)
  proof_violations : finding list;
      (** never-raise findings on proved functions — a static-proof
          unsoundness, never an acceptable outcome *)
  reqs_checked : int;
      (** checkable mined requirements enforced by this run *)
}

val run :
  ?trace:Sage_trace.Trace.t ->
  ?backend:Sage_backend.Backend.choice ->
  ?differential:bool ->
  ?load:
    (Sage_backend.Backend.choice ->
    layout:Sage_rfc.Header_diagram.t ->
    Sage_codegen.Ir.func ->
    Sage_backend.Backend.loaded) ->
  ?proved:string list ->
  ?reqs:Sage_reqs.Req.t list ->
  seed:int ->
  iters:int ->
  protocol:string ->
  (Sage_codegen.Ir.func * Sage_rfc.Header_diagram.t) list ->
  result
(** Fuzz the given (function, layout) targets round-robin for [iters]
    iterations on [backend] (default [Interp]).  Raises
    [Invalid_argument] on an empty target list.

    [proved] names the functions the static analyzer claims SA007-safe
    (see {!Sage_analysis.Analyzer.proved_functions}); any [Never_raise]
    finding on one of them is surfaced in [proof_violations].

    [differential] (default: on iff [backend] is [Compiled]) re-runs
    every checked iteration on the alternate backend — consuming no
    randomness, coverage or tracing — and feeds the pair to the
    backend-agreement oracle.  [load] (default {!Sage_backend.Backend.load})
    prepares each target on each backend, once, before the first
    iteration.

    [reqs] are the mined requirements (see {!Sage_reqs.Extract.mine});
    the checkable ones anchored to a target function are enforced as
    the last oracle on every checked iteration of that function.

    Emits [fuzz-iteration] spans, [coverage-hit] / [finding] instants
    and a coverage counter to [trace]. *)

val shrink :
  protocol:string ->
  env:Driver.env ->
  ?alt:Sage_backend.Backend.loaded ->
  ?reqs:Sage_reqs.Req.t list ->
  Sage_backend.Backend.loaded ->
  kind:Oracle.kind ->
  bytes ->
  bytes * string option * int
(** Greedy minimization keeping the same oracle violated: the shrunk
    packet, the violation detail on it, and the number of accepted
    shrink steps (bounded budget).  [alt], when given, re-runs every
    candidate differentially so backend-agreement findings shrink
    faithfully. *)

val summary : result -> string
(** Deterministic human-readable report (no wall-clock content). *)
