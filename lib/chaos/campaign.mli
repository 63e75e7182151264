(** The chaos campaign runner: every (corpus x stack x scenario) case,
    deterministically, with oracle evaluation over the final heal window
    and schedule minimization on the first failure.

    Determinism: each case derives its own seed from the campaign seed
    and the case name; all randomness inside a case flows from the
    splitmix64 streams of its {!Sage_sim.Faults} wires.  Two runs with
    the same seed, scenarios and corpora produce byte-identical
    {!summary} output. *)

type corpus_case = {
  corpus : Sage.Pipeline.corpus;
  generated_run : Sage.Pipeline.run Lazy.t;
      (** pipeline run backing the generated stack; only forced for
          generated-stack cases (see {!Workload.for_corpus}) *)
}

val cases :
  run:(Sage.Pipeline.corpus -> Sage.Pipeline.run) ->
  Sage.Pipeline.corpus list ->
  corpus_case list
(** One case per corpus.  Where the table has a rewritten text of the
    same protocol, the generated stack runs [run] of that text: the
    generated stack of an ambiguous original text does not interoperate
    (§6.5, pinned by the interop suite), and chaos asserts the recovery
    of functioning stacks.  [run] is called lazily, once per distinct
    backing corpus. *)

type case_result = {
  corpus : string;
  stack : Workload.stack;
  scenario : string;
  schedule : Episode.schedule;  (** as run, soak included *)
  violations : Oracle.violation list;
}

type shrunk = {
  case : string;  (** "corpus/stack/scenario" *)
  kind : Oracle.kind;  (** the oracle the minimization preserved *)
  detail : string;
  schedule : Episode.schedule;  (** the minimal still-failing schedule *)
  steps : int;  (** shrink steps taken *)
}

type t = {
  seed : int;
  soak : int;
  results : case_result list;
  shrunk : shrunk option;  (** first failing case, minimized *)
}

val run :
  ?trace:Sage_trace.Trace.t ->
  ?soak:int ->
  ?arm:(Workload.t -> Workload.t) ->
  ?check_reqs:bool ->
  seed:int ->
  scenarios:(string * Episode.schedule) list ->
  corpora:corpus_case list ->
  unit ->
  t
(** Generated stacks run the compiled backend, the production
    executor.  [soak] stretches every schedule's final heal window by
    that many ticks.  [arm] (default: the
    identity) wraps every workload a case runs, shrink re-runs
    included.  [check_reqs] asserts the mined checkable RFC 2119
    requirements (see {!Sage_reqs.Extract.mine}) on every
    generated-function execution a case performs; a violation is a
    case violation of kind {!Oracle.Requirement} carrying the RQ id
    and source sentence, deduplicated per RQ id within a case.  [trace]
    records ["chaos-case"] and ["chaos-episode"] instants (category
    ["chaos"]); shrink re-runs are untraced. *)

val failed : t -> bool
val exit_code : t -> int
(** 1 when any case violated an oracle, else 0. *)

val summary : t -> string
(** Deterministic multi-line report: one line per case, totals, and the
    shrunk first failure if any. *)

val case_label : case_result -> string
