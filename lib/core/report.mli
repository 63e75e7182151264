(** Markdown reports over pipeline runs — the artifact a spec author
    would read in the Figure 4 feedback loop: what parsed, what needs
    rewriting (and the surviving LFs that show where the ambiguity
    lies), what was discovered non-actionable, and what code came out. *)

val summary : Pipeline.run -> string
(** A one-paragraph run summary (counts per status). *)

val markdown : Pipeline.run -> string
(** The full report: summary, the rewrite worklist with surviving LFs,
    zero-LF sentences, discovered non-actionable sentences, static
    analysis findings, generated functions with statement counts, and
    recovered header layouts. *)

val analysis_json : Pipeline.run -> string
(** The run's static-analysis findings as a stable JSON object, the
    shape of the [analyze --format json] artifact the CI gate keeps per
    corpus. *)

val rewrite_worklist : Pipeline.run -> string
(** Only the action items for the spec author (ambiguous + zero-LF
    sentences), empty string when the spec is clean. *)
