(** CCG chart memoization for the pipeline.

    Chart parsing dominates pipeline cost (the CKY chart is cubic in
    sentence length with heavy per-cell work), and RFC corpora repeat
    token sequences: boilerplate field descriptions recur across
    message sections, and reruns (rewritten text, report + code over
    the same corpus, the bench harness) re-parse whole documents.  The
    cache memoizes {!Sage_ccg.Parser.parse_chunks} results keyed by the
    {e post-chunking token sequence} — the exact parser input — plus
    the protocol name standing in for the lexicon (each protocol spec
    builds its lexicon deterministically).

    Entries live in a capacity-bounded, thread-safe LRU
    ({!Sage_sched.Lru}), shared freely across {!Sage_sched.Pool}
    workers and across runs.  Parser results are immutable, so sharing
    a cached result is safe. *)

type t

val create : unit -> t
(** An empty cache of 4096 entries. *)

val key : protocol:string -> Sage_nlp.Chunker.chunk list -> string
(** The cache key: protocol name plus every chunk's NP label and token
    texts/kinds.  Token byte offsets are excluded so the same sentence
    hits regardless of where it appeared in the document. *)

val parse :
  ?cache:t ->
  ?trace:Sage_trace.Trace.t ->
  protocol:string ->
  lexicon:Sage_ccg.Lexicon.t ->
  Sage_nlp.Chunker.chunk list ->
  Sage_ccg.Parser.result
(** [parse_chunks] through the cache.  Without [cache] it just parses.
    With [trace], each actual parse runs inside a ["ccg-parse"] span
    and every lookup emits a ["cache-hit"] or ["cache-miss"] instant:
    the [--stats] profile counts parses and lookups from these. *)

val hits : t -> int
val misses : t -> int
(** Lookups over the cache's lifetime, across every run sharing it. *)
val stats : t -> string
(** Human-readable one-liner (see {!Sage_sched.Lru.stats}). *)
