(** Per-stage wall-clock timing and named counters for a pipeline run.

    A [t] is shared by every {!Pool} worker of a run (operations lock
    internally), accumulating wall time per stage name ("chunk",
    "parse", "winnow", "codegen", ...) and integer counters ("sentences",
    "cache_hits", "chart_items", ...).  Timings are measurements, not
    results: they vary run to run and are deliberately kept out of the
    deterministic report artifacts. *)

type t

val create : unit -> t

val now_ns : unit -> int64
(** Nanoseconds on the monotonic clock: never steps backwards (an NTP
    adjustment cannot make a stage time negative), with an arbitrary
    origin, so only differences mean anything.  Reading it does not
    allocate. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t stage f] runs [f], adding its wall time to [stage] and
    bumping the stage's call count (also on exception). *)

val add_ns : t -> string -> int64 -> unit
val incr : ?by:int -> t -> string -> unit

val stage_ns : t -> (string * int64) list
(** Accumulated nanoseconds per stage, sorted by stage name. *)

val stage_calls : t -> (string * int) list
val counters : t -> (string * int) list
val counter : t -> string -> int
(** [0] for a counter never incremented. *)

val merge_into : t -> t -> unit
(** [merge_into dst src] adds every stage time and counter of [src]
    into [dst]. *)

val summary : t -> string
(** Multi-line human-readable summary: a stage-time table (time per
    stage, calls, mean per call) followed by the counters. *)
