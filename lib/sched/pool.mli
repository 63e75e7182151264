(** A deterministic work-queue scheduler.

    [map] fans independent jobs out across OCaml 5 domains when the
    compiler provides them (see {!Sched_backend}), while guaranteeing
    that the result is {e exactly} [Array.map f items]: results come
    back in input order, and the first exception a job raises is
    re-raised to the caller once every worker has stopped.  Workers pull
    indices from a shared atomic counter, so jobs of uneven cost
    balance automatically. *)

val available : bool
(** Whether calls with [jobs > 1] can actually run in parallel. *)

val default_jobs : unit -> int
(** Recommended [jobs] for this host ([1] on the sequential fallback). *)

val map :
  ?around_worker:(int -> (unit -> unit) -> unit) ->
  jobs:int ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** [map ~jobs f items] applies [f] to every element, using up to [jobs]
    workers (including the calling thread).  [jobs <= 1], a singleton or
    empty input, or a fallback build all degrade to plain [Array.map].
    If any [f] raises, remaining queued jobs are abandoned and the first
    exception (by completion time) is re-raised after all workers
    join.

    [around_worker id body] wraps each worker's whole drain loop and
    {e must} call [body] exactly once; [id] is a stable worker index
    ([0] for the calling thread, [1..jobs-1] for spawned workers — the
    sequential path runs entirely as worker [0]).  Defaults to a plain
    call.  Used to open per-worker trace spans without making the
    scheduler depend on the tracer. *)

val map_list : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** List version of {!map}, same ordering guarantee. *)
