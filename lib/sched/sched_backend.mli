(** Build-time-selected execution backend.

    The implementation is chosen by a dune rule on the compiler version:
    on OCaml >= 5 ([backend_domains.ml]) workers run on [Domain]s and
    mutexes are real; on earlier compilers ([backend_seq.ml]) [spawn]
    degenerates to immediate in-line execution and mutexes are free,
    so every caller compiles and runs — just without parallelism.
    {!Pool} and {!Lru} are written against this signature only. *)

val available : bool
(** Whether true parallel execution is compiled in (OCaml >= 5). *)

val default_jobs : unit -> int
(** The recommended worker count for this host: the runtime's
    recommended domain count on OCaml 5, always [1] on the fallback. *)

val self_id : unit -> int
(** A small integer identifying the calling worker (the domain id on
    OCaml 5, always [0] on the sequential fallback).  Used to tag trace
    events with the thread that emitted them. *)

type handle
(** A running worker. *)

val spawn : (unit -> unit) -> handle
(** Start a worker.  On the sequential fallback the closure runs to
    completion before [spawn] returns. *)

val join : handle -> unit
(** Wait for a worker started by {!spawn}. *)

type mutex

val mutex : unit -> mutex

val with_lock : mutex -> (unit -> 'a) -> 'a
(** Run a closure under the lock (re-raising any exception after
    unlocking).  A no-op wrapper on the sequential fallback. *)
