(** Lightweight structured tracing for the SAGE pipeline.

    A tracer is an in-memory event buffer behind a mutex.  Every
    emitting helper takes a [t option]; passing [None] (the default
    everywhere in the pipeline) costs one pattern match and allocates
    nothing, so a run without [--trace] behaves byte-identically to a
    build without the tracer at all.  The buffer can be rendered as
    human-readable text or as Chrome-trace JSON (the
    [chrome://tracing] / Perfetto "trace event" format).

    Events carry a timestamp from one of two clocks:
    - {!Wall} — elapsed nanoseconds since the tracer's creation, on
      the monotonic clock ({!now_ns}), the default, for real
      profiling;
    - {!Logical} — a sequence number incremented under the tracer
      mutex, for tests that need byte-identical trace files across
      runs (same inputs + [--jobs 1] ⇒ identical bytes).

    The buffer is also the run's only measurement: {!profile}
    aggregates it per event name, and [--stats] prints that view. *)

(** A typed event argument. *)
type arg =
  | Int of int
  | Str of string

(** Event kind, mirroring the Chrome-trace ["ph"] field. *)
type phase =
  | Begin  (** span open, ["ph":"B"] *)
  | End  (** span close, ["ph":"E"] *)
  | Instant  (** point event, ["ph":"i"] *)
  | Counter  (** metric sample, ["ph":"C"] *)

type event = {
  name : string;
  cat : string;  (** category, e.g. ["pipeline"], ["sim"] *)
  ph : phase;
  ts : int64;  (** ns since tracer creation (Wall) or tick (Logical) *)
  tid : int;  (** emitting worker, {!Sage_sched.Sched_backend.self_id} *)
  span_id : int;  (** matching id for Begin/End pairs, [0] otherwise *)
  args : (string * arg) list;
}

type clock =
  | Wall
  | Logical

val now_ns : unit -> int64
(** Nanoseconds on the monotonic clock: never steps backwards (an NTP
    adjustment cannot make a span negative), with an arbitrary origin,
    so only differences mean anything.  Reading it does not
    allocate. *)

type t

val create : ?clock:clock -> unit -> t
(** A fresh tracer with an empty buffer.  [clock] defaults to {!Wall}. *)

val clock : t -> clock

type span
(** A token returned by {!span} and consumed by {!close}.  The token
    from a [None] tracer is inert, so call sites never branch. *)

val null_span : span

val span :
  ?cat:string -> ?args:(string * arg) list -> t option -> string -> span
(** Open a span: emits a {!Begin} event and returns the token that
    {!close} uses to emit the matching {!End}. *)

val close : ?args:(string * arg) list -> t option -> span -> unit
(** Close a span opened by {!span}.  Closing {!null_span} (or any span
    when the tracer is [None]) is a no-op. *)

val with_span :
  ?cat:string ->
  ?args:(string * arg) list ->
  t option ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span trace name f] runs [f] inside a span, closing it even
    if [f] raises. *)

val instant : ?cat:string -> ?args:(string * arg) list -> t option -> string -> unit
(** Emit a point event. *)

val counter : ?cat:string -> t option -> string -> int -> unit
(** Emit a metric sample, rendered as a Chrome counter track. *)

val events : t -> event list
(** Everything emitted so far, in emission order. *)

val event_count : t -> int

val to_chrome_json : t -> string
(** The buffer as a Chrome-trace JSON object
    ([{"traceEvents":[...],"displayTimeUnit":"ms"}]).  Timestamps are
    microseconds for the {!Wall} clock and raw ticks for {!Logical}.
    Loadable in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}. *)

val to_text : t -> string
(** One line per event: timestamp, worker, kind, [cat:name], args. *)

type format =
  | Json
  | Text

val render : format -> t -> string

val summary : t -> string
(** One-line count summary (["412 events (23 spans, 3 workers)"]) for
    status output on stderr. *)

(** One profile row: everything the buffer holds under one event name. *)
type row = {
  row_name : string;
  calls : int;  (** spans closed, Begin matched to End by span id *)
  total : int64;  (** summed span durations, in the tracer's clock units *)
  instants : int;  (** instant events *)
  last : int option;  (** the last counter sample, if any *)
}

val profile : t -> row list
(** Aggregate the buffer per event name, rows sorted by name.  A Begin
    whose span never closed (an exception escaped between {!span} and
    {!close}) adds nothing. *)

val profile_to_text : t -> string
(** {!profile} as a table: calls, total and per-call time (ns units
    under {!Wall}, ticks under {!Logical}), instants and the last
    counter value per name, ["-"] where a name has none. *)
