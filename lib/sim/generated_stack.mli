(** Driving SAGE-generated code as a protocol implementation.

    This is the bridge between the pipeline's output (IR functions over
    header layouts recovered from the RFC) and the simulated network: it
    builds runtimes, executes the generated functions, and produces or
    consumes raw IP datagrams.  It corresponds to the paper's integration
    of generated code with the static framework (§6.2). *)

type t

type observer =
  fn:string ->
  env:Sage_backend.Backend.env ->
  Sage_backend.Backend.outcome ->
  unit
(** Called after every structurally-accepted execution of a generated
    function, with the backend environment it ran under and its full
    outcome (including discarded or errored executions).  The chaos
    campaign uses this to assert mined RFC requirements at runtime. *)

val of_run :
  ?trace:Sage_trace.Trace.t ->
  ?backend:Sage_backend.Backend.choice ->
  ?observer:observer ->
  Sage.Pipeline.run ->
  t
(** [trace] is handed to every execution this stack performs, so
    generated functions emit [exec:<fn>] spans and send/discard
    instants regardless of backend.  [backend] is the execution
    backend (default: [Compiled], the production executor; [Interp]
    only to measure or check the reference interpreter); programs are
    loaded once per function and cached.  The compiled programs reuse
    state preallocated at load time ([Compiled.cstate] and the scratch
    buffers), so one [t] must not be shared across [Pool] domains.
    [observer], when given, sees every execution (see {!observer}). *)

val functions : t -> Sage_codegen.Ir.func list

type env_value = Sage_interp.Runtime.value

val build_message :
  ?params:(string * env_value) list ->
  ?data:bytes ->
  src:Sage_net.Addr.t ->
  dst:Sage_net.Addr.t ->
  t ->
  fn:string ->
  (bytes, string) result
(** Run a sender-role generated function to construct a message from
    scratch; returns the full IP datagram (IP header via the static
    framework, and a UDP header from and to port [p] when the code
    called [encapsulate_udp(p)]).  [data] pre-loads the variable-length
    field (e.g. echo payload); [params] supplies environment values
    (clock, gateway, original datagram). *)

val build_error_message :
  ?params:(string * env_value) list ->
  router_addr:Sage_net.Addr.t ->
  original:bytes ->
  t ->
  fn:string ->
  (bytes, string) result
(** Construct an ICMP error message quoting [original] (a full IP
    datagram).  Provides the standard error-message environment: the
    original datagram, its header and payload excerpts, and the
    destination derived by the generated code. *)

val process_request :
  t ->
  fn:string ->
  request:bytes ->
  (bytes option, string) result
(** Run a receiver-role function against an incoming datagram: the reply
    is formed from the received message (static framework), then the
    generated statements mutate it.  The environment holds only the
    clock.  [Ok None] when the generated code discarded the packet. *)

val run_state_update :
  ?state:(string * int64) list ->
  ?params:(string * env_value) list ->
  t ->
  fn:string ->
  packet:bytes ->
  ((string * int64) list * bool, string) result
(** BFD-style state management: execute the function against a received
    control packet and initial state; returns the final state bindings
    and whether the packet was discarded. *)
