(** The execution environment for generated code: the outgoing message
    under construction, the received message (receiver role), the IP
    header beneath (static-framework access), environment parameters, and
    protocol state variables. *)

type ip_info = {
  mutable src : Sage_net.Addr.t;
  mutable dst : Sage_net.Addr.t;
  mutable ttl : int;
  mutable tos : int;
}

type value = VInt of int64 | VBytes of bytes

type t = {
  proto : Packet_view.t;                (** outgoing header *)
  request : Packet_view.t option;       (** received header (receiver) *)
  ip : ip_info;                         (** outgoing IP *)
  request_ip : ip_info option;          (** received IP *)
  params : (string, value) Hashtbl.t;   (** env params: clock, gateway ... *)
  state : (string, int64) Hashtbl.t;    (** protocol state variables *)
  mutable discarded : bool;
  mutable sent_messages : string list;  (** names passed to send_packet *)
  mutable called : string list;         (** framework procedures invoked *)
  mutable selected_session : int64 option;
  step_budget : int;  (** max statements + expression evaluations *)
  mutable steps : int;
  trace : Sage_trace.Trace.t option;
      (** structured-event sink: {!Exec} emits an [exec:<fn>] span per
          function and [send] / [discard] instants against it *)
  coverage : Coverage.t option;
      (** statement-coverage sink: {!Exec} records a hit per executed
          statement, keyed by the stable pre-order id ([None] = no-op) *)
}

val default_step_budget : int
(** 100_000 — orders of magnitude above any real generated function, so
    exhaustion always means runaway execution. *)

val create :
  ?request:Packet_view.t ->
  ?request_ip:ip_info ->
  ?params:(string * value) list ->
  ?state:(string * int64) list ->
  ?step_budget:int ->
  ?trace:Sage_trace.Trace.t ->
  ?coverage:Coverage.t ->
  proto:Packet_view.t ->
  ip:ip_info ->
  unit ->
  t

val step : t -> bool
(** Count one execution step; [false] once the budget is exhausted
    ({!Exec} raises a runtime error at that point). *)

val ip_info :
  ?ttl:int -> ?tos:int -> src:Sage_net.Addr.t -> dst:Sage_net.Addr.t -> unit -> ip_info

val param : t -> string -> value option
val set_param : t -> string -> value -> unit
val state_get : t -> string -> int64
(** Missing state variables read as 0. *)
val state_set : t -> string -> int64 -> unit

val int_of_value : value -> int64
(** A [VBytes] coerces to its length (so conditions on byte values don't
    crash); use [bytes_of_value] when bytes are expected. *)

val bytes_of_value : value -> bytes
(** A [VInt] coerces to its minimal big-endian encoding. *)

val original_excerpts : bytes -> ((string * value) list, string) result
(** The parameters an ICMP error sender reads about the datagram it
    quotes: [original_datagram] (the whole datagram),
    [original_datagram_data] (its IP payload) and [internet_header] (its
    IP header).  [Error] when the datagram does not decode as IPv4. *)
