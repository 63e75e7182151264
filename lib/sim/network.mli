(** Mininet-lite: the simulated network of the paper's evaluation
    (§6.1/Appendix A).  The canonical topology is one router with three
    subnets — 10.0.1.1/24 (the client side), 192.168.2.1/24 and
    172.64.3.1/24 — and one server per subnet.  The router runs an
    {!Icmp_service} (reference or SAGE-generated); the appendix's trigger
    conditions (TTL expiry, unknown destination, unsupported ToS, full
    buffer, same-subnet next hop) are implemented in the router's
    forwarding path. *)

type t

type delivery =
  | Delivered of Sage_net.Addr.t        (** reached this host *)
  | Icmp_response of bytes              (** router generated an ICMP error *)
  | Replied of bytes                    (** destination answered (echo...) *)
  | Dropped of string                   (** silently dropped, with reason *)

val default_topology :
  ?service:Icmp_service.t ->
  ?extra_hops:int ->
  ?faults:Faults.t ->
  ?trace:Sage_trace.Trace.t ->
  unit ->
  t
(** The appendix topology.  [service] defaults to {!Icmp_service.reference}
    and is the implementation running on the router {e and} hosts.
    [extra_hops] (default 0) inserts that many transit routers between
    the first-hop router and the servers, so traceroute sees a longer
    path.  [faults], when given, is a fault process every sent packet
    passes through before reaching the network (see {!Faults}); the
    capture then records the traffic as mutated by the faults.
    [trace] records wire activity as structured events: a ["tx"]
    instant per injected datagram, an ["rx"] instant per outcome
    (delivered / replied / icmp-response / dropped / lost) and — when
    [faults] is also given — a ["fault"] instant each time a rule
    fires, via {!Faults.set_observer}. *)

val trace : t -> Sage_trace.Trace.t option
(** The trace the topology was built with, for layering protocol-level
    spans (ping/traceroute probes) over the wire events. *)

val client_addr : t -> Sage_net.Addr.t
(** 10.0.1.50, the client host. *)

val router_client_iface : t -> Sage_net.Addr.t
(** 10.0.1.1, the router's interface on the client subnet. *)

val server1_addr : t -> Sage_net.Addr.t
(** 192.168.2.10 *)

val server2_addr : t -> Sage_net.Addr.t
(** 172.64.3.10 *)

val unknown_addr : t -> Sage_net.Addr.t
(** An address in none of the three subnets. *)

val set_buffer_full : t -> bool -> unit
(** Simulate a full outbound buffer: forwarding triggers Source Quench. *)

val set_mtu : t -> int -> unit
(** Egress MTU (default 1500): a larger datagram with the Don't Fragment
    flag set triggers Destination Unreachable code 4 ("fragmentation
    needed and DF set"). *)

val capture : t -> Sage_net.Pcap.capture
(** Every packet that crossed the network, in a pcap capture. *)

val send : t -> from:Sage_net.Addr.t -> bytes -> delivery
(** Inject a datagram at a host and run it through the network until it
    is delivered, answered, or dropped.  Under a fault plan this is the
    first non-[Dropped] outcome of {!send_all} (or its first drop). *)

val idle : t -> unit
(** Advance the fault process's clock by one tick without sending
    anything: previously delayed packets now due are routed (outcomes
    discarded).  A no-op on a topology without faults.  This is what a
    retrying client's backoff wait consumes, so delayed packets keep
    moving while the client is silent. *)

val retry : t -> retries:int -> answered:('a -> bool) -> (int -> 'a) -> 'a
(** [retry t ~retries ~answered probe] is the retry discipline of
    {!Ping.ping} and {!Traceroute.traceroute}: it runs [probe 0], and
    while the result is not [answered] and fewer than [retries] re-sends
    were made, waits [2^attempt] ticks of {!idle} (exponential backoff)
    and runs [probe (attempt + 1)].  Returns the last result. *)

val traceroute_base_port : int
(** 33434, the first UDP port traceroute probes.  A host answers a UDP
    datagram to this port or above with Port Unreachable. *)

val send_all : t -> from:Sage_net.Addr.t -> bytes -> delivery list
(** Like {!send}, but returns the outcome of {e every} packet the fault
    process put on the wire for this injection — duplicates yield two
    deliveries, a dropped packet yields [[Dropped "fault: packet lost in
    transit"]].  Without faults this is always a one-element list. *)
