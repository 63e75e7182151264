(** A Linux-faithful traceroute client: UDP probes to high ports with
    increasing TTL.  Hop 1 should elicit an ICMP Time Exceeded from the
    router; the final hop a Destination Unreachable (port unreachable)
    from the target.  Each response is validated the way traceroute does:
    the quoted original datagram (IP header + first 64 bits) must match
    the probe so the response can be attributed to it. *)

type hop = {
  ttl : int;
  responder : Sage_net.Addr.t option;  (** None = probe vanished *)
  response_type : int option;          (** ICMP type of the response *)
  quoted_probe_ok : bool;              (** original-datagram excerpt matches *)
  note : string;
}

type result = {
  target : Sage_net.Addr.t;
  hops : hop list;
  reached : bool;  (** a port-unreachable arrived from the target *)
}

val traceroute :
  ?max_ttl:int -> ?retries:int -> net:Network.t -> Sage_net.Addr.t -> result
(** Probe TTL [k] (from 1 to [max_ttl], default 8) at the UDP port
    [k - 1] above {!Network.traceroute_base_port}.  [retries] (default 0:
    the historical one probe per TTL) re-sends a probe whose responder
    never answered up to that many more times, waiting [2^attempt] ticks
    of {!Network.idle} between attempts ({!Network.retry}).  The
    recorded hop is the last attempt's outcome. *)

val hop_count : result -> int

val lost_probes : result -> int
(** Probes that drew no attributable responder (printed as [*] by real
    traceroute) — the per-hop loss count under an injected-loss plan. *)

val loss_rate : result -> float
(** [lost_probes] as a percentage of probes sent. *)
