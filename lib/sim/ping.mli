(** A Linux-faithful ping client.

    Crafts echo requests the way Linux's ping does (fixed identifier per
    process, incrementing sequence numbers, a timestamp followed by a
    pattern fill in the payload) and applies the same acceptance checks
    to replies: ICMP checksum valid, type 0 / code 0, identifier and
    sequence match, payload echoed byte-for-byte, sensible IP addressing.
    Its verdicts are the interoperation ground truth of §6.2 and the
    classifier for the student-implementation study of §2.1 (Table 2). *)

type reply_check =
  | Ok_reply
  | No_reply of string
  | Bad_reply of failure list

and failure =
  | Ip_header_wrong of string        (** addressing / version / ihl *)
  | Icmp_header_wrong of string      (** type / code / id / seq *)
  | Byte_order_wrong of string       (** id/seq look byte-swapped *)
  | Payload_wrong of string          (** echoed data differs *)
  | Length_wrong of string           (** reply length differs *)
  | Checksum_wrong of string         (** ICMP checksum invalid *)

val failure_label : failure -> string

type result = {
  target : Sage_net.Addr.t;
  sent : int;
  received : int;
  checks : reply_check list;  (** one per probe *)
}

val ping :
  ?count:int ->
  ?identifier:int ->
  ?payload_len:int ->
  ?retries:int ->
  net:Network.t ->
  Sage_net.Addr.t ->
  result
(** Ping a target through the simulated network.  [retries] (default 0:
    one attempt per probe, the historical behaviour) re-sends a probe
    that drew no reply up to that many more times, waiting [2^attempt]
    ticks of {!Network.idle} between attempts ({!Network.retry}), so
    delayed packets keep moving during the client's silence.  A probe
    counts as [received] when {e any} attempt drew a reply. *)

val lost : result -> int
(** Probes that drew no echo reply ([sent - received]); under an
    injected-loss fault plan this is the loss count ping reports instead
    of wedging. *)

val loss_rate : result -> float
(** Packet loss as a percentage of probes sent, like ping's own
    "N% packet loss" summary line. *)

val success : result -> bool
(** All probes came back [Ok_reply]. *)

val failures : result -> failure list
(** All failures across probes (empty when [success]). *)
