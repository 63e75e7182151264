(** Recovery oracles: liveness assertions checked after a schedule's
    final heal window.  Each is derived from an RFC sentence:

    - {!Ping_recovery} — RFC 792 (Echo): "The data received in the echo
      message must be returned in the echo reply message."  Once the
      path heals, echo requests must again draw matching replies.
    - {!Traceroute_recovery} — RFC 792 (Destination Unreachable): "if,
      in the destination host, the IP module cannot deliver the datagram
      because the indicated protocol module or process port is not
      active, the destination host may send a destination unreachable
      message".  A healed path must again deliver the port-unreachable
      that terminates a traceroute.
    - {!Bfd_reconvergence} — RFC 5880 §6.8.4: "If a period of a
      Detection Time passes without the receipt of a valid,
      authenticated BFD packet from the remote system, this ... means
      the path ... has failed" — and conversely, once packets flow
      again the three-way handshake must re-reach Up within the
      detection-time bound plus a handshake.
    - {!Igmp_reconvergence} — RFC 1112, Appendix I: "Hosts respond to a
      Query by generating Host Membership Reports" — after a reboot the
      group table must repopulate and queries again draw one report per
      joined group.
    - {!Ntp_reachability} — RFC 5905 §13 (the reachability shift
      register, already present in RFC 1059's peer variables): "the
      eight-bit reach register ... When a packet is received, the
      rightmost bit is set to one"; post-heal polls must set it again.
    - {!Fsm_recovery} — RFC 4271 §8.2.2: in Idle, "in response to a
      ManualStart event ... the local system ... changes its state to
      Connect."  The FSM must leave Idle again once the transport heals.
    - {!No_silent_wedge} — the generic progress oracle: some sign of
      life within {!wedge_budget} post-heal ticks.  This is the oracle
      the seeded no-recovery fixture trips.
    - {!Requirement} — a mined RFC 2119 requirement (carries its RQ id;
      see {!Sage_reqs.Req}) violated by a generated-function execution
      at any point during the campaign case, not just the heal
      window. *)

type kind =
  | Ping_recovery
  | Traceroute_recovery
  | Bfd_reconvergence
  | Igmp_reconvergence
  | Ntp_reachability
  | Fsm_recovery
  | No_silent_wedge
  | Requirement of string

val kind_name : kind -> string

type violation = { kind : kind; detail : string }

val v : kind -> ('a, unit, string, violation) format4 -> 'a
(** [v kind fmt ...] builds a violation with a formatted detail. *)

val wedge_budget : int
(** Post-heal ticks before silence counts as a wedge. *)

val recovery_budget : int
(** Post-heal ticks before incomplete reconvergence is a violation. *)
