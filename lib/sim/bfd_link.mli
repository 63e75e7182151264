(** A point-to-point BFD link under fault injection.

    Two {!Sage_net.Bfd.session}s exchange control packets over two
    independent {!Faults} processes (one per direction), both derived
    from a single seed, on a shared tick clock: one tick is one
    desired-min-tx interval, so RFC 5880's detection time of
    [detect_mult x interval] is [detect_mult] ticks without receiving a
    packet.  The harness checks that the hand-written session logic
    honours detection-time semantics under injected loss: the session
    comes up over a clean (or mildly lossy) link, and a sustained loss
    burst expires the detection timer — session Down, diag 1 ("Control
    Detection Time Expired") — rather than wedging. *)

type event =
  | Came_up of int
      (** tick at which both endpoints first (re-)reached Up *)
  | Detection_timeout of { tick : int; at_a : bool }
      (** detection time expired: the endpoint declared the session Down
          with diag 1 *)

type outcome = {
  ticks : int;
  a_state : Sage_net.Bfd.session_state;
  b_state : Sage_net.Bfd.session_state;
  a_rx : int;  (** control packets endpoint A accepted *)
  b_rx : int;
  a_tx : int;  (** control packets endpoint A offered to the wire *)
  b_tx : int;
  events : event list;  (** in tick order *)
}

val detect_mult : int
(** Both ends' detection multiplier, 3: a session that hears nothing for
    3 ticks declares its peer down. *)

val run : ?plan:Faults.plan -> seed:int -> ticks:int -> unit -> outcome
(** Run the link for [ticks] ticks.  [plan] (default none) applies to
    both directions, each with its own PRNG stream derived from [seed],
    so the whole run is reproducible from the one integer. *)

(** {2 Tick-by-tick driving}

    A chaos campaign needs to interleave the link clock with episode
    boundaries — swap fault plans, crash an endpoint mid-run, restart
    it, and watch the session re-converge.  [link] is the persistent
    form of {!run}: {!create_link} then one {!step_link} per tick. *)

type link

type receive = Sage_net.Bfd.session -> Sage_net.Bfd.packet ->
  [ `Ok | `Discard of string ]
(** Session-update logic, pluggable so the same harness drives the
    hand-written reference ({!Sage_net.Bfd.receive_control_packet}, the
    default) or a SAGE-generated reception procedure run on a
    {!Generated_stack}'s compiled backend. *)

val create_link :
  ?plan:Faults.plan -> ?receive:receive -> seed:int -> unit -> link
(** Endpoint A has discriminator 1, endpoint B discriminator 2; both
    wires derive their PRNG streams from [seed] exactly as {!run}. *)

val step_link : link -> unit
(** One tick: transmit phase (live endpoints with periodic transmission
    enabled), receive phase, then the §6.8.4 detection-timer phase. *)

val link_state : link -> at_a:bool -> Sage_net.Bfd.session_state

val link_up : link -> bool
(** Both ends currently Up. *)

val set_link_plan : link -> Faults.plan -> unit
(** Swap both directions' fault plans (PRNG streams untouched — see
    {!Faults.set_plan}). *)

val kill_endpoint : link -> at_a:bool -> unit
(** Crash one end: it stops transmitting and hears nothing (its wire
    still idles so in-flight packets keep moving); the peer's detection
    timer will expire. *)

val restart_endpoint : link -> at_a:bool -> unit
(** Respawn a crashed end as a fresh session (same discriminator, state
    Down, everything to relearn). *)

val came_up : outcome -> bool
(** The session reached Up at both ends at some point. *)

val detection_timeouts : outcome -> int list
(** Ticks at which either endpoint's detection time expired. *)
