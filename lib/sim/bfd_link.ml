module Bfd = Sage_net.Bfd

(* A point-to-point BFD link: two sessions exchanging control packets
   over two independent fault processes (one per direction), on a shared
   tick clock.  One tick = one desired-min-tx interval, so the RFC 5880
   detection time of [detect_mult x interval] becomes simply
   [detect_mult] ticks without a received packet. *)

type event =
  | Came_up of int              (* tick at which both ends reached Up *)
  | Detection_timeout of { tick : int; at_a : bool }

type receive = Bfd.session -> Bfd.packet -> [ `Ok | `Discard of string ]

type endpoint = {
  mutable session : Bfd.session;
  wire : Faults.t;              (* the path *from* this endpoint *)
  local_discr : int32;
  mutable alive : bool;         (* false between crash and restart *)
  mutable ticks_since_rx : int;
  mutable rx_count : int;
  mutable tx_count : int;
}

type link = {
  a : endpoint;
  b : endpoint;
  receive : receive;
  mutable tick : int;
  mutable was_up : bool;
  mutable rev_events : event list;
}

type outcome = {
  ticks : int;
  a_state : Bfd.session_state;
  b_state : Bfd.session_state;
  a_rx : int;
  b_rx : int;
  a_tx : int;
  b_tx : int;
  events : event list;          (* in tick order *)
}

let detect_mult = 3

let new_session local_discr =
  let session = Bfd.new_session ~local_discr in
  session.Bfd.detect_mult <- detect_mult;
  session

let make_endpoint ~local_discr wire =
  {
    session = new_session local_discr;
    wire;
    local_discr;
    alive = true;
    ticks_since_rx = 0;
    rx_count = 0;
    tx_count = 0;
  }

let control_packet ep =
  let s = ep.session in
  {
    Bfd.default_packet with
    Bfd.state = s.Bfd.session_state;
    diag = s.Bfd.local_diag;
    detect_mult = s.Bfd.detect_mult;
    my_discriminator = s.Bfd.local_discr;
    your_discriminator = s.Bfd.remote_discr;
    desired_min_tx = s.Bfd.desired_min_tx;
    required_min_rx = s.Bfd.required_min_rx;
  }

(* RFC 5880 §6.8.4: when the detection time expires without a received
   control packet the session is declared down with diag 1 ("Control
   Detection Time Expired"). *)
let detection_expired ep =
  ep.ticks_since_rx >= ep.session.Bfd.detect_mult

let declare_down ep =
  ep.session.Bfd.local_diag <- 1;
  ep.session.Bfd.session_state <- Bfd.Down;
  ep.ticks_since_rx <- 0

let deliver_to link ep packets =
  List.iter
    (fun wire_pkt ->
      (* a corrupted or truncated packet must be rejected by the typed
         decoder, never crash the session; a dead endpoint hears
         nothing at all *)
      if ep.alive then
        match Bfd.decode wire_pkt with
        | Error _ -> ()
        | Ok p -> (
          match link.receive ep.session p with
          | `Discard _ -> ()
          | `Ok ->
            ep.rx_count <- ep.rx_count + 1;
            ep.ticks_since_rx <- 0))
    packets

let reference_receive sess pkt = Bfd.receive_control_packet sess pkt

let create_link ?(plan = []) ?(receive = reference_receive) ~seed () =
  (* independent deterministic streams per direction, derived from the
     one seed so a single integer reproduces the whole run *)
  let a_to_b = Faults.create ~plan ~seed () in
  let b_to_a = Faults.create ~plan ~seed:(seed + 0x5157) () in
  {
    a = make_endpoint ~local_discr:1l a_to_b;
    b = make_endpoint ~local_discr:2l b_to_a;
    receive;
    tick = 0;
    was_up = false;
    rev_events = [];
  }

let endpoint link ~at_a = if at_a then link.a else link.b

let link_state link ~at_a = (endpoint link ~at_a).session.Bfd.session_state
let link_events link = List.rev link.rev_events

let link_up link =
  link.a.session.Bfd.session_state = Bfd.Up
  && link.b.session.Bfd.session_state = Bfd.Up

let set_link_plan link plan =
  Faults.set_plan link.a.wire plan;
  Faults.set_plan link.b.wire plan

(* A crashed endpoint transmits nothing (its wire still idles, so
   in-flight packets keep moving) and hears nothing; its session state
   is meaningless until restart. *)
let kill_endpoint link ~at_a = (endpoint link ~at_a).alive <- false

(* Restart = a fresh session with the same discriminator, starting from
   Down with everything to relearn — exactly a daemon respawn. *)
let restart_endpoint link ~at_a =
  let ep = endpoint link ~at_a in
  ep.session <- new_session ep.local_discr;
  ep.ticks_since_rx <- 0;
  ep.alive <- true

let step_link link =
  let tick = link.tick + 1 in
  link.tick <- tick;
  let a = link.a and b = link.b in
  (* transmit phase: each live end emits one control packet per tick
     while periodic transmission is enabled (ceased in demand mode) *)
  let emit ep =
    if ep.alive && ep.session.Bfd.periodic_tx_enabled then begin
      ep.tx_count <- ep.tx_count + 1;
      Faults.transmit ep.wire (Bfd.encode (control_packet ep))
    end
    else Faults.idle ep.wire
  in
  let from_a = emit a in
  let from_b = emit b in
  (* receive phase *)
  a.ticks_since_rx <- a.ticks_since_rx + 1;
  b.ticks_since_rx <- b.ticks_since_rx + 1;
  deliver_to link b from_a;
  deliver_to link a from_b;
  (* timer phase: detection-time expiry only matters once the session
     has left Down (a Down session has nothing to detect, §6.8.4) *)
  let expire ep ~at_a =
    if
      ep.alive
      && ep.session.Bfd.session_state <> Bfd.Down
      && detection_expired ep
    then begin
      declare_down ep;
      link.rev_events <- Detection_timeout { tick; at_a } :: link.rev_events
    end
  in
  expire a ~at_a:true;
  expire b ~at_a:false;
  if (not link.was_up) && link_up link then begin
    link.was_up <- true;
    link.rev_events <- Came_up tick :: link.rev_events
  end;
  if link.was_up && not (link_up link) then link.was_up <- false

let outcome_of link =
  {
    ticks = link.tick;
    a_state = link.a.session.Bfd.session_state;
    b_state = link.b.session.Bfd.session_state;
    a_rx = link.a.rx_count;
    b_rx = link.b.rx_count;
    a_tx = link.a.tx_count;
    b_tx = link.b.tx_count;
    events = link_events link;
  }

let run ?(plan = []) ~seed ~ticks () =
  let link = create_link ~plan ~seed () in
  for _ = 1 to ticks do
    step_link link
  done;
  outcome_of link

let came_up o =
  List.exists (function Came_up _ -> true | _ -> false) o.events

let detection_timeouts o =
  List.filter_map
    (function Detection_timeout { tick; _ } -> Some tick | _ -> None)
    o.events
