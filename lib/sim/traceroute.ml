module Addr = Sage_net.Addr
module Ipv4 = Sage_net.Ipv4
module Icmp = Sage_net.Icmp
module Udp = Sage_net.Udp
module Bu = Sage_net.Bytes_util

type hop = {
  ttl : int;
  responder : Addr.t option;
  response_type : int option;
  quoted_probe_ok : bool;
  note : string;
}

type result = { target : Addr.t; hops : hop list; reached : bool }

(* traceroute accepts a response when the quoted original datagram's
   source/destination and UDP ports match the probe it sent.  The quote
   is only the header plus 64 bits, so it is parsed leniently (its IP
   total-length field describes the full original datagram). *)
let quoted_matches ~probe quoted =
  match Ipv4.decode probe with
  | Error _ -> false
  | Ok (ph, ppl) ->
    Bytes.length quoted >= 28
    && Bu.get_u8 quoted 0 lsr 4 = 4
    &&
    let ihl = Bu.get_u8 quoted 0 land 0xf in
    Bytes.length quoted >= (4 * ihl) + 8
    && Addr.equal (Addr.of_int32 (Bu.get_u32 quoted 12)) ph.Ipv4.src
    && Addr.equal (Addr.of_int32 (Bu.get_u32 quoted 16)) ph.Ipv4.dst
    && Bu.get_u8 quoted 9 = ph.Ipv4.protocol
    && Bytes.length ppl >= 4
    && Bu.get_u16 ppl 0 = Bu.get_u16 quoted (4 * ihl)
    && Bu.get_u16 ppl 2 = Bu.get_u16 quoted ((4 * ihl) + 2)

(* Same retry discipline as {!Ping.ping} ({!Network.retry}): a TTL
   whose probe drew no responder is re-probed up to [retries] more
   times.  [retries = 0] is the historical one-shot probe. *)
let traceroute ?(max_ttl = 8) ?(retries = 0) ~net target =
  let src = Network.client_addr net in
  let hops = ref [] in
  let reached = ref false in
  let ttl = ref 1 in
  while (not !reached) && !ttl <= max_ttl do
    let port = Network.traceroute_base_port + !ttl - 1 in
    let payload = Bytes.make 24 '\x40' in
    let udp = Udp.make ~src_port:43210 ~dst_port:port ~payload_len:(Bytes.length payload) in
    let segment = Udp.encode ~src ~dst:target udp ~payload in
    let hdr =
      Ipv4.make ~ttl:!ttl ~protocol:Ipv4.protocol_udp ~src ~dst:target
        ~payload_len:(Bytes.length segment) ()
    in
    let probe = Ipv4.encode hdr ~payload:segment in
    let attempt_once attempt =
      Sage_trace.Trace.with_span ~cat:"sim"
        ~args:
          [ ("ttl", Sage_trace.Trace.Int !ttl);
            ("attempt", Sage_trace.Trace.Int attempt) ]
        (Network.trace net) "traceroute-probe"
      @@ fun () ->
      match Network.send net ~from:src probe with
      | Network.Icmp_response resp ->
        (match Ipv4.decode resp with
         | Error e ->
           { ttl = !ttl; responder = None; response_type = None;
             quoted_probe_ok = false;
             note =
               "undecodable response: " ^ Sage_net.Decode_error.to_string e }
         | Ok (rh, body) ->
           let ty = if Bytes.length body >= 1 then Some (Bu.get_u8 body 0) else None in
           let quoted =
             if Bytes.length body > 8 then
               Bytes.sub body 8 (Bytes.length body - 8)
             else Bytes.empty
           in
           let quoted_ok =
             Icmp.checksum_ok body && quoted_matches ~probe quoted
           in
           if ty = Some Icmp.type_destination_unreachable
              && Addr.equal rh.Ipv4.src target
           then reached := true;
           {
             ttl = !ttl;
             responder = Some rh.Ipv4.src;
             response_type = ty;
             quoted_probe_ok = quoted_ok;
             note = "";
           })
      | Network.Replied _ ->
        { ttl = !ttl; responder = None; response_type = None;
          quoted_probe_ok = false; note = "unexpected reply" }
      | Network.Delivered a ->
        { ttl = !ttl; responder = Some a; response_type = None;
          quoted_probe_ok = false; note = "delivered without response" }
      | Network.Dropped reason ->
        { ttl = !ttl; responder = None; response_type = None;
          quoted_probe_ok = false; note = "dropped: " ^ reason }
    in
    let hop =
      Network.retry net ~retries
        ~answered:(fun hop -> hop.responder <> None)
        attempt_once
    in
    hops := hop :: !hops;
    incr ttl
  done;
  { target; hops = List.rev !hops; reached = !reached }

let hop_count r = List.length r.hops

let lost_probes r =
  List.length (List.filter (fun h -> h.responder = None) r.hops)

let loss_rate r =
  if r.hops = [] then 0.0
  else 100.0 *. float_of_int (lost_probes r) /. float_of_int (hop_count r)
