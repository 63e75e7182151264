module Addr = Sage_net.Addr
module Ipv4 = Sage_net.Ipv4
module Udp = Sage_net.Udp
module Pcap = Sage_net.Pcap
module Decode_error = Sage_net.Decode_error

type delivery =
  | Delivered of Addr.t
  | Icmp_response of bytes
  | Replied of bytes
  | Dropped of string

type host = { addr : Addr.t; subnet : Addr.prefix }

type t = {
  service : Icmp_service.t;
  hosts : host list;
  router_ifaces : (Addr.prefix * Addr.t) list;  (* subnet -> iface addr *)
  tos_supported : int;
  mutable buffer_full : bool;
  mutable mtu : int;  (* egress MTU: larger DF datagrams trigger code 4 *)
  transit : Addr.t list;
      (* additional routers between the first hop and the servers *)
  cap : Pcap.capture;
  faults : Faults.t option;
      (* when present, every [send] passes through the fault process *)
  trace : Sage_trace.Trace.t option;
}

module Trace = Sage_trace.Trace

let p = Addr.prefix_of_string_exn
let a = Addr.of_string_exn

let default_topology ?(service = Icmp_service.reference) ?(extra_hops = 0)
    ?faults ?trace () =
  (* wire the fault process into the trace: each fired rule becomes a
     [fault:<kind>] instant (observation only, never perturbs the seeded
     stream) *)
  (match (faults, trace) with
  | Some f, Some _ ->
    Faults.set_observer f (fun fault ->
        Trace.instant ~cat:"sim"
          ~args:[ ("kind", Trace.Str (Faults.fault_to_string fault)) ]
          trace "fault")
  | _ -> ());
  let transit =
    List.init extra_hops (fun i -> Addr.of_octets 10 255 0 (i + 1))
  in
  {
    service;
    hosts =
      [
        { addr = a "10.0.1.50"; subnet = p "10.0.1.0/24" };
        { addr = a "192.168.2.10"; subnet = p "192.168.2.0/24" };
        { addr = a "172.64.3.10"; subnet = p "172.64.3.0/24" };
      ];
    router_ifaces =
      [
        (p "10.0.1.0/24", a "10.0.1.1");
        (p "192.168.2.0/24", a "192.168.2.1");
        (p "172.64.3.0/24", a "172.64.3.1");
      ];
    tos_supported = 0;
    buffer_full = false;
    mtu = 1500;
    transit;
    cap = Pcap.create ();
    faults;
    trace;
  }

let trace t = t.trace

let client_addr t = (List.nth t.hosts 0).addr
let server1_addr t = (List.nth t.hosts 1).addr
let server2_addr t = (List.nth t.hosts 2).addr
let unknown_addr _ = a "203.0.113.77"

let router_client_iface t = snd (List.nth t.router_ifaces 0)

let set_buffer_full t v = t.buffer_full <- v
let set_mtu t v = t.mtu <- v

(* IP flags bit 1 (of 3) is Don't Fragment *)
let df_set hdr = hdr.Ipv4.flags land 0b010 <> 0
let capture t = t.cap

let iface_for t addr =
  List.find_map
    (fun (subnet, iface) -> if Addr.mem addr subnet then Some iface else None)
    t.router_ifaces

let host_for t addr = List.find_opt (fun h -> Addr.equal h.addr addr) t.hosts

let record t dgram = Pcap.add_packet t.cap dgram

let is_router_addr t addr =
  List.exists (fun (_, iface) -> Addr.equal iface addr) t.router_ifaces

let traceroute_base_port = 33434

(* A destination host answers an ICMP echo-like request using the
   configured service, or a port-unreachable for UDP probes to high ports
   (traceroute behaviour). *)
let host_receive t (host : host) dgram =
  match Ipv4.decode dgram with
  | Error e -> Dropped (Decode_error.to_string e)
  | Ok (hdr, _payload) ->
    if hdr.Ipv4.protocol = Ipv4.protocol_icmp then
      match t.service.Icmp_service.echo_reply ~request:dgram with
      | Ok (Some reply) ->
        record t reply;
        Replied reply
      | Ok None -> Delivered host.addr
      | Error e -> Dropped e
    else if hdr.Ipv4.protocol = Ipv4.protocol_udp then
      match Udp.decode _payload with
      | Ok (udp, _) when udp.Udp.dst_port >= traceroute_base_port ->
        (* traceroute probe: no listener on the high port *)
        (match
           t.service.Icmp_service.error ~kind:Icmp_service.Port_unreachable
             ~original:dgram ~router:host.addr
         with
         | Ok err ->
           record t err;
           Icmp_response err
         | Error e -> Dropped e)
      | Ok _ -> Delivered host.addr
      | Error e -> Dropped (Decode_error.to_string e)
    else Delivered host.addr

let router_receive t ~ingress_subnet dgram =
  match Ipv4.decode dgram with
  | Error e -> Dropped (Decode_error.to_string e)
  | Ok (hdr, _) ->
    let respond kind =
      let router =
        Option.value ~default:(router_client_iface t) (iface_for t hdr.Ipv4.src)
      in
      match t.service.Icmp_service.error ~kind ~original:dgram ~router with
      | Ok err ->
        record t err;
        Icmp_response err
      | Error e -> Dropped e
    in
    if is_router_addr t hdr.Ipv4.dst && hdr.Ipv4.protocol = Ipv4.protocol_icmp
    then
      (* addressed to the router itself: echo handling *)
      match t.service.Icmp_service.echo_reply ~request:dgram with
      | Ok (Some reply) ->
        record t reply;
        Replied reply
      | Ok None -> Delivered hdr.Ipv4.dst
      | Error e -> Dropped e
    else if hdr.Ipv4.tos <> t.tos_supported then
      (* appendix: unsupported type of service -> parameter problem;
         the ToS octet is at offset 1 of the IP header *)
      respond (Icmp_service.Parameter_problem 1)
    else if hdr.Ipv4.ttl <= 1 then respond Icmp_service.Time_exceeded
    else
      match iface_for t hdr.Ipv4.dst with
      | None -> respond Icmp_service.Net_unreachable
      | Some egress_iface ->
        if hdr.Ipv4.total_length > t.mtu && df_set hdr then
          (* appendix: "a datagram must be fragmented to be forwarded by a
             gateway yet the Don't Fragment flag is on" *)
          respond Icmp_service.Frag_needed
        else if t.buffer_full then respond Icmp_service.Source_quench
        else if
          (* next hop on the same subnet as the sender: redirect *)
          Addr.mem hdr.Ipv4.dst ingress_subnet
          && not (Addr.equal hdr.Ipv4.dst hdr.Ipv4.src)
        then respond (Icmp_service.Redirect egress_iface)
        else
          (* forward: decrement TTL, refresh header checksum; then walk
             through any transit routers on the way to the server *)
          let payload =
            match Ipv4.decode dgram with
            | Ok (_, pl) -> pl
            | Error _ -> Bytes.empty
          in
          (* each router expires a datagram arriving with TTL <= 1,
             otherwise forwards it with TTL - 1 *)
          let rec hop_through routers arriving_ttl =
            match routers with
            | [] ->
              let fwd_hdr = { hdr with Ipv4.ttl = arriving_ttl } in
              let fwd = Ipv4.encode fwd_hdr ~payload in
              (* an oversized datagram without DF is fragmented on the
                 egress link; the destination host reassembles *)
              let delivered =
                if Bytes.length fwd > t.mtu then
                  match Ipv4.fragment ~mtu:t.mtu fwd with
                  | Ok frags ->
                    List.iter (record t) frags;
                    Ipv4.reassemble frags
                  | Error e -> Error e
                else begin
                  record t fwd;
                  Ok fwd
                end
              in
              (match delivered with
               | Error e -> Dropped e
               | Ok whole ->
                 (match host_for t hdr.Ipv4.dst with
                  | Some host -> host_receive t host whole
                  | None -> respond Icmp_service.Host_unreachable))
            | transit_router :: rest ->
              if arriving_ttl <= 1 then begin
                let at_router =
                  Ipv4.encode { hdr with Ipv4.ttl = 1 } ~payload
                in
                match
                  t.service.Icmp_service.error ~kind:Icmp_service.Time_exceeded
                    ~original:at_router ~router:transit_router
                with
                | Ok err ->
                  record t err;
                  Icmp_response err
                | Error e -> Dropped e
              end
              else hop_through rest (arriving_ttl - 1)
          in
          hop_through t.transit (hdr.Ipv4.ttl - 1)

let route t ~from dgram =
  record t dgram;
  let ingress_subnet =
    match List.find_opt (fun h -> Addr.equal h.addr from) t.hosts with
    | Some h -> h.subnet
    | None -> (List.nth t.hosts 0).subnet
  in
  match Ipv4.decode dgram with
  | Error e -> Dropped (Decode_error.to_string e)
  | Ok (hdr, _) ->
    if Addr.equal hdr.Ipv4.dst from then Delivered from
    else
      (* same-subnet destinations that are not the router still go via
         the router when the sender explicitly targets it — the redirect
         scenario injects such packets; normal hosts deliver directly *)
      (match host_for t hdr.Ipv4.dst with
       | Some host when Addr.mem host.addr ingress_subnet ->
         host_receive t host dgram
       | Some _ | None -> router_receive t ~ingress_subnet dgram)

(* Every packet exiting the fault process this tick is routed in order;
   the capture records what is actually on the wire (after corruption,
   truncation or duplication), so a seeded run's pcap is reproducible. *)
let delivery_label = function
  | Delivered _ -> "delivered"
  | Icmp_response _ -> "icmp-response"
  | Replied _ -> "replied"
  | Dropped _ -> "dropped"

let traced_route t ~from dgram =
  let d = route t ~from dgram in
  Trace.instant ~cat:"sim"
    ~args:
      (( "outcome", Trace.Str (delivery_label d) )
      ::
      (match d with
      | Dropped reason -> [ ("reason", Trace.Str reason) ]
      | Delivered a -> [ ("host", Trace.Str (Addr.to_string a)) ]
      | Icmp_response b | Replied b -> [ ("len", Trace.Int (Bytes.length b)) ]))
    t.trace "rx";
  d

let send_all t ~from dgram =
  Trace.instant ~cat:"sim"
    ~args:
      [
        ("from", Trace.Str (Addr.to_string from));
        ("len", Trace.Int (Bytes.length dgram));
      ]
    t.trace "tx";
  match t.faults with
  | None -> [ traced_route t ~from dgram ]
  | Some f -> (
    match Faults.transmit f dgram with
    | [] ->
      Trace.instant ~cat:"sim"
        ~args:[ ("outcome", Trace.Str "lost") ]
        t.trace "rx";
      [ Dropped "fault: packet lost in transit" ]
    | on_wire -> List.map (traced_route t ~from) on_wire)

(* Advance the wire clock without injecting traffic: previously delayed
   packets now due are still routed (their outcomes stand alone — the
   original sender has already given up on them), so a quiet period does
   not freeze in-flight packets. *)
let idle t =
  match t.faults with
  | None -> ()
  | Some f ->
    List.iter
      (fun pkt -> ignore (traced_route t ~from:(client_addr t) pkt))
      (Faults.idle f)

let retry t ~retries ~answered probe =
  let rec go attempt =
    let r = probe attempt in
    if answered r || attempt >= retries then r
    else begin
      for _ = 1 to 1 lsl attempt do
        idle t
      done;
      go (attempt + 1)
    end
  in
  go 0

let send t ~from dgram =
  let deliveries = send_all t ~from dgram in
  match List.find_opt (function Dropped _ -> false | _ -> true) deliveries with
  | Some d -> d
  | None -> List.hd deliveries
