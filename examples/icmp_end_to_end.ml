(* End-to-end ICMP (paper §6.2 and Appendix A): run every test scenario of
   the paper's evaluation against the SAGE-generated implementation and
   report, per scenario, the packets on the wire.

   Run with:  dune exec examples/icmp_end_to_end.exe *)

module P = Sage.Pipeline
module Net = Sage_sim.Network
module Svc = Sage_sim.Icmp_service
module Gs = Sage_sim.Generated_stack
module Addr = Sage_net.Addr
module Ipv4 = Sage_net.Ipv4
module Icmp = Sage_net.Icmp
module Tcpdump = Sage_net.Tcpdump
module Pcap = Sage_net.Pcap

let craft ?(ttl = 64) ?(tos = 0) ~src ~dst payload =
  Ipv4.encode
    (Ipv4.make ~ttl ~tos ~protocol:Ipv4.protocol_icmp ~src ~dst
       ~payload_len:(Bytes.length payload) ())
    ~payload

let echo_payload seq =
  Icmp.encode
    (Icmp.Echo
       { Icmp.echo_code = 0; identifier = 0x4242; sequence = seq;
         payload = Bytes.of_string "example-payload!" })

let describe label = function
  | Net.Icmp_response d | Net.Replied d ->
    let v = Tcpdump.inspect_datagram d in
    Printf.printf "  %-28s -> %s %s\n" label v.Tcpdump.description
      (if Tcpdump.clean v then "" else "[WARNINGS!]")
  | Net.Delivered a ->
    Printf.printf "  %-28s -> delivered to %s (no response)\n" label
      (Addr.to_string a)
  | Net.Dropped r -> Printf.printf "  %-28s -> dropped: %s\n" label r

let () =
  print_endline "Generating the ICMP implementation from the rewritten RFC...";
  let run = P.run_corpus (P.find_corpus "icmp-rw") in
  let service = Svc.generated (Gs.of_run run) in
  let net = Net.default_topology ~service () in
  let client = Net.client_addr net in
  Printf.printf "topology: client %s, router %s, servers %s / %s\n\n"
    (Addr.to_string client)
    (Addr.to_string (Net.router_client_iface net))
    (Addr.to_string (Net.server1_addr net))
    (Addr.to_string (Net.server2_addr net));

  print_endline "Appendix A scenarios against the generated router:";

  (* Echo / Echo Reply *)
  describe "echo (ping)"
    (Net.send net ~from:client
       (craft ~src:client ~dst:(Net.server1_addr net) (echo_payload 1)));

  (* Destination Unreachable *)
  describe "destination unreachable"
    (Net.send net ~from:client
       (craft ~src:client ~dst:(Net.unknown_addr net) (echo_payload 2)));

  (* Time Exceeded *)
  describe "time exceeded"
    (Net.send net ~from:client
       (craft ~ttl:1 ~src:client ~dst:(Net.server1_addr net) (echo_payload 3)));

  (* Parameter Problem (unsupported type of service) *)
  describe "parameter problem"
    (Net.send net ~from:client
       (craft ~tos:1 ~src:client ~dst:(Net.server1_addr net) (echo_payload 4)));

  (* Source Quench (full outbound buffer) *)
  Net.set_buffer_full net true;
  describe "source quench"
    (Net.send net ~from:client
       (craft ~src:client ~dst:(Net.server1_addr net) (echo_payload 5)));
  Net.set_buffer_full net false;

  (* Redirect (same-subnet destination routed via the router) *)
  describe "redirect"
    (Net.send net ~from:client
       (craft ~src:client ~dst:(Addr.of_string_exn "10.0.1.99") (echo_payload 6)));

  (* Timestamp / Timestamp Reply *)
  let ts_payload =
    Icmp.encode
      (Icmp.Timestamp
         { Icmp.ts_code = 0; ts_identifier = 0x4242; ts_sequence = 7;
           originate = 1000l; receive = 0l; transmit = 0l })
  in
  describe "timestamp"
    (Net.send net ~from:client
       (craft ~src:client ~dst:(Net.router_client_iface net) ts_payload));

  (* Information Request / Reply *)
  let info_payload =
    Icmp.encode
      (Icmp.Information_request
         { Icmp.info_code = 0; info_identifier = 0x4242; info_sequence = 8 })
  in
  describe "information request"
    (Net.send net ~from:client
       (craft ~src:client ~dst:(Net.router_client_iface net) info_payload));

  print_endline "\nFull ping + traceroute:";
  let ping = Sage_sim.Ping.ping ~net (Net.server1_addr net) in
  Printf.printf "  ping       : %s (%d/%d)\n"
    (if Sage_sim.Ping.success ping then "ok" else "FAILED")
    ping.Sage_sim.Ping.received ping.Sage_sim.Ping.sent;
  let tr = Sage_sim.Traceroute.traceroute ~net (Net.server1_addr net) in
  Printf.printf "  traceroute : %s (%d hops)\n"
    (if tr.Sage_sim.Traceroute.reached then "ok" else "FAILED")
    (Sage_sim.Traceroute.hop_count tr);

  (* write everything that crossed the wire to a pcap for inspection *)
  Pcap.write_file (Net.capture net) "icmp_end_to_end.pcap";
  Printf.printf "\n%d packets captured; written to ./icmp_end_to_end.pcap\n"
    (Pcap.packet_count (Net.capture net))
