(* Tests for the §7 extension corpus (TCP), the IGMP switch, and
   robustness properties: decoders must never raise on arbitrary bytes. *)

module P = Sage.Pipeline
module Ir = Sage_codegen.Ir
module Addr = Sage_net.Addr
module Ipv4 = Sage_net.Ipv4
module Igmp = Sage_net.Igmp
module Switch = Sage_sim.Igmp_switch
module Gs = Sage_sim.Generated_stack
module Rt = Sage_interp.Runtime
module Q = Qcheck_lite

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let a = Addr.of_string_exn

let run_of name = Corpus_runs.run_of (P.find_corpus name)
let tcp_run = lazy (run_of "tcp")

(* ---- TCP (§7) ---- *)

let test_tcp_header_recovered () =
  let run = Lazy.force tcp_run in
  match run.P.codegen.P.structs with
  | [ d ] ->
    check Alcotest.int "20-byte fixed header" 160
      (Sage_rfc.Header_diagram.total_bits d);
    let f name =
      Option.get (Sage_rfc.Header_diagram.find_ident d name)
    in
    check Alcotest.int "seq is 32 bits" 32 (f "Sequence Number").Sage_rfc.Header_diagram.bits;
    check Alcotest.int "data offset is 4 bits" 4 (f "Offset").Sage_rfc.Header_diagram.bits;
    check Alcotest.int "reserved is 6 bits" 6 (f "Reserved").Sage_rfc.Header_diagram.bits;
    check Alcotest.int "window is 16 bits" 16 (f "Window").Sage_rfc.Header_diagram.bits;
    check Alcotest.int "syn flag is 1 bit" 1 (f "S").Sage_rfc.Header_diagram.bits
  | other -> Alcotest.failf "expected 1 struct, got %d" (List.length other)

let test_tcp_constraints_parse () =
  let run = Lazy.force tcp_run in
  List.iter
    (fun needle ->
      let r =
        List.find
          (fun r -> Astring_contains.contains r.P.sentence needle)
          run.P.sentences
      in
      match r.P.status with
      | P.Parsed _ -> ()
      | _ -> Alcotest.failf "should parse: %s" r.P.sentence)
    [ "If the urg bit is zero"; "If the ack bit is zero";
      "If the rst bit is nonzero"; "16-bit one's complement" ]

let test_tcp_state_machine_prose_fails () =
  (* the measurable §7 gap: state-machine sentences do not parse *)
  let run = Lazy.force tcp_run in
  let gaps = P.zero_lf_sentences run in
  check Alcotest.int "two out-of-reach sentences" 2 (List.length gaps);
  List.iter
    (fun r ->
      check Alcotest.bool "mentions a TCP state" true
        (Astring_contains.contains r.P.sentence "SYN"))
    gaps

let test_tcp_generated_constraints_execute () =
  let run = Lazy.force tcp_run in
  let st = Gs.of_run run in
  (* a segment with URG=0 and a nonzero urgent pointer: the generated
     function zeroes it; with RST set it discards *)
  let sd = List.assoc "tcp_tcp_segment_header_sender"
      run.P.codegen.P.struct_of_function in
  let view = Sage_interp.Packet_view.create sd in
  ignore (Sage_interp.Packet_view.set view "urgent_pointer" 99L);
  let wire = Sage_interp.Packet_view.serialize view in
  let dgram =
    Ipv4.encode
      (Ipv4.make ~protocol:Ipv4.protocol_tcp ~src:(a "10.0.1.50")
         ~dst:(a "192.168.2.10") ~payload_len:(Bytes.length wire) ())
      ~payload:wire
  in
  (match
     Gs.process_request st ~fn:"tcp_tcp_segment_header_sender" ~request:dgram
   with
   | Ok (Some out) ->
     (match Ipv4.decode out with
      | Ok (hdr, payload) ->
        check Alcotest.int "IP protocol 6" Ipv4.protocol_tcp hdr.Ipv4.protocol;
        (match Sage_interp.Packet_view.deserialize sd payload with
         | Ok v ->
           check Alcotest.int64 "urgent pointer zeroed" 0L
             (Result.get_ok (Sage_interp.Packet_view.get v "urgent_pointer"))
         | Error e -> Alcotest.fail e)
      | Error e -> Alcotest.fail (Sage_net.Decode_error.to_string e))
   | Ok None -> Alcotest.fail "discarded unexpectedly"
   | Error e -> Alcotest.fail e);
  (* RST set -> discard *)
  ignore (Sage_interp.Packet_view.set view "r" 1L);
  let wire = Sage_interp.Packet_view.serialize view in
  let dgram =
    Ipv4.encode
      (Ipv4.make ~protocol:Ipv4.protocol_tcp ~src:(a "10.0.1.50")
         ~dst:(a "192.168.2.10") ~payload_len:(Bytes.length wire) ())
      ~payload:wire
  in
  match
    Gs.process_request st ~fn:"tcp_tcp_segment_header_sender" ~request:dgram
  with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "RST segment not discarded"
  | Error e -> Alcotest.fail e

(* ---- BGP (§7) ---- *)

let bgp_run = lazy (run_of "bgp")

let test_bgp_all_sentences_parse () =
  let run = Lazy.force bgp_run in
  check Alcotest.int "no zero-LF" 0 (List.length (P.zero_lf_sentences run));
  check Alcotest.int "no ambiguous" 0 (List.length (P.ambiguous_sentences run));
  check Alcotest.int "no codegen failures" 0
    (List.length run.P.codegen.P.non_actionable)

let test_bgp_open_header () =
  let run = Lazy.force bgp_run in
  match run.P.codegen.P.structs with
  | [ d ] ->
    let f name = Option.get (Sage_rfc.Header_diagram.find_ident d name) in
    check Alcotest.int "hold time merged to 16 bits" 16
      (f "Hold Time").Sage_rfc.Header_diagram.bits;
    check Alcotest.int "bgp identifier merged to 32 bits" 32
      (f "BGP Identifier").Sage_rfc.Header_diagram.bits
  | other -> Alcotest.failf "expected 1 struct, got %d" (List.length other)

let test_bgp_fsm_transitions_execute () =
  (* drive the generated FSM-prose code: ManualStart moves Idle->Connect;
     a HoldTimer expiry in Established increments the retry counter and
     falls back to Idle *)
  let run = Lazy.force bgp_run in
  let st = Gs.of_run run in
  let fn = "bgp_bgp_open_sender" in
  let packet =
    (* a syntactically valid OPEN so the validation rules pass *)
    let sd = List.assoc fn run.P.codegen.P.struct_of_function in
    let v = Sage_interp.Packet_view.create sd in
    ignore (Sage_interp.Packet_view.set v "version" 4L);
    ignore (Sage_interp.Packet_view.set v "hold_time" 90L);
    Sage_interp.Packet_view.serialize v
  in
  let params =
    [ ("event_ManualStart", Rt.VInt 1L); ("event_ManualStop", Rt.VInt 0L);
      ("remote_system", Rt.VInt 0L);
      ("interface_address", Rt.VInt 0x0a000101L) ]
  in
  (match
     Gs.run_state_update
       ~state:[ ("bgp.State", 1L); ("bgp.HoldTimer", 30L) ]
       ~params st ~fn ~packet
   with
   | Ok (bindings, _) ->
     check Alcotest.int64 "ManualStart: Idle -> Connect" 2L
       (Option.value ~default:0L (List.assoc_opt "bgp.State" bindings))
   | Error e -> Alcotest.fail e);
  match
    Gs.run_state_update
      ~state:[ ("bgp.State", 6L); ("bgp.HoldTimer", 0L);
               ("bgp.ConnectRetryCounter", 2L) ]
      ~params:
        [ ("event_ManualStart", Rt.VInt 0L); ("event_ManualStop", Rt.VInt 0L);
          ("remote_system", Rt.VInt 0L);
          ("interface_address", Rt.VInt 0x0a000101L) ]
      st ~fn ~packet
  with
  | Ok (bindings, _) ->
    check Alcotest.int64 "HoldTimer expiry: state -> Idle" 1L
      (Option.value ~default:0L (List.assoc_opt "bgp.State" bindings));
    check Alcotest.int64 "retry counter incremented" 3L
      (Option.value ~default:0L (List.assoc_opt "bgp.ConnectRetryCounter" bindings))
  | Error e -> Alcotest.fail e

(* ---- IGMP switch (§6.3 interop) ---- *)

let query_datagram ~src =
  let payload = Igmp.encode Igmp.query in
  Ipv4.encode
    (Ipv4.make ~ttl:1 ~protocol:Ipv4.protocol_igmp ~src
       ~dst:Igmp.all_hosts_group ~payload_len:(Bytes.length payload) ())
    ~payload

let test_switch_answers_query () =
  let switch = Switch.create ~groups:[ a "224.1.1.1"; a "224.2.2.2" ] (a "10.0.1.77") in
  match Switch.receive switch (query_datagram ~src:(a "10.0.1.1")) with
  | Ok reports ->
    check Alcotest.int "one report per group" 2 (List.length reports);
    List.iter
      (fun r ->
        match Ipv4.decode r with
        | Ok (hdr, payload) ->
          (match Igmp.decode payload with
           | Ok m ->
             check Alcotest.bool "report" true
               (m.Igmp.kind = Igmp.Host_membership_report);
             check Alcotest.bool "addressed to the group" true
               (Addr.equal hdr.Ipv4.dst m.Igmp.group);
             check Alcotest.bool "checksum valid" true (Igmp.checksum_ok payload)
           | Error e -> Alcotest.fail (Sage_net.Decode_error.to_string e))
        | Error e -> Alcotest.fail (Sage_net.Decode_error.to_string e))
      reports
  | Error e -> Alcotest.fail e

let test_switch_join_leave () =
  let switch = Switch.create (a "10.0.1.77") in
  check Alcotest.int "empty" 0 (List.length (Switch.groups switch));
  Switch.join switch (a "224.1.1.1");
  Switch.join switch (a "224.1.1.1");
  check Alcotest.int "idempotent join" 1 (List.length (Switch.groups switch));
  (match Switch.receive switch (query_datagram ~src:(a "10.0.1.1")) with
   | Ok reports -> check Alcotest.int "one report" 1 (List.length reports)
   | Error e -> Alcotest.fail e);
  Switch.leave switch (a "224.1.1.1");
  match Switch.receive switch (query_datagram ~src:(a "10.0.1.1")) with
  | Ok reports -> check Alcotest.int "no reports" 0 (List.length reports)
  | Error e -> Alcotest.fail e

let test_switch_rejects_bad_query () =
  let switch = Switch.create ~groups:[ a "224.1.1.1" ] (a "10.0.1.77") in
  (* wrong destination *)
  let payload = Igmp.encode Igmp.query in
  let wrong_dst =
    Ipv4.encode
      (Ipv4.make ~protocol:Ipv4.protocol_igmp ~src:(a "10.0.1.1")
         ~dst:(a "10.0.1.77") ~payload_len:(Bytes.length payload) ())
      ~payload
  in
  (match Switch.receive switch wrong_dst with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unicast query accepted");
  (* corrupted checksum *)
  let bad = query_datagram ~src:(a "10.0.1.1") in
  Sage_net.Bytes_util.set_u8 bad 24 0xff;
  match Switch.receive switch bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt query accepted"

let test_generated_query_drives_switch () =
  (* the paper's §6.3 experiment end to end: generated query -> switch *)
  let st = Gs.of_run (run_of "igmp") in
  let query =
    Result.get_ok
      (Gs.build_message
         ~params:
           [ ("all_hosts_group",
              Rt.VInt
                (Int64.logand
                   (Int64.of_int32 (Addr.to_int32 Igmp.all_hosts_group))
                   0xffffffffL)) ]
         ~src:(a "10.0.1.1") ~dst:Igmp.all_hosts_group st
         ~fn:"igmp_host_membership_query_sender")
  in
  let switch = Switch.create ~groups:[ a "224.9.9.9" ] (a "10.0.1.77") in
  match Switch.receive switch query with
  | Ok [ report ] ->
    (match Ipv4.decode report with
     | Ok (_, payload) ->
       check Alcotest.bool "valid report to the generated query" true
         (Igmp.checksum_ok payload)
     | Error e -> Alcotest.fail (Sage_net.Decode_error.to_string e))
  | Ok rs -> Alcotest.failf "expected 1 report, got %d" (List.length rs)
  | Error e -> Alcotest.failf "switch rejected the generated query: %s" e

(* ---- decoder robustness: never raise on arbitrary input ---- *)

let never_raises ?(count = 300) ?(max_len = 96) name f =
  Q.test ~count (name ^ " never raises") (Q.bytes_arb ~max_len ()) (fun b ->
      ignore (f b);
      true)

let suite =
  [
    tc "TCP header recovered from the art" test_tcp_header_recovered;
    tc "TCP constraints parse (7)" test_tcp_constraints_parse;
    tc "TCP state-machine prose fails (the 7 gap)" test_tcp_state_machine_prose_fails;
    tc "TCP generated constraints execute" test_tcp_generated_constraints_execute;
    tc "BGP: FSM prose parses cleanly (7)" test_bgp_all_sentences_parse;
    tc "BGP: OPEN header recovered" test_bgp_open_header;
    tc "BGP: generated FSM transitions execute" test_bgp_fsm_transitions_execute;
    tc "IGMP switch answers a query (6.3)" test_switch_answers_query;
    tc "IGMP switch join/leave" test_switch_join_leave;
    tc "IGMP switch rejects bad queries" test_switch_rejects_bad_query;
    tc "generated query drives the switch (6.3)" test_generated_query_drives_switch;
    never_raises "Ipv4.decode" Ipv4.decode;
    never_raises "Icmp.decode" Sage_net.Icmp.decode;
    never_raises "Udp.decode" Sage_net.Udp.decode;
    never_raises "Igmp.decode" Igmp.decode;
    never_raises "Ntp.decode" Sage_net.Ntp.decode;
    never_raises "Bfd.decode" Sage_net.Bfd.decode;
    never_raises "Pcap.of_bytes" Sage_net.Pcap.of_bytes;
    never_raises "Tcpdump.inspect" Sage_net.Tcpdump.inspect_datagram;
    never_raises ~max_len:48 "Lf.of_string" (fun b -> Sage_logic.Lf.of_string (Bytes.to_string b));
    never_raises ~count:200 ~max_len:64 "Igmp_switch.receive" (fun b ->
        Switch.receive (Switch.create ~groups:[ a "224.1.1.1" ] (a "10.0.1.77")) b);
  ]
