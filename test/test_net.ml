(* Tests for the packet substrate (lib/net). *)

module Bu = Sage_net.Bytes_util
module Checksum = Sage_net.Checksum
module Addr = Sage_net.Addr
module Ipv4 = Sage_net.Ipv4
module Icmp = Sage_net.Icmp
module Udp = Sage_net.Udp
module Igmp = Sage_net.Igmp
module Ntp = Sage_net.Ntp
module Bfd = Sage_net.Bfd
module Pcap = Sage_net.Pcap
module Tcpdump = Sage_net.Tcpdump
module Q = Qcheck_lite

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* fail an alcotest case with a typed decode error *)
let faild e = Alcotest.fail (Sage_net.Decode_error.to_string e)

let a = Addr.of_string_exn

(* ---- bytes_util ---- *)

let test_bytes_util_roundtrip () =
  let b = Bytes.make 16 '\000' in
  Bu.set_u8 b 0 0xab;
  Bu.set_u16 b 1 0xbeef;
  Bu.set_u32 b 4 0xdeadbeefl;
  Bu.set_u64 b 8 0x0123456789abcdefL;
  check Alcotest.int "u8" 0xab (Bu.get_u8 b 0);
  check Alcotest.int "u16" 0xbeef (Bu.get_u16 b 1);
  check Alcotest.int32 "u32" 0xdeadbeefl (Bu.get_u32 b 4);
  check Alcotest.int64 "u64" 0x0123456789abcdefL (Bu.get_u64 b 8)

let test_bytes_util_big_endian () =
  let b = Bytes.make 2 '\000' in
  Bu.set_u16 b 0 0x0102;
  check Alcotest.int "network order" 1 (Bu.get_u8 b 0);
  check Alcotest.int "low byte second" 2 (Bu.get_u8 b 1)

let test_hex () =
  let b = Bytes.of_string "\x01\xff" in
  check Alcotest.string "hex" "01 ff" (Bu.hex b);
  check Alcotest.string "truncated" "01 ..." (Bu.hex ~max:1 b)

(* ---- checksum ---- *)

let test_checksum_rfc1071_example () =
  (* classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> sum 0xddf2 *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check Alcotest.int "one's complement sum" 0xddf2
    (Checksum.ones_complement_sum b);
  check Alcotest.int "checksum" (0xffff land lnot 0xddf2) (Checksum.checksum b)

let test_checksum_odd_length () =
  let b = Bytes.of_string "\x01\x02\x03" in
  (* pads with a zero byte: 0x0102 + 0x0300 *)
  check Alcotest.int "odd padding" 0x0402 (Checksum.ones_complement_sum b)

let test_checksum_verify () =
  let b = Bytes.make 8 '\x5a' in
  Bu.set_u16 b 2 0;
  Bu.set_u16 b 2 (Checksum.checksum b);
  check Alcotest.bool "verifies" true (Checksum.verify b)

let test_checksum_range () =
  let b = Bytes.of_string "\xff\xff\x00\x01\x00\x02" in
  check Alcotest.int "offset range" 3 (Checksum.ones_complement_sum ~off:2 ~len:4 b)

let test_checksum_out_of_bounds () =
  Alcotest.check_raises "range check" (Invalid_argument
    "Checksum.ones_complement_sum: range out of bounds") (fun () ->
      ignore (Checksum.ones_complement_sum ~off:4 ~len:8 (Bytes.make 6 'x')))

let test_incremental_update_rfc1624 () =
  (* updating a word and incrementally fixing the checksum must agree
     with recomputation *)
  let b = Bytes.make 12 '\x21' in
  Bu.set_u16 b 0 0x0800;
  Bu.set_u16 b 2 0;
  let c0 = Checksum.checksum b in
  Bu.set_u16 b 2 c0;
  (* change first word 0x0800 -> 0x0000 *)
  let c1 =
    Checksum.incremental_update ~old_checksum:c0 ~old_word:0x0800 ~new_word:0
  in
  Bu.set_u16 b 0 0;
  Bu.set_u16 b 2 0;
  let expected = Checksum.checksum b in
  check Alcotest.int "incremental = recomputed" expected c1

(* ---- addresses ---- *)

let test_addr_parse_print () =
  check Alcotest.string "roundtrip" "10.0.1.50" (Addr.to_string (a "10.0.1.50"));
  check Alcotest.string "extremes" "255.255.255.255" (Addr.to_string Addr.broadcast);
  check Alcotest.string "zero" "0.0.0.0" (Addr.to_string Addr.any)

let test_addr_parse_errors () =
  List.iter
    (fun bad ->
      match Addr.of_string bad with
      | Ok _ -> Alcotest.failf "%S accepted" bad
      | Error _ -> ())
    [ "256.0.0.1"; "1.2.3"; "a.b.c.d"; "1.2.3.4.5"; "" ]

let test_addr_multicast () =
  check Alcotest.bool "224.0.0.1" true (Addr.is_multicast (a "224.0.0.1"));
  check Alcotest.bool "239.255.0.1" true (Addr.is_multicast (a "239.255.0.1"));
  check Alcotest.bool "unicast" false (Addr.is_multicast (a "10.0.0.1"))

let test_prefix_membership () =
  let p = Addr.prefix_of_string_exn "10.0.1.0/24" in
  check Alcotest.bool "inside" true (Addr.mem (a "10.0.1.200") p);
  check Alcotest.bool "outside" false (Addr.mem (a "10.0.2.1") p);
  check Alcotest.bool "/0 matches all" true
    (Addr.mem (a "8.8.8.8") (Addr.prefix_of_string_exn "0.0.0.0/0"));
  check Alcotest.bool "/32 exact" true
    (Addr.mem (a "1.2.3.4") (Addr.prefix_of_string_exn "1.2.3.4/32"));
  check Alcotest.bool "/32 other" false
    (Addr.mem (a "1.2.3.5") (Addr.prefix_of_string_exn "1.2.3.4/32"))

(* ---- IPv4 ---- *)

let sample_ip payload =
  Ipv4.make ~protocol:Ipv4.protocol_icmp ~src:(a "10.0.1.50")
    ~dst:(a "192.168.2.10") ~payload_len:(Bytes.length payload) ()

let test_ipv4_roundtrip () =
  let payload = Bytes.of_string "hello world." in
  let hdr = sample_ip payload in
  let wire = Ipv4.encode hdr ~payload in
  match Ipv4.decode wire with
  | Ok (hdr', payload') ->
    check Alcotest.bool "headers equal" true
      (Ipv4.equal { hdr with Ipv4.header_checksum = hdr'.Ipv4.header_checksum } hdr');
    check Alcotest.bytes "payload" payload payload'
  | Error e -> faild e

let test_ipv4_checksum () =
  let wire = Ipv4.encode (sample_ip Bytes.empty) ~payload:Bytes.empty in
  check Alcotest.bool "valid checksum" true (Ipv4.checksum_ok wire);
  Bu.set_u8 wire 8 7 (* corrupt TTL *);
  check Alcotest.bool "corruption detected" false (Ipv4.checksum_ok wire)

let test_ipv4_truncation () =
  let wire = Ipv4.encode (sample_ip (Bytes.make 10 'x')) ~payload:(Bytes.make 10 'x') in
  match Ipv4.decode (Bytes.sub wire 0 24) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated datagram accepted"

let test_ipv4_bad_version () =
  let wire = Ipv4.encode (sample_ip Bytes.empty) ~payload:Bytes.empty in
  Bu.set_u8 wire 0 0x65 (* version 6 *);
  match Ipv4.decode wire with
  | Error e -> check Alcotest.bool "is a version error" true
      (match e with Sage_net.Decode_error.Bad_version _ -> true | _ -> false)
  | Ok _ -> Alcotest.fail "bad version accepted"

(* ---- ICMP ---- *)

let echo_msg =
  Icmp.Echo
    { Icmp.echo_code = 0; identifier = 0x1234; sequence = 7;
      payload = Bytes.of_string "payload-bytes!!!" }

let all_messages =
  let original =
    Ipv4.encode (sample_ip (Bytes.make 16 'q')) ~payload:(Bytes.make 16 'q')
  in
  let excerpt = Icmp.original_datagram_excerpt original in
  [
    echo_msg;
    Icmp.Echo_reply
      { Icmp.echo_code = 0; identifier = 0x1234; sequence = 7;
        payload = Bytes.of_string "payload-bytes!!!" };
    Icmp.Destination_unreachable { Icmp.err_code = 3; original = excerpt };
    Icmp.Source_quench { Icmp.err_code = 0; original = excerpt };
    Icmp.Redirect { Icmp.red_code = 1; gateway = a "10.0.1.1"; red_original = excerpt };
    Icmp.Time_exceeded { Icmp.err_code = 0; original = excerpt };
    Icmp.Parameter_problem { Icmp.pp_code = 0; pointer = 1; pp_original = excerpt };
    Icmp.Timestamp
      { Icmp.ts_code = 0; ts_identifier = 9; ts_sequence = 1;
        originate = 100l; receive = 0l; transmit = 0l };
    Icmp.Timestamp_reply
      { Icmp.ts_code = 0; ts_identifier = 9; ts_sequence = 1;
        originate = 100l; receive = 200l; transmit = 201l };
    Icmp.Information_request { Icmp.info_code = 0; info_identifier = 4; info_sequence = 2 };
    Icmp.Information_reply { Icmp.info_code = 0; info_identifier = 4; info_sequence = 2 };
  ]

let test_icmp_roundtrip_all_types () =
  List.iter
    (fun msg ->
      let wire = Icmp.encode msg in
      check Alcotest.bool
        (Printf.sprintf "checksum ok (type %d)" (Icmp.type_of msg))
        true (Icmp.checksum_ok wire);
      match Icmp.decode wire with
      | Ok msg' ->
        check Alcotest.bool
          (Printf.sprintf "roundtrip (type %d)" (Icmp.type_of msg))
          true (Icmp.equal msg msg')
      | Error e -> Alcotest.failf "type %d: %s" (Icmp.type_of msg) (Sage_net.Decode_error.to_string e))
    all_messages

let test_icmp_types () =
  check Alcotest.int "echo" 8 (Icmp.type_of echo_msg);
  check Alcotest.int "echo reply" 0 Icmp.type_echo_reply;
  check Alcotest.int "unreachable" 3 Icmp.type_destination_unreachable;
  check Alcotest.int "time exceeded" 11 Icmp.type_time_exceeded

let test_icmp_corruption_detected () =
  let wire = Icmp.encode echo_msg in
  Bu.set_u8 wire 6 99;
  check Alcotest.bool "bad checksum" false (Icmp.checksum_ok wire)

let test_icmp_truncated () =
  match Icmp.decode (Bytes.make 4 '\000') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated accepted"

let test_icmp_excerpt () =
  let payload = Bytes.make 100 'z' in
  let dgram = Ipv4.encode (sample_ip payload) ~payload in
  let excerpt = Icmp.original_datagram_excerpt dgram in
  check Alcotest.int "header + 64 bits" 28 (Bytes.length excerpt)

let test_icmp_excerpt_short_data () =
  let payload = Bytes.make 3 'z' in
  let dgram = Ipv4.encode (sample_ip payload) ~payload in
  check Alcotest.int "short data" 23
    (Bytes.length (Icmp.original_datagram_excerpt dgram))

(* ---- IPv4 fragmentation ---- *)

let test_fragment_reassemble () =
  let payload = Bytes.init 100 (fun i -> Char.chr (i land 0xff)) in
  let hdr = { (sample_ip payload) with Ipv4.identification = 77 } in
  let dgram = Ipv4.encode hdr ~payload in
  match Ipv4.fragment ~mtu:48 dgram with
  | Error e -> Alcotest.fail e
  | Ok frags ->
    check Alcotest.bool "several fragments" true (List.length frags > 1);
    List.iter
      (fun f ->
        check Alcotest.bool "within MTU" true (Bytes.length f <= 48);
        check Alcotest.bool "checksum ok" true (Ipv4.checksum_ok f))
      frags;
    (* last fragment has MF clear, others set *)
    let rec split_last = function
      | [] -> ([], None)
      | [ x ] -> ([], Some x)
      | x :: rest -> let init, last = split_last rest in (x :: init, last)
    in
    let init, last = split_last frags in
    List.iter
      (fun f ->
        match Ipv4.decode f with
        | Ok (h, _) ->
          check Alcotest.bool "MF set" true
            (h.Ipv4.flags land Ipv4.flag_more_fragments <> 0)
        | Error e -> faild e)
      init;
    (match Option.map Ipv4.decode last with
     | Some (Ok (h, _)) ->
       check Alcotest.int "MF clear on last" 0
         (h.Ipv4.flags land Ipv4.flag_more_fragments)
     | _ -> Alcotest.fail "no last fragment");
    (* reassembly in shuffled order restores the original *)
    let shuffled = List.rev frags in
    (match Ipv4.reassemble shuffled with
     | Ok whole -> check Alcotest.bytes "roundtrip" dgram whole
     | Error e -> Alcotest.fail e)

let test_fragment_df_refuses () =
  let payload = Bytes.make 100 'x' in
  let hdr = { (sample_ip payload) with Ipv4.flags = Ipv4.flag_dont_fragment } in
  let dgram = Ipv4.encode hdr ~payload in
  match Ipv4.fragment ~mtu:48 dgram with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "DF datagram fragmented"

let test_fragment_fits_untouched () =
  let payload = Bytes.make 10 'x' in
  let dgram = Ipv4.encode (sample_ip payload) ~payload in
  match Ipv4.fragment ~mtu:1500 dgram with
  | Ok [ same ] -> check Alcotest.bytes "unchanged" dgram same
  | Ok _ -> Alcotest.fail "split unnecessarily"
  | Error e -> Alcotest.fail e

let test_reassemble_detects_hole () =
  let payload = Bytes.make 100 'x' in
  let dgram = Ipv4.encode (sample_ip payload) ~payload in
  match Ipv4.fragment ~mtu:48 dgram with
  | Ok (_ :: rest) when rest <> [] ->
    (match Ipv4.reassemble rest with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "hole not detected")
  | _ -> Alcotest.fail "expected multiple fragments"

let test_reassemble_rejects_mixed () =
  let p = Bytes.make 64 'x' in
  let d1 = Ipv4.encode { (sample_ip p) with Ipv4.identification = 1 } ~payload:p in
  let d2 = Ipv4.encode { (sample_ip p) with Ipv4.identification = 2 } ~payload:p in
  match Ipv4.fragment ~mtu:48 d1, Ipv4.fragment ~mtu:48 d2 with
  | Ok (f1 :: _), Ok frags2 ->
    (match Ipv4.reassemble (f1 :: List.tl frags2) with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "mixed datagrams accepted")
  | _ -> Alcotest.fail "fragmentation failed"

(* ---- UDP ---- *)

let test_udp_roundtrip () =
  let payload = Bytes.of_string "udp payload" in
  let udp = Udp.make ~src_port:43210 ~dst_port:33434 ~payload_len:(Bytes.length payload) in
  let src = a "10.0.1.50" and dst = a "192.168.2.10" in
  let wire = Udp.encode ~src ~dst udp ~payload in
  check Alcotest.bool "checksum" true (Udp.checksum_ok ~src ~dst wire);
  match Udp.decode wire with
  | Ok (udp', payload') ->
    check Alcotest.int "src port" 43210 udp'.Udp.src_port;
    check Alcotest.int "dst port" 33434 udp'.Udp.dst_port;
    check Alcotest.bytes "payload" payload payload'
  | Error e -> faild e

let test_udp_zero_checksum_accepted () =
  let udp = Udp.make ~src_port:1 ~dst_port:2 ~payload_len:0 in
  let wire = Udp.encode udp ~payload:Bytes.empty in
  check Alcotest.bool "no checksum = ok" true
    (Udp.checksum_ok ~src:(a "1.1.1.1") ~dst:(a "2.2.2.2") wire)

let test_udp_corruption () =
  let payload = Bytes.of_string "corrupt me" in
  let udp = Udp.make ~src_port:5 ~dst_port:6 ~payload_len:(Bytes.length payload) in
  let src = a "10.0.1.50" and dst = a "192.168.2.10" in
  let wire = Udp.encode ~src ~dst udp ~payload in
  Bu.set_u8 wire 9 0xff;
  check Alcotest.bool "detected" false (Udp.checksum_ok ~src ~dst wire)

(* ---- IGMP ---- *)

let test_igmp_roundtrip () =
  List.iter
    (fun msg ->
      let wire = Igmp.encode msg in
      check Alcotest.bool "checksum" true (Igmp.checksum_ok wire);
      match Igmp.decode wire with
      | Ok msg' -> check Alcotest.bool "roundtrip" true (Igmp.equal msg msg')
      | Error e -> faild e)
    [ Igmp.query; Igmp.report (a "224.1.2.3") ]

let test_igmp_query_is_zero_group () =
  match Igmp.decode (Igmp.encode Igmp.query) with
  | Ok m -> check Alcotest.bool "group zero" true (Addr.equal m.Igmp.group Addr.any)
  | Error e -> faild e

let test_igmp_all_hosts () =
  check Alcotest.string "224.0.0.1" "224.0.0.1" (Addr.to_string Igmp.all_hosts_group)

(* ---- NTP ---- *)

let test_ntp_roundtrip () =
  let pkt =
    { Ntp.default with
      Ntp.leap_indicator = 1; stratum = 2; poll = -6; precision = -20;
      transmit_timestamp = 0x1234567890abcdefL }
  in
  let wire = Ntp.encode pkt in
  check Alcotest.int "48 bytes" 48 (Bytes.length wire);
  match Ntp.decode wire with
  | Ok pkt' -> check Alcotest.bool "roundtrip" true (Ntp.equal pkt pkt')
  | Error e -> faild e

let test_ntp_timestamp_conversion () =
  let secs = 3_900_000_123.5 in
  let ts = Ntp.timestamp_of_seconds secs in
  let back = Ntp.seconds_of_timestamp ts in
  check Alcotest.bool "within a microsecond" true (Float.abs (back -. secs) < 1e-6)

(* the default NTP packet in a UDP segment to port 123, checksummed
   over the pseudo-header *)
let ntp_segment ~src ~dst =
  let payload = Ntp.encode Ntp.default in
  let udp =
    Udp.make ~src_port:4444 ~dst_port:Ntp.ntp_port ~payload_len:(Bytes.length payload)
  in
  Udp.encode ~src ~dst udp ~payload

let test_ntp_encapsulation () =
  let src = a "10.0.1.50" and dst = a "192.168.2.10" in
  let segment = ntp_segment ~src ~dst in
  check Alcotest.bool "udp checksum" true (Udp.checksum_ok ~src ~dst segment);
  match Udp.decode segment with
  | Ok (udp, body) ->
    check Alcotest.int "port 123" 123 udp.Udp.dst_port;
    check Alcotest.int "ntp body" 48 (Bytes.length body)
  | Error e -> faild e

(* ---- BFD ---- *)

let test_bfd_packet_roundtrip () =
  let pkt =
    { Bfd.default_packet with
      Bfd.state = Bfd.Up; poll = true; demand = true;
      my_discriminator = 0xdeadbeefl; your_discriminator = 42l }
  in
  let wire = Bfd.encode pkt in
  check Alcotest.int "24 bytes" 24 (Bytes.length wire);
  match Bfd.decode wire with
  | Ok pkt' -> check Alcotest.bool "roundtrip" true (Bfd.equal_packet pkt pkt')
  | Error e -> faild e

let test_bfd_reject_multipoint () =
  let wire = Bfd.encode { Bfd.default_packet with Bfd.multipoint = true } in
  match Bfd.decode wire with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "multipoint accepted"

let test_bfd_state_machine_up () =
  let s = Bfd.new_session ~local_discr:7l in
  let p1 =
    { Bfd.default_packet with Bfd.my_discriminator = 9l; state = Bfd.Down }
  in
  (match Bfd.receive_control_packet s p1 with
   | `Ok -> () | `Discard r -> Alcotest.failf "discarded: %s" r);
  check Alcotest.string "Down+Down -> Init" "Init" (Bfd.state_name s.Bfd.session_state);
  let p2 =
    { Bfd.default_packet with
      Bfd.my_discriminator = 9l; your_discriminator = 7l; state = Bfd.Init }
  in
  (match Bfd.receive_control_packet s p2 with
   | `Ok -> () | `Discard r -> Alcotest.failf "discarded: %s" r);
  check Alcotest.string "Init+Init -> Up" "Up" (Bfd.state_name s.Bfd.session_state)

let test_bfd_discards () =
  let s = Bfd.new_session ~local_discr:7l in
  let zero_discr = { Bfd.default_packet with Bfd.my_discriminator = 0l } in
  (match Bfd.receive_control_packet s zero_discr with
   | `Discard _ -> () | `Ok -> Alcotest.fail "zero my-discr accepted");
  let wrong_yd =
    { Bfd.default_packet with
      Bfd.my_discriminator = 9l; your_discriminator = 99l; state = Bfd.Up }
  in
  match Bfd.receive_control_packet s wrong_yd with
  | `Discard _ -> () | `Ok -> Alcotest.fail "wrong your-discr accepted"

let test_bfd_demand_mode_ceases_tx () =
  let s = Bfd.new_session ~local_discr:7l in
  s.Bfd.session_state <- Bfd.Up;
  let p =
    { Bfd.default_packet with
      Bfd.my_discriminator = 9l; your_discriminator = 7l; state = Bfd.Up;
      demand = true }
  in
  (match Bfd.receive_control_packet s p with
   | `Ok -> () | `Discard r -> Alcotest.failf "discarded: %s" r);
  check Alcotest.bool "periodic tx ceased" false s.Bfd.periodic_tx_enabled

let test_bfd_vars () =
  let s = Bfd.new_session ~local_discr:5l in
  (match Bfd.set_var s "bfd.RemoteDiscr" 11l with
   | Ok () -> () | Error e -> Alcotest.fail e);
  (match Bfd.get_var s "bfd.RemoteDiscr" with
   | Ok v -> check Alcotest.int32 "set/get" 11l v
   | Error e -> Alcotest.fail e);
  match Bfd.get_var s "bfd.NoSuchVar" with
  | Error _ -> () | Ok _ -> Alcotest.fail "unknown var accepted"

(* ---- pcap + tcpdump ---- *)

let test_pcap_roundtrip () =
  let cap = Pcap.create () in
  let d1 = Ipv4.encode (sample_ip Bytes.empty) ~payload:Bytes.empty in
  let d2 = Ipv4.encode (sample_ip (Bytes.make 4 'a')) ~payload:(Bytes.make 4 'a') in
  Pcap.add_packet cap d1;
  Pcap.add_packet cap ~ts_sec:5l d2;
  check Alcotest.int "count" 2 (Pcap.packet_count cap);
  match Pcap.of_bytes (Pcap.to_bytes cap) with
  | Ok [ r1; r2 ] ->
    check Alcotest.bytes "first" d1 r1.Pcap.data;
    check Alcotest.bytes "second" d2 r2.Pcap.data;
    check Alcotest.int32 "timestamp" 5l r2.Pcap.ts_sec
  | Ok rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs)
  | Error e -> Alcotest.fail e

let test_pcap_snaplen_truncates () =
  let cap = Pcap.create ~snaplen:16 () in
  let big = Ipv4.encode (sample_ip (Bytes.make 64 'b')) ~payload:(Bytes.make 64 'b') in
  Pcap.add_packet cap big;
  match Pcap.of_bytes (Pcap.to_bytes cap) with
  | Ok [ r ] ->
    check Alcotest.int "captured" 16 r.Pcap.incl_len;
    check Alcotest.int "original" (Bytes.length big) r.Pcap.orig_len
  | _ -> Alcotest.fail "expected 1 record"

let test_tcpdump_clean_icmp () =
  let payload = Icmp.encode echo_msg in
  let dgram = Ipv4.encode (sample_ip payload) ~payload in
  let v = Tcpdump.inspect_datagram dgram in
  check Alcotest.(list string) "no warnings" [] v.Tcpdump.warnings;
  check Alcotest.bool "describes echo" true
    (Astring_contains.contains v.Tcpdump.description "echo request")

let test_tcpdump_warns_bad_icmp_checksum () =
  let payload = Icmp.encode echo_msg in
  Bu.set_u8 payload 5 0xaa;
  let dgram = Ipv4.encode (sample_ip payload) ~payload in
  let v = Tcpdump.inspect_datagram dgram in
  check Alcotest.bool "warns" true
    (List.exists (fun w -> w = "bad icmp cksum") v.Tcpdump.warnings)

let test_tcpdump_warns_truncation () =
  let cap = Pcap.create ~snaplen:20 () in
  let payload = Icmp.encode echo_msg in
  Pcap.add_packet cap (Ipv4.encode (sample_ip payload) ~payload);
  match Pcap.of_bytes (Pcap.to_bytes cap) with
  | Ok records ->
    let vs = Tcpdump.inspect_capture records in
    check Alcotest.bool "truncation warning" true
      (List.exists
         (fun v ->
           List.exists (fun w -> w = "packet truncated in capture") v.Tcpdump.warnings)
         vs)
  | Error e -> Alcotest.fail e

let test_tcpdump_ntp () =
  let src = a "10.0.1.50" and dst = a "192.168.2.10" in
  let segment = ntp_segment ~src ~dst in
  let hdr =
    Ipv4.make ~protocol:Ipv4.protocol_udp ~src ~dst
      ~payload_len:(Bytes.length segment) ()
  in
  let v = Tcpdump.inspect_datagram (Ipv4.encode hdr ~payload:segment) in
  check Alcotest.(list string) "clean" [] v.Tcpdump.warnings;
  check Alcotest.bool "mentions NTP" true
    (Astring_contains.contains v.Tcpdump.description "NTP")

(* ---- property tests ---- *)

let u16 = Q.int_range 0 0xffff

let prop_checksum_verify =
  Q.test ~count:200 "filled checksum always verifies" (Q.bytes_arb ~min_len:4 ~max_len:64 ())
    (fun b ->
      let b = Bytes.cat (Bytes.make 2 '\000') b in
      Bu.set_u16 b 0 (Checksum.checksum b);
      Checksum.verify b)

let prop_addr_roundtrip =
  Q.test ~count:200 "addr of_string/to_string"
    (Q.list_of ~min_len:4 ~max_len:4 (Q.int_range 0 255))
    (fun octets ->
      let s = String.concat "." (List.map string_of_int octets) in
      match Addr.of_string s with
      | Ok addr -> Addr.to_string addr = s
      | Error _ -> false)

let prop_ipv4_roundtrip =
  Q.test ~count:100 "ipv4 encode/decode" (Q.bytes_arb ~max_len:64 ()) (fun payload ->
      let hdr = sample_ip payload in
      match Ipv4.decode (Ipv4.encode hdr ~payload) with
      | Ok (_, payload') -> Bytes.equal payload payload'
      | Error _ -> false)

let prop_icmp_echo_roundtrip =
  Q.test ~count:100 "icmp echo encode/decode"
    Q.(pair (pair u16 u16) (bytes_arb ~max_len:64 ()))
    (fun ((id, seq), payload) ->
      let msg =
        Icmp.Echo { Icmp.echo_code = 0; identifier = id; sequence = seq; payload }
      in
      match Icmp.decode (Icmp.encode msg) with
      | Ok msg' -> Icmp.equal msg msg'
      | Error _ -> false)

let prop_fragment_roundtrip =
  Q.test ~count:100 "fragment/reassemble roundtrip"
    Q.(pair (int_range 44 120) (bytes_arb ~min_len:1 ~max_len:300 ()))
    (fun (mtu, payload) ->
      let dgram = Ipv4.encode (sample_ip payload) ~payload in
      match Ipv4.fragment ~mtu dgram with
      | Error _ -> true (* undersized MTU is allowed to fail *)
      | Ok frags ->
        (match Ipv4.reassemble frags with
         | Ok whole -> Bytes.equal whole dgram
         | Error _ -> false))

let prop_bfd_roundtrip =
  Q.test ~count:100 "bfd encode/decode" Q.(pair (int_range 0 3) (pair u16 u16))
    (fun (state_code, (my, your)) ->
      let state = Result.get_ok (Bfd.state_of_code state_code) in
      let pkt =
        { Bfd.default_packet with
          Bfd.state;
          my_discriminator = Int32.of_int my;
          your_discriminator = Int32.of_int your }
      in
      match Bfd.decode (Bfd.encode pkt) with
      | Ok pkt' -> Bfd.equal_packet pkt pkt'
      | Error _ -> false)

let suite =
  [
    tc "bytes_util roundtrip" test_bytes_util_roundtrip;
    tc "bytes_util big-endian" test_bytes_util_big_endian;
    tc "hex dump" test_hex;
    tc "checksum RFC1071 example" test_checksum_rfc1071_example;
    tc "checksum odd length" test_checksum_odd_length;
    tc "checksum verify" test_checksum_verify;
    tc "checksum range" test_checksum_range;
    tc "checksum bounds" test_checksum_out_of_bounds;
    tc "incremental update (RFC1624)" test_incremental_update_rfc1624;
    tc "addr parse/print" test_addr_parse_print;
    tc "addr parse errors" test_addr_parse_errors;
    tc "addr multicast" test_addr_multicast;
    tc "prefix membership" test_prefix_membership;
    tc "ipv4 roundtrip" test_ipv4_roundtrip;
    tc "ipv4 checksum" test_ipv4_checksum;
    tc "ipv4 truncation" test_ipv4_truncation;
    tc "ipv4 bad version" test_ipv4_bad_version;
    tc "icmp roundtrip all 11 types" test_icmp_roundtrip_all_types;
    tc "icmp type numbers" test_icmp_types;
    tc "icmp corruption detected" test_icmp_corruption_detected;
    tc "icmp truncated" test_icmp_truncated;
    tc "icmp original-datagram excerpt" test_icmp_excerpt;
    tc "icmp excerpt short data" test_icmp_excerpt_short_data;
    tc "ipv4 fragment/reassemble" test_fragment_reassemble;
    tc "ipv4 DF refuses fragmentation" test_fragment_df_refuses;
    tc "ipv4 small datagram untouched" test_fragment_fits_untouched;
    tc "ipv4 reassembly hole detection" test_reassemble_detects_hole;
    tc "ipv4 reassembly rejects mixed ids" test_reassemble_rejects_mixed;
    tc "udp roundtrip" test_udp_roundtrip;
    tc "udp zero checksum" test_udp_zero_checksum_accepted;
    tc "udp corruption" test_udp_corruption;
    tc "igmp roundtrip" test_igmp_roundtrip;
    tc "igmp query group zero" test_igmp_query_is_zero_group;
    tc "igmp all-hosts group" test_igmp_all_hosts;
    tc "ntp roundtrip" test_ntp_roundtrip;
    tc "ntp timestamp conversion" test_ntp_timestamp_conversion;
    tc "ntp udp encapsulation" test_ntp_encapsulation;
    tc "bfd packet roundtrip" test_bfd_packet_roundtrip;
    tc "bfd rejects multipoint" test_bfd_reject_multipoint;
    tc "bfd 3-state machine to Up" test_bfd_state_machine_up;
    tc "bfd reception discards" test_bfd_discards;
    tc "bfd demand mode ceases tx" test_bfd_demand_mode_ceases_tx;
    tc "bfd state variables" test_bfd_vars;
    tc "pcap roundtrip" test_pcap_roundtrip;
    tc "pcap snaplen truncates" test_pcap_snaplen_truncates;
    tc "tcpdump clean icmp" test_tcpdump_clean_icmp;
    tc "tcpdump bad icmp checksum" test_tcpdump_warns_bad_icmp_checksum;
    tc "tcpdump truncation warning" test_tcpdump_warns_truncation;
    tc "tcpdump ntp" test_tcpdump_ntp;
    prop_checksum_verify;
    prop_addr_roundtrip;
    prop_ipv4_roundtrip;
    prop_icmp_echo_roundtrip;
    prop_fragment_roundtrip;
    prop_bfd_roundtrip;
  ]
