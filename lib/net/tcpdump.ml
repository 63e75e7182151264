type verdict = { description : string; warnings : string list }

let icmp_verdict ~src ~dst payload =
  let warnings = ref [] in
  let warn w = warnings := w :: !warnings in
  if not (Icmp.checksum_ok payload) then warn "bad icmp cksum";
  let description =
    match Icmp.decode payload with
    | Ok msg -> Fmt.str "IP %a > %a: %a" Addr.pp src Addr.pp dst Icmp.pp msg
    | Error e ->
      warn (Decode_error.to_string e);
      Fmt.str "IP %a > %a: ICMP (undecodable)" Addr.pp src Addr.pp dst
  in
  (description, !warnings)

let igmp_verdict ~src ~dst payload =
  let warnings = ref [] in
  let warn w = warnings := w :: !warnings in
  if not (Igmp.checksum_ok payload) then warn "bad igmp cksum";
  let description =
    match Igmp.decode payload with
    | Ok msg -> Fmt.str "IP %a > %a: %a" Addr.pp src Addr.pp dst Igmp.pp msg
    | Error e ->
      warn (Decode_error.to_string e);
      Fmt.str "IP %a > %a: IGMP (undecodable)" Addr.pp src Addr.pp dst
  in
  (description, !warnings)

let udp_verdict ~src ~dst payload =
  let warnings = ref [] in
  let warn w = warnings := w :: !warnings in
  if not (Udp.checksum_ok ~src ~dst payload) then warn "bad udp cksum";
  let description =
    match Udp.decode payload with
    | Error e ->
      warn (Decode_error.to_string e);
      Fmt.str "IP %a > %a: UDP (undecodable)" Addr.pp src Addr.pp dst
    | Ok (udp, body) ->
      if udp.Udp.dst_port = Ntp.ntp_port || udp.Udp.src_port = Ntp.ntp_port then
        match Ntp.decode body with
        | Ok ntp ->
          Fmt.str "IP %a > %a: %a, %a" Addr.pp src Addr.pp dst Udp.pp udp Ntp.pp ntp
        | Error e ->
          warn (Decode_error.to_string e);
          Fmt.str "IP %a > %a: %a, NTP (undecodable)" Addr.pp src Addr.pp dst
            Udp.pp udp
      else if udp.Udp.dst_port = 3784 || udp.Udp.src_port = 3784 then
        match Bfd.decode body with
        | Ok bfd ->
          Fmt.str "IP %a > %a: %a, %a" Addr.pp src Addr.pp dst Udp.pp udp
            Bfd.pp_packet bfd
        | Error e ->
          warn (Decode_error.to_string e);
          Fmt.str "IP %a > %a: %a, BFD (undecodable)" Addr.pp src Addr.pp dst
            Udp.pp udp
      else Fmt.str "IP %a > %a: %a" Addr.pp src Addr.pp dst Udp.pp udp
  in
  (description, !warnings)

let inspect_datagram data =
  match Ipv4.decode data with
  | Error e ->
    { description = "IP (undecodable)"; warnings = [ Decode_error.to_string e ] }
  | Ok (ip, payload) ->
    let base_warnings = if Ipv4.checksum_ok data then [] else [ "bad ip cksum" ] in
    let src = ip.Ipv4.src and dst = ip.Ipv4.dst in
    if
      ip.Ipv4.fragment_offset > 0
      || ip.Ipv4.flags land Ipv4.flag_more_fragments <> 0
    then
      (* a fragment: the payload is not a complete protocol message *)
      {
        description =
          Fmt.str "IP %a > %a: frag offset %d%s, length %d, proto %d" Addr.pp
            src Addr.pp dst
            (ip.Ipv4.fragment_offset * 8)
            (if ip.Ipv4.flags land Ipv4.flag_more_fragments <> 0 then "+" else "")
            ip.Ipv4.total_length ip.Ipv4.protocol;
        warnings = base_warnings;
      }
    else
    let description, proto_warnings =
      if ip.Ipv4.protocol = Ipv4.protocol_icmp then icmp_verdict ~src ~dst payload
      else if ip.Ipv4.protocol = Ipv4.protocol_igmp then igmp_verdict ~src ~dst payload
      else if ip.Ipv4.protocol = Ipv4.protocol_udp then udp_verdict ~src ~dst payload
      else
        ( Fmt.str "IP %a > %a: protocol %d, length %d" Addr.pp src Addr.pp dst
            ip.Ipv4.protocol ip.Ipv4.total_length,
          [] )
    in
    { description; warnings = base_warnings @ List.rev proto_warnings }

let inspect_record (r : Pcap.record) =
  let v = inspect_datagram r.Pcap.data in
  if r.Pcap.incl_len < r.Pcap.orig_len then
    { v with warnings = "packet truncated in capture" :: v.warnings }
  else v

let inspect_capture records = List.map inspect_record records

let inspect_capture_bytes b =
  Result.map inspect_capture (Pcap.of_bytes b)

let clean v = v.warnings = []
