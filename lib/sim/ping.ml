module Addr = Sage_net.Addr
module Ipv4 = Sage_net.Ipv4
module Icmp = Sage_net.Icmp
module Bu = Sage_net.Bytes_util

type failure =
  | Ip_header_wrong of string
  | Icmp_header_wrong of string
  | Byte_order_wrong of string
  | Payload_wrong of string
  | Length_wrong of string
  | Checksum_wrong of string

type reply_check = Ok_reply | No_reply of string | Bad_reply of failure list

let failure_label = function
  | Ip_header_wrong _ -> "IP header related"
  | Icmp_header_wrong _ -> "ICMP header related"
  | Byte_order_wrong _ -> "Network byte order and host byte order conversion"
  | Payload_wrong _ -> "Incorrect ICMP payload content"
  | Length_wrong _ -> "Incorrect echo reply packet length"
  | Checksum_wrong _ -> "Incorrect checksum or dropped by kernel"

type result = {
  target : Addr.t;
  sent : int;
  received : int;
  checks : reply_check list;
}

(* Linux ping payload: 8 timestamp-ish bytes then 0x10,0x11,0x12... *)
let make_payload len seq =
  let b = Bytes.make len '\000' in
  if len >= 8 then Bu.set_u64 b 0 (Int64.of_int (1_700_000_000 + seq));
  for i = 8 to len - 1 do
    Bu.set_u8 b i (0x10 + ((i - 8) land 0x3f))
  done;
  b

let swapped16 v = ((v land 0xff) lsl 8) lor ((v lsr 8) land 0xff)

let check_reply ~src ~target ~identifier ~seq ~payload reply =
  match Ipv4.decode reply with
  | Error e -> Bad_reply [ Ip_header_wrong (Sage_net.Decode_error.to_string e) ]
  | Ok (hdr, body) ->
    let failures = ref [] in
    let fail f = failures := f :: !failures in
    if not (Addr.equal hdr.Ipv4.dst src) then
      fail (Ip_header_wrong
              (Printf.sprintf "reply destination %s, expected %s"
                 (Addr.to_string hdr.Ipv4.dst) (Addr.to_string src)));
    if not (Addr.equal hdr.Ipv4.src target) then
      fail (Ip_header_wrong
              (Printf.sprintf "reply source %s, expected %s"
                 (Addr.to_string hdr.Ipv4.src) (Addr.to_string target)));
    if not (Ipv4.checksum_ok reply) then
      fail (Ip_header_wrong "bad IP header checksum");
    if hdr.Ipv4.protocol <> Ipv4.protocol_icmp then
      fail (Ip_header_wrong "reply is not ICMP");
    (* the kernel verifies the ICMP checksum before delivering to ping *)
    if not (Icmp.checksum_ok body) then
      fail (Checksum_wrong "ICMP checksum does not verify");
    if Bytes.length body >= 8 then begin
      let ty = Bu.get_u8 body 0
      and code = Bu.get_u8 body 1
      and rid = Bu.get_u16 body 4
      and rseq = Bu.get_u16 body 6 in
      if ty <> Icmp.type_echo_reply then
        fail (Icmp_header_wrong (Printf.sprintf "type %d, expected 0" ty));
      if code <> 0 then
        fail (Icmp_header_wrong (Printf.sprintf "code %d, expected 0" code));
      if rid <> identifier then
        if rid = swapped16 identifier && identifier <> swapped16 identifier then
          fail (Byte_order_wrong
                  (Printf.sprintf "identifier 0x%04x is byte-swapped" rid))
        else
          fail (Icmp_header_wrong
                  (Printf.sprintf "identifier %d, expected %d" rid identifier));
      if rseq <> seq then
        if rseq = swapped16 seq && seq <> swapped16 seq then
          fail (Byte_order_wrong
                  (Printf.sprintf "sequence 0x%04x is byte-swapped" rseq))
        else
          fail (Icmp_header_wrong
                  (Printf.sprintf "sequence %d, expected %d" rseq seq));
      let rdata = Bytes.sub body 8 (Bytes.length body - 8) in
      if Bytes.length rdata <> Bytes.length payload then
        fail (Length_wrong
                (Printf.sprintf "payload %d bytes, expected %d"
                   (Bytes.length rdata) (Bytes.length payload)))
      else if not (Bytes.equal rdata payload) then
        fail (Payload_wrong "echoed data differs from request data")
    end
    else fail (Length_wrong "reply shorter than an ICMP header");
    (match !failures with [] -> Ok_reply | fs -> Bad_reply (List.rev fs))

(* [retries] adds client-side resilience, like ping -W with a retrying
   wrapper: a probe that drew no reply is re-sent up to [retries] more
   times with {!Network.retry}'s exponential backoff on the wire clock.
   With [retries = 0] (the default) the behaviour is exactly the
   historical single-attempt one. *)
let ping ?(count = 3) ?(identifier = 0x2327) ?(payload_len = 56) ?(retries = 0)
    ~net target =
  let src = Network.client_addr net in
  let checks = ref [] in
  let received = ref 0 in
  for seq = 1 to count do
    let payload = make_payload payload_len seq in
    let request =
      Icmp.encode
        (Icmp.Echo { Icmp.echo_code = 0; identifier; sequence = seq; payload })
    in
    let hdr =
      Ipv4.make ~protocol:Ipv4.protocol_icmp ~src ~dst:target
        ~payload_len:(Bytes.length request) ()
    in
    let dgram = Ipv4.encode hdr ~payload:request in
    let attempt_once attempt =
      Sage_trace.Trace.with_span ~cat:"sim"
        ~args:
          [ ("seq", Sage_trace.Trace.Int seq);
            ("attempt", Sage_trace.Trace.Int attempt) ]
        (Network.trace net) "ping-probe"
      @@ fun () ->
      match Network.send net ~from:src dgram with
      | Network.Replied reply ->
        `Got (check_reply ~src ~target ~identifier ~seq ~payload reply)
      | Network.Icmp_response err ->
        `Lost
          (match Ipv4.decode err with
           | Ok (_, body) when Bytes.length body > 0 ->
             No_reply
               (Printf.sprintf "ICMP error type %d instead of echo reply"
                  (Bu.get_u8 body 0))
           | _ -> No_reply "ICMP error instead of echo reply")
      | Network.Delivered _ -> `Lost (No_reply "destination swallowed the request")
      | Network.Dropped reason -> `Lost (No_reply ("dropped: " ^ reason))
    in
    let check =
      match
        Network.retry net ~retries
          ~answered:(function `Got _ -> true | `Lost _ -> false)
          attempt_once
      with
      | `Got check ->
        incr received;
        check
      | `Lost check -> check
    in
    checks := check :: !checks
  done;
  { target; sent = count; received = !received; checks = List.rev !checks }

let lost r = r.sent - r.received
let loss_rate r = if r.sent = 0 then 0.0 else 100.0 *. float_of_int (lost r) /. float_of_int r.sent

let success r =
  r.sent = r.received
  && List.for_all (function Ok_reply -> true | _ -> false) r.checks

let failures r =
  List.concat_map (function Bad_reply fs -> fs | Ok_reply | No_reply _ -> []) r.checks
