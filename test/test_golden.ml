(* Golden tests: exact winnowed logical forms for the load-bearing corpus
   sentences, pinning the parser + winnower behaviour end to end, plus
   winnowing set-properties and a randomized interoperation property. *)

module P = Sage.Pipeline
module Lf = Sage_logic.Lf
module Winnow = Sage_disambig.Winnow
module Parser = Sage_ccg.Parser
module Checks = Sage_disambig.Checks
module Q = Qcheck_lite

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let icmp = lazy (P.icmp_spec ())
let bfd = lazy (P.bfd_spec ())
let ntp = lazy (P.ntp_spec ())

let golden ?field spec_lazy sentence expected =
  let spec = Lazy.force spec_lazy in
  let r = P.analyze_sentence spec ?field sentence in
  match r.P.status with
  | P.Parsed lf | P.Subject_supplied lf ->
    check Alcotest.string sentence expected (Lf.to_string lf)
  | P.Zero_lf -> Alcotest.failf "zero LFs: %s" sentence
  | P.Ambiguous lfs -> Alcotest.failf "%d survivors: %s" (List.length lfs) sentence
  | P.Annotated_non_actionable -> Alcotest.failf "annotated: %s" sentence
  | P.Crashed e -> Alcotest.failf "crashed (%s): %s" e sentence

(* ---- ICMP golden forms ---- *)

let test_golden_checksum_h () =
  golden icmp
    "The checksum is the 16-bit one's complement of the one's complement \
     sum of the ICMP message starting with the ICMP type."
    "@Is('checksum', @Of('16-bit one\\'s complement', @Of('one\\'s \
     complement sum', @StartAt('icmp message', 'icmp type'))))"

let test_golden_advice () =
  golden icmp "For computing the checksum, the checksum field should be zero."
    "@AdvBefore(@Compute('checksum'), @Must(@Is('checksum field', 0)))"

let test_golden_identifier () =
  golden icmp
    "If code = 0, an identifier to aid in matching echos and replies, may \
     be zero."
    "@If(@Cmp('eq', 'code', 0), @May(@Is(@Purpose('identifier', \
     @Action(\"aid\", 'identifier', @Match(@And('echos', 'replies')))), 0)))"

let test_golden_rewritten_identifier () =
  golden icmp "If code = 0, the identifier in the echo message may be zero."
    "@If(@Cmp('eq', 'code', 0), @May(@Is(@In('identifier', 'echo message'), 0)))"

let test_golden_exchange () =
  golden icmp
    "To form an echo reply message, the source address is exchanged with \
     the destination address."
    "@Goal(@Action(\"form\", 'it', 'echo reply message'), @Action(\"swap\", \
     'source address', 'destination address'))"

let test_golden_addressing () =
  golden icmp
    "The address of the source in an echo message will be the destination \
     of the echo reply message."
    "@Is(@In(@Of('address', 'source'), 'echo message'), @Of('destination', \
     'echo reply message'))"

let test_golden_data_excerpt () =
  golden ~field:"Internet Header + 64 bits of Original Data Datagram" icmp
    "The internet header plus the first 64 bits of the original datagram's \
     data."
    "@Is('internet header + 64 bits of original data datagram', \
     @Plus('internet header', @Of('first 64 bits', 'original datagram\\'s \
     data')))"

let test_golden_ttl_discard () =
  golden icmp
    "If the time to live field is zero, the gateway must discard the \
     datagram."
    "@If(@Cmp('eq', 'time to live field', 0), @Must(@Discard('datagram')))"

(* ---- BFD golden forms ---- *)

let test_golden_bfd_version () =
  golden bfd "If the version number is not 1, the packet MUST be discarded."
    "@If(@Cmp('eq', 'version number', @Not(1)), @Must(@Discard('packet')))"

let test_golden_bfd_state_update () =
  golden bfd
    "If bfd.SessionState is Down and the Sta field is Down, \
     bfd.SessionState is set to Init."
    "@If(@And(@Cmp('eq', 'bfd.sessionstate', 'Down'), @Cmp('eq', 'sta \
     field', 'Down')), @Set('bfd.sessionstate', 'Init'))"

let test_golden_bfd_copy () =
  golden bfd "bfd.RemoteDiscr is set to the My Discriminator field."
    "@Set('bfd.remotediscr', 'my discriminator field')"

(* ---- IGMP / TCP / BGP golden forms ---- *)

let igmp = lazy (P.igmp_spec ())
let tcp = lazy (P.tcp_spec ())
let bgp = lazy (P.bgp_spec ())

let test_golden_igmp_query_dest () =
  golden igmp
    "The host membership query message is sent to the all-hosts group."
    "@Send('it', 'host membership query message', 'all-hosts group')"

let test_golden_igmp_group_zero () =
  golden igmp
    "The group address field in the host membership query message is zero."
    "@Is(@In('group address field', 'host membership query message'), 0)"

let test_golden_tcp_urgent () =
  golden tcp "If the urg bit is zero, the urgent pointer field is zero."
    "@If(@Cmp('eq', 'urg bit', 0), @Is('urgent pointer field', 0))"

let test_golden_bgp_manualstart () =
  golden bgp "If the ManualStart event occurs, the state is changed to Connect."
    "@If(@Event(\"occur\", 'manualstart event'), @Set('state', 'connect'))"

(* ---- NTP golden form (Table 11) ---- *)

let test_golden_ntp_timer () =
  golden ntp "If peer.timer expires, the timeout procedure is called."
    "@If(@Event(\"expire\", 'peer.timer'), @Call('timeout procedure'))"

(* ---- winnowing set properties ---- *)

let arbitrary_lfs = Q.list_of ~max_len:8 Q.lf

let prop_winnow_survivors_from_base =
  Q.test ~count:150 "winnow survivors come from the normalized base" arbitrary_lfs
    (fun lfs ->
      let tr = Winnow.winnow lfs in
      let base = Lf.dedup (List.map Checks.normalize_condition lfs) in
      List.for_all
        (fun s -> List.exists (Lf.equal s) base)
        tr.Winnow.survivors)

let prop_winnow_idempotent =
  Q.test ~count:150 "winnowing survivors again is a no-op" arbitrary_lfs (fun lfs ->
      let tr = Winnow.winnow lfs in
      let tr2 = Winnow.winnow tr.Winnow.survivors in
      List.length tr2.Winnow.survivors = List.length tr.Winnow.survivors)

let prop_winnow_stage_counts_monotone =
  Q.test ~count:150 "stage counts never increase" arbitrary_lfs (fun lfs ->
      let tr = Winnow.winnow lfs in
      let counts = List.map snd (Winnow.stage_counts tr) in
      let rec mono = function
        | a :: (b :: _ as rest) -> a >= b && mono rest
        | _ -> true
      in
      mono counts)

(* ---- randomized interop: generated echo replies satisfy ping for any
   identifier / sequence / payload ---- *)

let icmp_stack =
  lazy
    (Sage_sim.Generated_stack.of_run
       (Corpus_runs.run_of (P.find_corpus "icmp-rw")))

let prop_generated_echo_reply_interoperates =
  Q.test ~count:60 "generated echo reply passes ping checks"
    Q.(pair (pair (int_range 0 0xffff) (int_range 0 0xffff)) (bytes_arb ~max_len:64 ()))
    (fun ((id, seq), payload) ->
      let module Addr = Sage_net.Addr in
      let module Ipv4 = Sage_net.Ipv4 in
      let module Icmp = Sage_net.Icmp in
      let src = Addr.of_string_exn "10.0.1.50"
      and dst = Addr.of_string_exn "192.168.2.10" in
      let req =
        Icmp.encode
          (Icmp.Echo
             { Icmp.echo_code = 0; identifier = id; sequence = seq; payload })
      in
      let dgram =
        Ipv4.encode
          (Ipv4.make ~protocol:Ipv4.protocol_icmp ~src ~dst
             ~payload_len:(Bytes.length req) ())
          ~payload:req
      in
      match
        Sage_sim.Generated_stack.process_request (Lazy.force icmp_stack)
          ~fn:"icmp_echo_reply_receiver" ~request:dgram
      with
      | Ok (Some reply) ->
        (match Ipv4.decode reply with
         | Ok (rh, body) ->
           Addr.equal rh.Ipv4.src dst && Addr.equal rh.Ipv4.dst src
           && Icmp.checksum_ok body
           && Bytes.length body >= 8
           && Char.code (Bytes.get body 0) = 0
           && Sage_net.Bytes_util.get_u16 body 4 = id
           && Sage_net.Bytes_util.get_u16 body 6 = seq
           && Bytes.equal (Bytes.sub body 8 (Bytes.length body - 8)) payload
         | Error _ -> false)
      | Ok None | Error _ -> false)

let suite =
  [
    tc "golden: checksum sentence H" test_golden_checksum_h;
    tc "golden: advice (Fig 2)" test_golden_advice;
    tc "golden: identifier sentence E" test_golden_identifier;
    tc "golden: rewritten identifier" test_golden_rewritten_identifier;
    tc "golden: address exchange" test_golden_exchange;
    tc "golden: addressing" test_golden_addressing;
    tc "golden: data excerpt (B)" test_golden_data_excerpt;
    tc "golden: TTL discard" test_golden_ttl_discard;
    tc "golden: BFD version check" test_golden_bfd_version;
    tc "golden: BFD state update" test_golden_bfd_state_update;
    tc "golden: BFD remote copy" test_golden_bfd_copy;
    tc "golden: NTP timer (Table 11)" test_golden_ntp_timer;
    tc "golden: IGMP query destination" test_golden_igmp_query_dest;
    tc "golden: IGMP query group zero" test_golden_igmp_group_zero;
    tc "golden: TCP urgent pointer" test_golden_tcp_urgent;
    tc "golden: BGP ManualStart" test_golden_bgp_manualstart;
    prop_winnow_survivors_from_base;
    prop_winnow_idempotent;
    prop_winnow_stage_counts_monotone;
    prop_generated_echo_reply_interoperates;
  ]
