(* ping-small / ping-large: one op is one [Ping.ping ~count:1] from the
   client to server1 across the appendix topology, whose nodes answer
   echo requests with the SAGE-generated ICMP service built from the
   rewritten RFC 792 text, on the library's default backend.  The
   output oracle is the Linux-faithful client's own reply check:
   [Ping.success] with exactly one reply received.

   Payload sizes are documented defaults, not a traffic mix: ping-small
   sends Linux ping's (and [Ping.ping]'s) default 56 B, ping-large the
   largest payload an unfragmented echo carries on the topology's
   1500 B MTU, 1500 - 20 (IPv4) - 8 (ICMP) = 1472 B, as
   [ping -s 1472 -M do] sends.  The seed draws the client's ICMP
   identifier once, as Linux ping takes it from its process id. *)

module P = Sage.Pipeline
module Network = Sage_sim.Network
module Ping = Sage_sim.Ping
module Icmp_service = Sage_sim.Icmp_service
module Ipv4 = Sage_net.Ipv4
module Icmp = Sage_net.Icmp

let instance ~payload_len ~seed =
  let run =
    P.run_document (P.icmp_spec ()) ~title:Sage_corpus.Icmp_rfc.title
      ~text:Sage_corpus.Icmp_rfc.rewritten_text
  in
  let svc = Icmp_service.generated (Sage_sim.Generated_stack.of_run run) in
  (* tracing state: the recorder and the current [sim.ping] span, and
     the last echo request/reply pair the generated stack handled *)
  let tracing = ref None and exchange = ref None in
  let echo_reply ~request =
    match !tracing with
    | None -> svc.Icmp_service.echo_reply ~request
    | Some (t, parent) ->
      let id = Span.enter t ~parent "sim.generated_stack" in
      let r = svc.Icmp_service.echo_reply ~request in
      Span.leave t id;
      (match r with Ok (Some reply) -> exchange := Some (request, reply) | _ -> ());
      r
  in
  let service = { svc with Icmp_service.echo_reply } in
  let net = ref (Network.default_topology ~service ()) in
  (* a fresh topology every 256 probes bounds the packet capture *)
  let before i = if i land 255 = 0 then net := Network.default_topology ~service () in
  let identifier = Random.State.int (Random.State.make [| seed |]) 0x10000 in
  let traced_ops = ref 0 and replies_ok = ref 0 and last_ping = ref (-1) in
  let op tr _ =
    let ping () =
      Ping.ping ~count:1 ~identifier ~payload_len ~net:!net (Network.server1_addr !net)
    in
    let r =
      match tr with
      | None -> ping ()
      | Some t ->
        let id = Span.enter t ~parent:(Span.root t) "sim.ping" in
        tracing := Some (t, id);
        exchange := None;
        let r = Fun.protect ~finally:(fun () -> tracing := None) ping in
        Span.leave t id;
        last_ping := id;
        incr traced_ops;
        r
    in
    let ok = r.Ping.received = 1 && Ping.success r in
    if ok && Option.is_some tr then incr replies_ok;
    ok
  in
  (* the wire codecs on the op's own bytes, in the calls the request
     and reply make: the client encodes the request (ICMP, then IP),
     the router re-encodes it to forward; the request is decoded on
     ingress, twice by the router and once by the host, the reply once
     by the client, which also verifies both of its checksums *)
  let replay t =
    match !exchange with
    | None -> [ "ping: the generated stack answered no echo request" ]
    | Some (request, reply) ->
      (match Ipv4.decode request, Ipv4.decode reply with
       | Ok (hdr, body), Ok (_, reply_body) ->
         (match Icmp.decode body with
          | Error _ -> [ "ping: the echo request does not decode" ]
          | Ok msg ->
            let parent = !last_ping in
            let timed ~calls name f =
              let id = Span.enter t ~parent name in
              f ();
              Span.leave ~calls t id
            in
            timed ~calls:3 "net.encode" (fun () ->
                ignore (Sys.opaque_identity (Ipv4.encode hdr ~payload:(Icmp.encode msg)));
                ignore (Sys.opaque_identity (Ipv4.encode hdr ~payload:body)));
            timed ~calls:5 "net.decode" (fun () ->
                for _ = 1 to 4 do
                  ignore (Sys.opaque_identity (Ipv4.decode request))
                done;
                ignore (Sys.opaque_identity (Ipv4.decode reply)));
            timed ~calls:2 "net.checksum" (fun () ->
                ignore (Sys.opaque_identity (Ipv4.checksum_ok reply));
                ignore (Sys.opaque_identity (Icmp.checksum_ok reply_body)));
            [])
       | _ -> [ "ping: the echo exchange does not decode" ])
  in
  let counts () = [ ("sim.reply_ok_ratio", (!replies_ok, !traced_ops)) ] in
  { Workload.warmup = 1000; before; op; replay; counts }

let small =
  { Workload.name = "ping-small";
    setup = (fun ~root:_ ~seed -> instance ~payload_len:56 ~seed) }

let large =
  { Workload.name = "ping-large";
    setup = (fun ~root:_ ~seed -> instance ~payload_len:1472 ~seed) }
