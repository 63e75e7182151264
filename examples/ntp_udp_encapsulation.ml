(* NTP-in-UDP (paper §6.3): parse RFC 1059 Appendices A and B, generate
   the NTP sender, and emit a full datagram with both NTP and UDP headers
   — "It generated packets for the timeout procedure containing both NTP
   and UDP headers."

   Run with:  dune exec examples/ntp_udp_encapsulation.exe *)

module P = Sage.Pipeline
module Gs = Sage_sim.Generated_stack
module Addr = Sage_net.Addr
module Ipv4 = Sage_net.Ipv4
module Udp = Sage_net.Udp
module Ntp = Sage_net.Ntp
module Bu = Sage_net.Bytes_util

let a = Addr.of_string_exn

let () =
  print_endline "Parsing RFC 1059 Appendices A and B...";
  let run = P.run_corpus (P.find_corpus "ntp") in
  Printf.printf "  %d sentences, %d parsed\n\n"
    (List.length run.P.sentences)
    (List.length (P.parsed_sentences run));

  print_endline "Generated sender:";
  (match P.find_function run "ntp_ntp_sender" with
   | Some f -> print_endline (Sage_codegen.C_printer.render_func f)
   | None -> print_endline "  (missing!)");

  (* build the NTP message with generated code *)
  let stack = Gs.of_run run in
  let src = a "10.0.1.50" and dst = a "192.168.2.10" in
  match Gs.build_message ~src ~dst stack ~fn:"ntp_ntp_sender" with
  | Error e -> Printf.printf "generation failed: %s\n" e
  | Ok dgram ->
    (match Ipv4.decode dgram with
     | Error e -> Printf.printf "bad datagram: %s\n" (Sage_net.Decode_error.to_string e)
     | Ok (_, ntp_bytes) ->
       (match Ntp.decode ntp_bytes with
        | Error e -> Printf.printf "bad NTP message: %s\n" (Sage_net.Decode_error.to_string e)
        | Ok pkt ->
          Printf.printf "\ngenerated NTP message: %s\n"
            (Fmt.str "%a" Ntp.pp pkt);
          Printf.printf "  transmit timestamp  : %Ld (set from the clock)\n"
            pkt.Ntp.transmit_timestamp;
          (* the Appendix A sentences direct UDP encapsulation on port 123;
             the static framework performs it *)
          let segment = Ntp.encapsulate ~src ~dst ~src_port:123 pkt in
          let full =
            Ipv4.encode
              (Ipv4.make ~protocol:Ipv4.protocol_udp ~src ~dst
                 ~payload_len:(Bytes.length segment) ())
              ~payload:segment
          in
          Printf.printf "\nfull datagram (%d bytes): IP + UDP + NTP\n"
            (Bytes.length full);
          Printf.printf "  first bytes: %s\n" (Bu.hex ~max:28 full);
          (match Udp.decode segment with
           | Ok (udp, _) ->
             Printf.printf "  UDP: %s (checksum %s)\n"
               (Fmt.str "%a" Udp.pp udp)
               (if Udp.checksum_ok ~src ~dst segment then "valid" else "BAD")
           | Error e -> Printf.printf "  UDP decode failed: %s\n" (Sage_net.Decode_error.to_string e));
          let v = Sage_net.Tcpdump.inspect_datagram full in
          Printf.printf "  tcpdump: %s %s\n" v.Sage_net.Tcpdump.description
            (if Sage_net.Tcpdump.clean v then "[no warnings]" else "[WARNINGS]")))
