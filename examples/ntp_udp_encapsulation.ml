(* NTP-in-UDP (paper §6.3): parse RFC 1059 Appendices A and B, generate
   the NTP sender, and run it: its encapsulate_udp(123) call makes the
   static framework emit a full datagram with both NTP and UDP headers
   — "It generated packets for the timeout procedure containing both NTP
   and UDP headers."  The example decodes it layer by layer.

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

  (* build the datagram with generated code *)
  let stack = Gs.of_run run in
  let src = a "10.0.1.50" and dst = a "192.168.2.10" in
  let decoded what =
    Result.map_error (fun e ->
        Printf.sprintf "bad %s: %s" what (Sage_net.Decode_error.to_string e))
  in
  let layers =
    Result.bind (Gs.build_message ~src ~dst stack ~fn:"ntp_ntp_sender") (fun full ->
        Result.bind (decoded "IP datagram" (Ipv4.decode full)) (fun (_, segment) ->
            Result.bind (decoded "UDP datagram" (Udp.decode segment)) (fun (udp, payload) ->
                Result.map
                  (fun pkt -> (full, segment, udp, pkt))
                  (decoded "NTP message" (Ntp.decode payload)))))
  in
  match layers with
  | Error e -> Printf.printf "generation failed: %s\n" e
  | Ok (full, segment, udp, pkt) ->
    Printf.printf "\ngenerated datagram (%d bytes): IP + UDP + NTP\n" (Bytes.length full);
    Printf.printf "  first bytes: %s\n" (Bu.hex ~max:28 full);
    Printf.printf "  UDP: %s (checksum %s)\n"
      (Fmt.str "%a" Udp.pp udp)
      (if Udp.checksum_ok ~src ~dst segment then "valid" else "BAD");
    Printf.printf "  NTP: %s\n" (Fmt.str "%a" Ntp.pp pkt);
    Printf.printf "  transmit timestamp: %Ld (set from the clock)\n"
      pkt.Ntp.transmit_timestamp;
    let v = Sage_net.Tcpdump.inspect_datagram full in
    Printf.printf "  tcpdump: %s %s\n" v.Sage_net.Tcpdump.description
      (if Sage_net.Tcpdump.clean v then "[no warnings]" else "[WARNINGS]")
