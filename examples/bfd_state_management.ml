(* BFD state management (paper §6.4): parse RFC 5880 §6.8.6, generate the
   reception procedure, and drive a session from Down to Up with generated
   code — cross-checked against the hand-written reference implementation.

   Run with:  dune exec examples/bfd_state_management.exe *)

module P = Sage.Pipeline
module Gs = Sage_sim.Generated_stack
module Bfd = Sage_net.Bfd

let state_name code =
  match Bfd.state_of_code (Int64.to_int code) with
  | Ok s -> Bfd.state_name s
  | Error _ -> "?"

let () =
  print_endline "Parsing RFC 5880 6.8.6 (rewritten per Table 5)...";
  let run = P.run_corpus (P.find_corpus "bfd-rw") in
  Printf.printf "  %d sentences, %d parsed, %d ambiguous\n\n"
    (List.length run.P.sentences)
    (List.length (P.parsed_sentences run))
    (List.length (P.ambiguous_sentences run));

  print_endline "Generated reception procedure:";
  (match P.find_function run "bfd_reception_of_bfd_control_packets_sender" with
   | Some f -> print_endline (Sage_codegen.C_printer.render_func f)
   | None -> print_endline "  (missing!)");

  let stack = Gs.of_run run in
  let fn = "bfd_reception_of_bfd_control_packets_sender" in

  (* the remote end's control packets as the session comes up *)
  let remote state =
    { Bfd.default_packet with
      Bfd.my_discriminator = 99l; your_discriminator = 7l; state }
  in
  let remote_initial =
    { Bfd.default_packet with
      Bfd.my_discriminator = 99l; your_discriminator = 0l; state = Bfd.Down }
  in

  print_endline "\nDriving a session Down -> Init -> Up with generated code:";
  let state = ref [ ("bfd.SessionState", 1L); ("bfd.LocalDiscr", 7L) ] in
  let reference = Bfd.new_session ~local_discr:7l in
  List.iter
    (fun (label, pkt) ->
      (match Gs.run_state_update ~state:!state stack ~fn ~packet:(Bfd.encode pkt) with
       | Ok (bindings, discarded) ->
         state := bindings;
         let session =
           Option.value ~default:0L (List.assoc_opt "bfd.SessionState" bindings)
         in
         (* reference implementation in lockstep *)
         ignore (Bfd.receive_control_packet reference pkt);
         let ref_state = Bfd.state_code reference.Bfd.session_state in
         Printf.printf "  %-28s generated: %-5s  reference: %-5s  %s%s\n" label
           (state_name session)
           (Bfd.state_name reference.Bfd.session_state)
           (if Int64.to_int session = ref_state then "[agree]" else "[DISAGREE]")
           (if discarded then " (packet discarded)" else "")
       | Error e -> Printf.printf "  %-28s FAILED: %s\n" label e))
    [
      ("remote Down (no discr yet)", remote_initial);
      ("remote Init", remote Bfd.Init);
      ("remote Up", remote Bfd.Up);
      ("remote Down (session drop)", remote Bfd.Down);
    ];

  print_endline "\nValidation rules (generated code discards bad packets):";
  let bad_version =
    let wire = Bfd.encode (remote Bfd.Up) in
    Sage_net.Bytes_util.set_u8 wire 0 ((2 lsl 5) lor 0);
    wire
  in
  (match Gs.run_state_update ~state:!state stack ~fn ~packet:bad_version with
   | Ok (_, discarded) ->
     Printf.printf "  version 2 packet   : %s\n"
       (if discarded then "discarded (correct)" else "ACCEPTED (wrong)")
   | Error e -> Printf.printf "  version 2 packet   : error %s\n" e);
  let zero_discr =
    Bfd.encode { (remote Bfd.Up) with Bfd.my_discriminator = 0l }
  in
  match Gs.run_state_update ~state:!state stack ~fn ~packet:zero_discr with
  | Ok (_, discarded) ->
    Printf.printf "  zero discriminator : %s\n"
      (if discarded then "discarded (correct)" else "ACCEPTED (wrong)")
  | Error e -> Printf.printf "  zero discriminator : error %s\n" e
