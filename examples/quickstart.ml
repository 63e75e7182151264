(* Quickstart: the whole SAGE pipeline on a handful of sentences.

   Run with:  dune exec examples/quickstart.exe

   Shows the three stages of Figure 1 — semantic parsing, disambiguation,
   code generation — on sentences from the ICMP RFC, including one that
   stays ambiguous and must be rewritten by a human. *)

module P = Sage.Pipeline
module Lf = Sage_logic.Lf
module Winnow = Sage_disambig.Winnow

let () =
  let spec = P.icmp_spec () in

  print_endline "=== 1. An unambiguous sentence ===========================";
  let sentence = "For computing the checksum, the checksum field should be zero." in
  Printf.printf "sentence: %s\n" sentence;
  let report = P.analyze_sentence spec sentence in
  (match report.P.trace with
   | Some tr ->
     Printf.printf "winnowing: %s\n"
       (String.concat " -> "
          (List.map (fun (l, n) -> Printf.sprintf "%s=%d" l n)
             (Winnow.stage_counts tr)))
   | None -> ());
  (match report.P.status with
   | P.Parsed lf -> Printf.printf "logical form: %s\n" (Lf.to_string lf)
   | _ -> print_endline "unexpected status");

  print_endline "";
  print_endline "=== 2. A truly ambiguous sentence =========================";
  let ambiguous =
    "To form an echo reply message, the source and destination addresses \
     are simply reversed, the type code changed to 0, and the checksum \
     recomputed."
  in
  Printf.printf "sentence: %s\n" ambiguous;
  (match (P.analyze_sentence spec ambiguous).P.status with
   | P.Ambiguous lfs ->
     Printf.printf
       "%d logical forms survive winnowing — SAGE asks a human to rewrite\n\
        the sentence; comparing the survivors shows where the ambiguity is:\n"
       (List.length lfs);
     List.iteri (fun i lf -> Printf.printf "  [%d] %s\n" i (Lf.to_string lf)) lfs
   | _ -> print_endline "unexpected status");

  print_endline "";
  print_endline "=== 3. Code generation ====================================";
  let run = P.run_corpus (P.find_corpus "icmp-rw") in
  (match P.find_function run "icmp_echo_reply_receiver" with
   | Some f -> print_endline (Sage_codegen.C_printer.render_func f)
   | None -> print_endline "function not found");

  print_endline "";
  print_endline "=== 4. Interoperation =====================================";
  let stack = Sage_sim.Generated_stack.of_run run in
  let service = Sage_sim.Icmp_service.generated stack in
  let net = Sage_sim.Network.default_topology ~service () in
  let target = Sage_sim.Network.server1_addr net in
  let res = Sage_sim.Ping.ping ~net target in
  Printf.printf "ping %s through the generated router: %s (%d/%d replies)\n"
    (Sage_net.Addr.to_string target)
    (if Sage_sim.Ping.success res then "SUCCESS" else "FAILURE")
    res.Sage_sim.Ping.received res.Sage_sim.Ping.sent
