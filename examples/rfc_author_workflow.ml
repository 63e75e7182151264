(* The spec author's feedback loop (paper Figure 4):

     run SAGE -> read the rewrite worklist -> rewrite -> run again ->
     unit-test the generated code -> fix under-specification -> ship.

   This example walks RFC 792 through the loop: the first pass flags the
   truly ambiguous and unparseable sentences; the rewritten spec passes;
   unit testing (ping) then exposes the under-specified identifier
   behavior of the ORIGINAL text, which the rewrite also fixed.

   Run with:  dune exec examples/rfc_author_workflow.exe *)

module P = Sage.Pipeline

let hr () =
  print_endline "----------------------------------------------------------------"

let () =
  hr ();
  print_endline "PASS 1: the original RFC 792 text";
  hr ();
  let pass1 = P.run_corpus (P.find_corpus "icmp") in
  print_endline (Sage.Report.summary pass1);
  print_newline ();
  print_string (Sage.Report.rewrite_worklist pass1);

  hr ();
  print_endline "PASS 2: after the human rewrites";
  hr ();
  let pass2 = P.run_corpus (P.find_corpus "icmp-rw") in
  print_endline (Sage.Report.summary pass2);
  let worklist = Sage.Report.rewrite_worklist pass2 in
  print_endline
    (if worklist = "" then "rewrite worklist: empty — the spec is clean"
     else worklist);

  hr ();
  print_endline "UNIT TESTING: does the generated code interoperate?";
  hr ();
  let test_run label run =
    let service = Sage_sim.Icmp_service.generated (Sage_sim.Generated_stack.of_run run) in
    let net = Sage_sim.Network.default_topology ~service () in
    let res = Sage_sim.Ping.ping ~net (Sage_sim.Network.server1_addr net) in
    Printf.printf "%-28s ping: %s (%d/%d)\n" label
      (if Sage_sim.Ping.success res then "ok" else "FAIL")
      res.Sage_sim.Ping.received res.Sage_sim.Ping.sent;
    List.iter
      (fun c ->
        match c with
        | Sage_sim.Ping.Bad_reply fs ->
          List.iter
            (fun f ->
              Printf.printf "  discovered: %s\n" (Sage_sim.Ping.failure_label f))
            fs
        | _ -> ())
      res.Sage_sim.Ping.checks
  in
  test_run "original text" pass1;
  test_run "rewritten text" pass2;
  print_newline ();
  print_endline
    "The original text's \"If code = 0, an identifier ... may be zero\" is\n\
     under-specified: applied to both roles, the generated receiver zeroes\n\
     the identifier and ping rejects the replies (ICMP header mismatch).\n\
     The rewrite scopes the sentence to the echo (sender) message, exactly\n\
     the clarification the paper describes in section 6.5."
