(* The SAGE command-line interface.

   Subcommands mirror the pipeline stages (paper Figure 1):

     sage parse      <sentence>   chunk, CCG-parse and winnow one sentence
     sage derivation <sentence>   show a CCG derivation tree (Appendix B)
     sage run                     run the full pipeline over a corpus
     sage code                    print the generated C translation unit
     sage analyze                 static-analysis findings over generated code
     sage ambiguities             list sentences needing a human rewrite
     sage interop                 ping/traceroute against generated code
     sage corpus                  show the pre-processed document structure
*)

module P = Sage.Pipeline
module Lf = Sage_logic.Lf
module Winnow = Sage_disambig.Winnow
module Parser = Sage_ccg.Parser
module Chunker = Sage_nlp.Chunker

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Common arguments.                                                   *)
(* ------------------------------------------------------------------ *)

type protocol = Icmp | Igmp | Ntp | Bfd | Tcp | Bgp

let protocol_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "icmp" -> Ok Icmp
    | "igmp" -> Ok Igmp
    | "ntp" -> Ok Ntp
    | "bfd" -> Ok Bfd
    | "tcp" -> Ok Tcp
    | "bgp" -> Ok Bgp
    | other -> Error (`Msg (Printf.sprintf "unknown protocol %S" other))
  in
  let print ppf p =
    Fmt.string ppf
      (match p with
       | Icmp -> "icmp" | Igmp -> "igmp" | Ntp -> "ntp" | Bfd -> "bfd"
       | Tcp -> "tcp" | Bgp -> "bgp")
  in
  Arg.conv (parse, print)

let protocol_arg =
  let doc = "Protocol corpus to use: icmp, igmp, ntp, bfd, tcp or bgp." in
  Arg.(value & opt protocol_conv Icmp & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc)

let rewritten_arg =
  let doc =
    "Use the rewritten (disambiguated) specification instead of the original \
     RFC text."
  in
  Arg.(value & flag & info [ "rewritten" ] ~doc)

let verbose_arg =
  let doc = "Verbose logging." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let jobs_arg =
  let doc =
    "Parallel workers for the sentence-analysis phase (0 = auto-detect one \
     per core).  Needs OCaml 5 domains; on older compilers the run \
     degrades to sequential.  Output is byte-identical for any value."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let stats_arg =
  let doc =
    "After the run, print per-stage wall times, counters and the chart \
     cache hit rate."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let cache_arg =
  let doc =
    "Memoize CCG charts in an LRU cache of the given capacity (entries); \
     repeated token sequences across sections then parse once."
  in
  Arg.(value & opt (some int) None & info [ "cache" ] ~docv:"CAP" ~doc)

(* --trace[=FILE]: record a structured event trace.  The trace is
   buffered in memory and written only after the run, so stdout stays
   byte-identical to an untraced run; the summary goes to stderr. *)
let trace_arg =
  let doc =
    "Record a structured event trace of the run and write it to $(i,FILE) \
     ($(b,sage-trace.json) / $(b,sage-trace.txt) when no file is given).  \
     The JSON output is the Chrome-trace format, loadable in \
     chrome://tracing or Perfetto.  Stdout output is unchanged."
  in
  Arg.(value
       & opt ~vopt:(Some "") (some string) None
       & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_format_arg =
  let doc = "Trace output format: $(b,json) (Chrome-trace) or $(b,text)." in
  Arg.(value
       & opt
           (enum
              [ ("json", Sage_trace.Trace.Json); ("text", Sage_trace.Trace.Text) ])
           Sage_trace.Trace.Json
       & info [ "trace-format" ] ~docv:"FMT" ~doc)

let trace_clock_arg =
  let doc =
    "Trace timestamp source: $(b,wall) (nanosecond wall clock, for \
     profiling) or $(b,logical) (a deterministic sequence counter — with \
     $(b,--jobs 1) the trace file is then byte-identical across runs)."
  in
  Arg.(value
       & opt
           (enum
              [ ("wall", Sage_trace.Trace.Wall);
                ("logical", Sage_trace.Trace.Logical) ])
           Sage_trace.Trace.Wall
       & info [ "trace-clock" ] ~docv:"CLOCK" ~doc)

let with_trace ?(clock = Sage_trace.Trace.Wall) trace_file trace_format f =
  match trace_file with
  | None -> f None
  | Some file ->
    let tracer = Sage_trace.Trace.create ~clock () in
    let result = f (Some tracer) in
    let file =
      if file <> "" then file
      else
        match trace_format with
        | Sage_trace.Trace.Json -> "sage-trace.json"
        | Sage_trace.Trace.Text -> "sage-trace.txt"
    in
    let oc = open_out file in
    output_string oc (Sage_trace.Trace.render trace_format tracer);
    close_out oc;
    Printf.eprintf "trace: %s -> %s\n%!" (Sage_trace.Trace.summary tracer) file;
    result

(* --analyze: print the static analyzer's findings after the pipeline *)
let analyze_arg =
  let doc =
    "Print the static-analysis findings over the generated code \
     (definite-assignment/field coverage, dead code, width/overflow, \
     checksum ordering).  $(b,--fail-on) sets the exit policy."
  in
  Arg.(value & flag & info [ "analyze" ] ~doc)

(* --fail-on error/warning: the exit policy over the findings *)
let fail_on_arg =
  let doc =
    "Exit nonzero when findings at or above $(docv) severity exist: \
     $(b,error) or $(b,warning)."
  in
  Arg.(value
       & opt
           (some
              (enum
                 [ ("error", Sage_analysis.Analyzer.Fail_error);
                   ("warning", Sage_analysis.Analyzer.Fail_warning) ]))
           None
       & info [ "fail-on" ] ~docv:"SEV" ~doc)

let analysis_exit ?(fail_on = Sage_analysis.Analyzer.Fail_never)
    (result : P.run) =
  Sage_analysis.Analyzer.exit_code_on ~fail_on result.P.diagnostics

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let spec_of = function
  | Icmp -> P.icmp_spec ()
  | Igmp -> P.igmp_spec ()
  | Ntp -> P.ntp_spec ()
  | Bfd -> P.bfd_spec ()
  | Tcp -> P.tcp_spec ()
  | Bgp -> P.bgp_spec ()

let corpus_of proto rewritten =
  match proto, rewritten with
  | Icmp, false -> (Sage_corpus.Icmp_rfc.title, Sage_corpus.Icmp_rfc.text)
  | Icmp, true -> (Sage_corpus.Icmp_rfc.title, Sage_corpus.Icmp_rfc.rewritten_text)
  | Igmp, _ -> (Sage_corpus.Igmp_rfc.title, Sage_corpus.Igmp_rfc.text)
  | Ntp, _ -> (Sage_corpus.Ntp_rfc.title, Sage_corpus.Ntp_rfc.text)
  | Bfd, false -> (Sage_corpus.Bfd_rfc.title, Sage_corpus.Bfd_rfc.text)
  | Bfd, true -> (Sage_corpus.Bfd_rfc.title, Sage_corpus.Bfd_rfc.rewritten_text)
  | Tcp, _ -> (Sage_corpus.Tcp_rfc.title, Sage_corpus.Tcp_rfc.text)
  | Bgp, _ -> (Sage_corpus.Bgp_rfc.title, Sage_corpus.Bgp_rfc.text)

let status_string = function
  | P.Parsed _ -> "parsed (1 LF)"
  | P.Subject_supplied _ -> "parsed (subject supplied)"
  | P.Zero_lf -> "ZERO LFs - needs rewriting"
  | P.Ambiguous lfs ->
    Printf.sprintf "AMBIGUOUS (%d LFs) - needs rewriting" (List.length lfs)
  | P.Annotated_non_actionable -> "annotated non-actionable"
  | P.Crashed e -> Printf.sprintf "CRASHED: %s" e

(* ------------------------------------------------------------------ *)
(* sage parse                                                          *)
(* ------------------------------------------------------------------ *)

let parse_cmd =
  let sentence_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SENTENCE")
  in
  let field_arg =
    let doc = "Field name providing context (enables subject supply)." in
    Arg.(value & opt (some string) None & info [ "field" ] ~docv:"FIELD" ~doc)
  in
  let run proto verbose field sentence =
    setup_logs verbose;
    let spec = spec_of proto in
    (* chunking *)
    let chunks = Chunker.chunk_sentence ~dict:spec.P.dictionary sentence in
    Printf.printf "chunks   : %s\n"
      (String.concat " " (List.map (Fmt.str "%a" Chunker.pp_chunk) chunks));
    (* raw parse *)
    let result =
      Parser.parse ~lexicon:spec.P.lexicon ~dict:spec.P.dictionary sentence
    in
    Printf.printf "base LFs : %d%s\n"
      (List.length result.Parser.lfs)
      (if result.Parser.truncated then " (chart truncated)" else "");
    (* full analysis with winnowing *)
    let report = P.analyze_sentence spec ?field sentence in
    (match report.P.trace with
     | Some tr ->
       Printf.printf "winnowing: %s\n"
         (String.concat " -> "
            (List.map
               (fun (label, n) -> Printf.sprintf "%s=%d" label n)
               (Winnow.stage_counts tr)))
     | None -> ());
    Printf.printf "status   : %s\n" (status_string report.P.status);
    (match report.P.status with
     | P.Parsed lf | P.Subject_supplied lf ->
       Printf.printf "LF       : %s\n" (Lf.to_string lf)
     | P.Ambiguous lfs ->
       List.iteri
         (fun i lf -> Printf.printf "LF[%d]    : %s\n" i (Lf.to_string lf))
         lfs
     | P.Zero_lf | P.Annotated_non_actionable | P.Crashed _ -> ());
    0
  in
  let doc = "Chunk, CCG-parse and winnow a single specification sentence." in
  Cmd.v
    (Cmd.info "parse" ~doc)
    Term.(const run $ protocol_arg $ verbose_arg $ field_arg $ sentence_arg)

(* ------------------------------------------------------------------ *)
(* sage derivation                                                     *)
(* ------------------------------------------------------------------ *)

let derivation_cmd =
  let sentence_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SENTENCE")
  in
  let run proto verbose sentence =
    setup_logs verbose;
    let spec = spec_of proto in
    let result =
      Parser.parse ~lexicon:spec.P.lexicon ~dict:spec.P.dictionary sentence
    in
    match result.Parser.items with
    | [] ->
      Printf.printf "no derivation (0 logical forms)\n";
      1
    | item :: rest ->
      Printf.printf "%d derivation(s); showing the first:\n\n"
        (List.length rest + 1);
      Printf.printf "%s\n" (Fmt.str "%a" Parser.pp_deriv item.Parser.deriv);
      0
  in
  let doc = "Show a CCG derivation tree for a sentence (paper Appendix B)." in
  Cmd.v
    (Cmd.info "derivation" ~doc)
    Term.(const run $ protocol_arg $ verbose_arg $ sentence_arg)

(* ------------------------------------------------------------------ *)
(* sage run                                                            *)
(* ------------------------------------------------------------------ *)

let run_pipeline ?(jobs = 1) ?cache_cap ?trace proto rewritten =
  let spec = spec_of proto in
  let title, text = corpus_of proto rewritten in
  let jobs = if jobs <= 0 then Sage_sched.Pool.default_jobs () else jobs in
  let cache =
    Option.map (fun capacity -> Sage.Chart_cache.create ~capacity ()) cache_cap
  in
  P.run_document ~jobs ?cache ?trace spec ~title ~text

let run_cmd =
  let run proto verbose rewritten jobs cache_cap stats analyze fail_on
      trace_file trace_format trace_clock =
    setup_logs verbose;
    with_trace ~clock:trace_clock trace_file trace_format @@ fun trace ->
    let result = run_pipeline ~jobs ?cache_cap ?trace proto rewritten in
    Printf.printf "document  : %s\n" result.P.document.Sage_rfc.Document.title;
    Printf.printf "sections  : %d\n"
      (List.length result.P.document.Sage_rfc.Document.sections);
    Printf.printf "sentences : %d\n" (List.length result.P.sentences);
    Printf.printf "parsed    : %d\n" (List.length (P.parsed_sentences result));
    Printf.printf "ambiguous : %d\n" (List.length (P.ambiguous_sentences result));
    Printf.printf "zero-LF   : %d\n" (List.length (P.zero_lf_sentences result));
    Printf.printf "annotated : %d\n"
      (List.length
         (List.filter
            (fun r -> r.P.status = P.Annotated_non_actionable)
            result.P.sentences));
    Printf.printf "non-actionable (discovered): %d\n"
      (List.length result.P.codegen.P.non_actionable);
    Printf.printf "functions : %d\n" (List.length result.P.codegen.P.functions);
    List.iter
      (fun f ->
        Printf.printf "  %-45s (%d statements)\n" f.Sage_codegen.Ir.fn_name
          (List.length f.Sage_codegen.Ir.body))
      result.P.codegen.P.functions;
    if verbose then begin
      Printf.printf "\nper-sentence detail:\n";
      List.iter
        (fun r ->
          Printf.printf "  [%-28s] %s\n" (status_string r.P.status)
            (if String.length r.P.sentence > 70 then
               String.sub r.P.sentence 0 67 ^ "..."
             else r.P.sentence))
        result.P.sentences
    end;
    if analyze then begin
      print_newline ();
      print_string (Sage.Report.analysis result)
    end;
    if stats then begin
      print_newline ();
      print_string (Sage.Report.stats result)
    end;
    analysis_exit ?fail_on result
  in
  let doc = "Run the full pipeline (parse, winnow, generate) over a corpus." in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(const run $ protocol_arg $ verbose_arg $ rewritten_arg $ jobs_arg
          $ cache_arg $ stats_arg $ analyze_arg $ fail_on_arg $ trace_arg
          $ trace_format_arg $ trace_clock_arg)

(* ------------------------------------------------------------------ *)
(* sage code                                                           *)
(* ------------------------------------------------------------------ *)

let code_cmd =
  let fn_arg =
    let doc = "Print only this generated function." in
    Arg.(value & opt (some string) None & info [ "f"; "function" ] ~docv:"NAME" ~doc)
  in
  let run proto verbose rewritten jobs fn =
    setup_logs verbose;
    let result = run_pipeline ~jobs proto rewritten in
    (match fn with
     | None -> print_string result.P.codegen.P.c_code
     | Some name ->
       (match P.find_function result name with
        | Some f -> print_endline (Sage_codegen.C_printer.render_func f)
        | None ->
          Printf.eprintf "no function %S; available:\n" name;
          List.iter
            (fun f -> Printf.eprintf "  %s\n" f.Sage_codegen.Ir.fn_name)
            result.P.codegen.P.functions));
    0
  in
  let doc = "Print the generated C code (structs, framework, functions)." in
  Cmd.v
    (Cmd.info "code" ~doc)
    Term.(const run $ protocol_arg $ verbose_arg $ rewritten_arg $ jobs_arg
          $ fn_arg)

(* ------------------------------------------------------------------ *)
(* sage analyze                                                        *)
(* ------------------------------------------------------------------ *)

let analyze_cmd =
  let format_arg =
    let doc = "Output format: $(b,text) (default) or $(b,json)." in
    Arg.(value
         & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let prove_arg =
    let doc =
      "Report the SA007 proof summary on stderr — which functions are \
       statically proved in-bounds for every packet length — and exit \
       nonzero on any Error-severity finding (unless $(b,--fail-on) says \
       otherwise)."
    in
    Arg.(value & flag & info [ "prove" ] ~doc)
  in
  let seeded_wedge_arg =
    let doc =
      "Tamper the generated IR by deleting the BFD session-recovery \
       transitions before analyzing (SA011 self-test: the run must report \
       a wedge-state Error and, under $(b,--prove), exit 1)."
    in
    Arg.(value & flag & info [ "seeded-wedge" ] ~doc)
  in
  let seeded_divergence_arg =
    let doc =
      "Arm the compiled backend's seeded mis-compilation fixture before \
       analyzing (SA012 self-test: the run must report a slot-consistency \
       Error and, under $(b,--prove), exit 1)."
    in
    Arg.(value & flag & info [ "seeded-divergence" ] ~doc)
  in
  let run proto verbose rewritten jobs cache_cap fail_on prove
      seeded_wedge seeded_divergence format =
    setup_logs verbose;
    let result = run_pipeline ~jobs ?cache_cap proto rewritten in
    let funcs = result.P.codegen.P.functions in
    let funcs =
      if seeded_wedge then Sage_chaos.Seeded_wedge.tamper_fsm funcs else funcs
    in
    let divergence =
      if seeded_divergence then
        Some Sage_backend.Seeded_divergence.default_target
      else None
    in
    let diagnostics =
      (* fixtures change the program under analysis, so they re-analyze;
         the untampered path reuses the pipeline's diagnostics, sentence
         provenance included *)
      if seeded_wedge || seeded_divergence then
        Sage_analysis.Analyzer.analyze_program ?divergence
          ~struct_of_function:result.P.codegen.P.struct_of_function funcs
      else result.P.diagnostics
    in
    let protocol = result.P.spec.P.protocol in
    (match format with
     | `Text ->
       print_string (Sage_analysis.Diagnostic.render_text ~protocol diagnostics)
     | `Json ->
       print_endline
         (Sage_analysis.Diagnostic.render_json ~protocol diagnostics));
    if prove then begin
      let proved = Sage_analysis.Analyzer.proved_functions diagnostics funcs in
      Printf.eprintf
        "SA007: %d/%d functions proved in-bounds for all packet lengths\n"
        (List.length proved) (List.length funcs);
      List.iter
        (fun (f : Sage_codegen.Ir.func) ->
          if not (List.mem f.Sage_codegen.Ir.fn_name proved) then
            Printf.eprintf "  unproved: %s\n" f.Sage_codegen.Ir.fn_name)
        funcs
    end;
    let fail_on =
      match fail_on with
      | Some f -> f
      | None ->
        if prove then Sage_analysis.Analyzer.Fail_error
        else Sage_analysis.Analyzer.Fail_never
    in
    Sage_analysis.Analyzer.exit_code_on ~fail_on diagnostics
  in
  let doc =
    "Run the pipeline and report the static-analysis findings over the \
     generated code: definite-assignment/field coverage against the \
     recovered packet layout (the paper's under-specification failure \
     mode), dead stores and unreachable code, constant-width/overflow \
     checks, checksum ordering, and the abstract-interpretation proof \
     layer — packet-bounds safety (SA007), value ranges (SA008), \
     statically decided branches (SA009), checksum-window coverage \
     (SA010), FSM wedge states (SA011) and interp/compiled slot-layout \
     consistency (SA012).  Findings carry stable SA0xx codes, statement \
     ids and, where recoverable, the specification sentence involved; \
     JSON output is sorted and byte-identical across $(b,--jobs)."
  in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(const run $ protocol_arg $ verbose_arg $ rewritten_arg $ jobs_arg
          $ cache_arg $ fail_on_arg $ prove_arg
          $ seeded_wedge_arg $ seeded_divergence_arg $ format_arg)

(* ------------------------------------------------------------------ *)
(* sage ambiguities                                                    *)
(* ------------------------------------------------------------------ *)

let ambiguities_cmd =
  let run proto verbose rewritten jobs =
    setup_logs verbose;
    let result = run_pipeline ~jobs proto rewritten in
    let ambiguous = P.ambiguous_sentences result in
    let zero = P.zero_lf_sentences result in
    if ambiguous = [] && zero = [] then begin
      Printf.printf
        "no ambiguities: every sentence parses to exactly one logical form\n";
      0
    end
    else begin
      if ambiguous <> [] then begin
        Printf.printf
          "sentences with MULTIPLE logical forms after winnowing (rewrite\n\
           them; the surviving LFs below show where the ambiguity lies):\n\n";
        List.iter
          (fun r ->
            Printf.printf "* %s\n" r.P.sentence;
            (match r.P.status with
             | P.Ambiguous lfs ->
               List.iter
                 (fun lf -> Printf.printf "    %s\n" (Lf.to_string lf))
                 lfs
             | _ -> ());
            print_newline ())
          ambiguous
      end;
      if zero <> [] then begin
        Printf.printf "sentences with ZERO logical forms (rewrite them):\n\n";
        List.iter (fun r -> Printf.printf "* %s\n\n" r.P.sentence) zero
      end;
      1
    end
  in
  let doc =
    "List the sentences a human must rewrite (the Figure 4 feedback loop): \
     those with more than one logical form after winnowing, and those with \
     none."
  in
  Cmd.v
    (Cmd.info "ambiguities" ~doc)
    Term.(const run $ protocol_arg $ verbose_arg $ rewritten_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* execution backend selection (interop / fuzz / chaos)                *)
(* ------------------------------------------------------------------ *)

let backend_conv =
  let parse s =
    match Sage_backend.Backend.choice_of_string s with
    | Some c -> Ok c
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown backend %S (choose from %s)" s
              (String.concat ", "
                 (List.map Sage_backend.Backend.choice_name
                    Sage_backend.Backend.all_choices))))
  in
  Arg.conv
    (parse, fun ppf c -> Fmt.string ppf (Sage_backend.Backend.choice_name c))

let backend_arg =
  let doc =
    "Execution backend for the generated IR: $(b,interp) (the tree-walk \
     interpreter) or $(b,compiled) (bodies compiled to closures at load \
     time; fuzz runs additionally check every iteration against the \
     interpreter through the backend-agreement oracle)."
  in
  Arg.(value
       & opt backend_conv Sage_backend.Backend.Interp
       & info [ "backend" ] ~docv:"NAME" ~doc)

(* ------------------------------------------------------------------ *)
(* sage interop                                                        *)
(* ------------------------------------------------------------------ *)

let interop_cmd =
  let run verbose rewritten backend fault_seed fault_plan trace_file
      trace_format trace_clock =
    setup_logs verbose;
    let faults =
      match fault_plan with
      | None -> None
      | Some spec -> (
        match Sage_sim.Faults.plan_of_string spec with
        | Ok plan ->
          Some (Sage_sim.Faults.create ~plan ~seed:fault_seed ())
        | Error e ->
          Printf.eprintf "bad --fault-plan: %s\n" e;
          exit 2)
    in
    let under_faults = Option.is_some faults in
    with_trace ~clock:trace_clock trace_file trace_format @@ fun trace ->
    let result = run_pipeline ?trace Icmp rewritten in
    let stack = Sage_sim.Generated_stack.of_run ?trace ~backend result in
    let service = Sage_sim.Icmp_service.generated stack in
    let net = Sage_sim.Network.default_topology ~service ?faults ?trace () in
    let target = Sage_sim.Network.server1_addr net in
    let ping_res = Sage_sim.Ping.ping ~net target in
    Printf.printf "ping %s: %s (%d/%d replies)\n"
      (Sage_net.Addr.to_string target)
      (if Sage_sim.Ping.success ping_res then "ok"
       else if under_faults then "degraded"
       else "FAILED")
      ping_res.Sage_sim.Ping.received ping_res.Sage_sim.Ping.sent;
    if under_faults then
      Printf.printf "  %d packets transmitted, %d received, %.0f%% packet loss\n"
        ping_res.Sage_sim.Ping.sent ping_res.Sage_sim.Ping.received
        (Sage_sim.Ping.loss_rate ping_res);
    List.iter
      (fun c ->
        match c with
        | Sage_sim.Ping.Ok_reply -> ()
        | Sage_sim.Ping.No_reply r -> Printf.printf "  no reply: %s\n" r
        | Sage_sim.Ping.Bad_reply fs ->
          List.iter
            (fun f -> Printf.printf "  FAIL: %s\n" (Sage_sim.Ping.failure_label f))
            fs)
      ping_res.Sage_sim.Ping.checks;
    let tr = Sage_sim.Traceroute.traceroute ~net target in
    Printf.printf "traceroute %s: %s\n"
      (Sage_net.Addr.to_string target)
      (if tr.Sage_sim.Traceroute.reached then "reached" else "FAILED");
    List.iter
      (fun (h : Sage_sim.Traceroute.hop) ->
        Printf.printf "  %2d  %-16s icmp type %s  quote %s\n"
          h.Sage_sim.Traceroute.ttl
          (match h.Sage_sim.Traceroute.responder with
           | Some a -> Sage_net.Addr.to_string a
           | None -> "*")
          (match h.Sage_sim.Traceroute.response_type with
           | Some t -> string_of_int t
           | None -> "-")
          (if h.Sage_sim.Traceroute.quoted_probe_ok then "ok" else "BAD"))
      tr.Sage_sim.Traceroute.hops;
    if under_faults then
      Printf.printf "  %d probes unanswered, %.0f%% probe loss\n"
        (Sage_sim.Traceroute.lost_probes tr)
        (Sage_sim.Traceroute.loss_rate tr);
    (* under injected faults, loss is expected: report statistics and
       exit 0; the strict pass/fail verdict applies to clean runs only *)
    if under_faults then 0
    else if Sage_sim.Ping.success ping_res && tr.Sage_sim.Traceroute.reached
    then 0
    else 1
  in
  let fault_seed_arg =
    let doc = "Seed for the deterministic fault-injection PRNG." in
    Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"SEED" ~doc)
  in
  let fault_plan_arg =
    let doc =
      "Inject faults into the simulated wire.  Comma-separated rules of the \
       form $(i,KIND[:ARGS]\\@PROBABILITY), e.g. \
       'drop\\@0.1,dup\\@0.05,delay:3\\@0.2,corrupt:8:0x04\\@0.02,\
       truncate:20\\@0.1,reorder\\@0.1'.  Runs are reproducible for a fixed \
       $(b,--fault-seed)."
    in
    Arg.(value & opt (some string) None & info [ "fault-plan" ] ~docv:"PLAN" ~doc)
  in
  let doc =
    "Run ping and traceroute against the SAGE-generated ICMP implementation \
     in the simulated network (the paper's 6.2 experiment), optionally \
     through a seeded fault-injection plan."
  in
  Cmd.v (Cmd.info "interop" ~doc)
    Term.(const run $ verbose_arg $ rewritten_arg $ backend_arg
          $ fault_seed_arg $ fault_plan_arg $ trace_arg $ trace_format_arg
          $ trace_clock_arg)

(* ------------------------------------------------------------------ *)
(* sage corpus                                                         *)
(* ------------------------------------------------------------------ *)

let corpus_cmd =
  let run proto verbose rewritten =
    setup_logs verbose;
    let title, text = corpus_of proto rewritten in
    let doc = Sage_rfc.Document.parse ~title text in
    Fmt.pr "%a@." Sage_rfc.Document.pp doc;
    List.iter
      (fun (s : Sage_rfc.Document.section) ->
        match s.Sage_rfc.Document.diagram with
        | Some d ->
          Printf.printf "\n%s\n" (Sage_rfc.Header_diagram.to_c_struct d)
        | None -> ())
      doc.Sage_rfc.Document.sections;
    0
  in
  let doc = "Show the pre-processed document structure and recovered structs." in
  Cmd.v
    (Cmd.info "corpus" ~doc)
    Term.(const run $ protocol_arg $ verbose_arg $ rewritten_arg)

(* ------------------------------------------------------------------ *)
(* sage reqs                                                           *)
(* ------------------------------------------------------------------ *)

let reqs_cmd =
  let format_arg =
    let doc = "Output format: $(b,text) (default) or $(b,json)." in
    Arg.(value
         & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let corpus_arg =
    let doc =
      "Mine every corpus (all 8, including the rewritten variants) and \
       print a per-corpus summary table instead of one protocol's \
       requirement list."
    in
    Arg.(value & flag & info [ "corpus" ] ~doc)
  in
  let run proto verbose rewritten jobs cache_cap corpus format =
    setup_logs verbose;
    if corpus then begin
      let corpora =
        [ ("icmp", Icmp, false); ("icmp-rw", Icmp, true);
          ("igmp", Igmp, false); ("ntp", Ntp, false);
          ("bfd", Bfd, false); ("bfd-rw", Bfd, true);
          ("tcp", Tcp, false); ("bgp", Bgp, false) ]
      in
      Printf.printf "%-8s  %5s  %8s  %9s\n" "corpus" "mined" "compiled"
        "checkable";
      List.iter
        (fun (name, proto, rewritten) ->
          let result = run_pipeline ~jobs ?cache_cap proto rewritten in
          let mined, compiled, checkable =
            Sage_reqs.Render.summary_counts result.P.requirements
          in
          Printf.printf "%-8s  %5d  %8d  %9d\n" name mined compiled checkable)
        corpora;
      0
    end
    else begin
      let result = run_pipeline ~jobs ?cache_cap proto rewritten in
      let protocol = result.P.spec.P.protocol in
      (match format with
       | `Text ->
         print_string
           (Sage_reqs.Render.text ~protocol result.P.requirements)
       | `Json ->
         print_string
           (Sage_reqs.Render.json ~protocol result.P.requirements));
      0
    end
  in
  let doc =
    "Mine the RFC 2119 requirement sentences (MUST / MUST NOT / SHALL / \
     SHOULD) from a corpus and show which compiled into executable \
     rules: a guard over the decoded packet, session state and \
     environment plus an obligation over the execution outcome \
     (discard, transmission, procedure calls, state clearing, checksum \
     validity), anchored to the generated functions via sentence \
     provenance.  Checkable requirements are enforced by \
     $(b,sage fuzz --check-reqs) and $(b,sage chaos --check-reqs).  \
     Output is deterministic: byte-identical across $(b,--jobs) values \
     and cache states."
  in
  Cmd.v (Cmd.info "reqs" ~doc)
    Term.(const run $ protocol_arg $ verbose_arg $ rewritten_arg $ jobs_arg
          $ cache_arg $ corpus_arg $ format_arg)

(* ------------------------------------------------------------------ *)
(* sage fuzz                                                           *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let seed_arg =
    let doc = "PRNG seed: the same seed reproduces the identical run." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let iters_arg =
    let doc = "Number of fuzz iterations." in
    Arg.(value & opt int 2000 & info [ "iters" ] ~docv:"N" ~doc)
  in
  let coverage_out_arg =
    let doc = "Write per-function IR statement coverage as JSON to $(docv)." in
    Arg.(value
         & opt (some string) None
         & info [ "coverage-out" ] ~docv:"FILE" ~doc)
  in
  let seeded_bug_arg =
    let doc =
      "Tamper the generated IR with a known checksum bug before fuzzing \
       (oracle-suite self-test: the run must report exactly one finding)."
    in
    Arg.(value & flag & info [ "seeded-bug" ] ~doc)
  in
  let check_proofs_arg =
    let doc =
      "Cross-validate the static SA007 bounds proofs: run the analyzer \
       first and assert no never-raise finding ever fires on a proved \
       function.  A violation means the static proof layer is unsound."
    in
    Arg.(value & flag & info [ "check-proofs" ] ~doc)
  in
  let seeded_divergence_arg =
    let doc =
      "Deliberately mis-compile one function's checksum assignment in the \
       compiled backend (differential-oracle self-test: the run must report \
       exactly one backend-agreement finding).  Implies \
       $(b,--backend compiled)."
    in
    Arg.(value & flag & info [ "seeded-divergence" ] ~doc)
  in
  let check_reqs_arg =
    let doc =
      "Enforce the mined RFC 2119 requirements (see $(b,sage reqs)) as a \
       seventh oracle: a checkable requirement whose guard holds on the \
       input must see its obligation met by the outcome, or the run \
       reports a finding carrying the RQ id and source sentence."
    in
    Arg.(value & flag & info [ "check-reqs" ] ~doc)
  in
  let seeded_violation_arg =
    let doc =
      "Tamper the generated IR by deleting the guarded discard statements \
       from one BFD function before fuzzing (requirement-oracle \
       self-test: the run must report exactly one requirement finding \
       with its RQ id, source sentence and a shrunk witness packet).  \
       Implies $(b,--check-reqs)."
    in
    Arg.(value & flag & info [ "seeded-violation" ] ~doc)
  in
  let run proto verbose rewritten jobs backend seed iters seeded_bug
      seeded_divergence check_proofs check_reqs seeded_violation coverage_out
      stats trace_file trace_format trace_clock =
    setup_logs verbose;
    with_trace ~clock:trace_clock trace_file trace_format @@ fun trace ->
    let check_reqs = check_reqs || seeded_violation in
    let result = run_pipeline ~jobs ?trace proto rewritten in
    let funcs = result.P.codegen.P.functions in
    let funcs =
      if seeded_bug then
        Sage_fuzz.Seeded_bug.tamper_checksum
          ~fn:Sage_fuzz.Seeded_bug.default_target funcs
      else funcs
    in
    let funcs =
      if seeded_violation then begin
        if
          not
            (List.exists
               (fun (f : Sage_codegen.Ir.func) ->
                 f.Sage_codegen.Ir.fn_name
                 = Sage_reqs.Seeded_violation.default_target)
               funcs)
        then begin
          Printf.eprintf
            "--seeded-violation targets %s; run it on the %s corpus (-p %s)\n"
            Sage_reqs.Seeded_violation.default_target
            Sage_reqs.Seeded_violation.default_protocol
            Sage_reqs.Seeded_violation.default_protocol;
          exit 2
        end;
        Sage_reqs.Seeded_violation.tamper_discards
          ~fn:Sage_reqs.Seeded_violation.default_target funcs
      end
      else funcs
    in
    let proved =
      (* static pass over the very functions being fuzzed (tampering
         included), so a proof the fuzzer then refutes is always the
         analyzer's fault *)
      if check_proofs then
        let diags =
          Sage_analysis.Analyzer.analyze_program
            ~struct_of_function:result.P.codegen.P.struct_of_function funcs
        in
        Sage_analysis.Analyzer.proved_functions diags funcs
      else []
    in
    let targets =
      List.filter_map
        (fun (f : Sage_codegen.Ir.func) ->
          Option.map
            (fun sd -> (f, sd))
            (List.assoc_opt f.Sage_codegen.Ir.fn_name
               result.P.codegen.P.struct_of_function))
        funcs
    in
    let backend =
      if seeded_divergence then Sage_backend.Backend.Compiled else backend
    in
    let divergence =
      if seeded_divergence then
        Some Sage_backend.Seeded_divergence.default_target
      else None
    in
    let reqs = if check_reqs then result.P.requirements else [] in
    let fz =
      Sage_fuzz.Engine.run ?trace ~metrics:result.P.metrics ~backend
        ?divergence ~proved ~reqs ~seed ~iters
        ~protocol:result.P.spec.P.protocol targets
    in
    print_string (Sage_fuzz.Engine.summary fz);
    (match coverage_out with
     | None -> ()
     | Some file ->
       let oc = open_out file in
       output_string oc
         (Sage_interp.Coverage.to_json fz.Sage_fuzz.Engine.coverage
            fz.Sage_fuzz.Engine.funcs);
       close_out oc);
    if stats then begin
      print_newline ();
      print_string (Sage.Report.stats result)
    end;
    if fz.Sage_fuzz.Engine.findings = [] then 0 else 1
  in
  let doc =
    "Fuzz the generated code under the interpreter: grammar-based packets \
     from the recovered layouts, IR statement coverage guidance, and a \
     differential oracle suite (reference decoders, round-trip identity, \
     checksum verification).  Deterministic for a fixed seed; exits \
     nonzero when any oracle finding is reported."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(const run $ protocol_arg $ verbose_arg $ rewritten_arg $ jobs_arg
          $ backend_arg $ seed_arg $ iters_arg $ seeded_bug_arg
          $ seeded_divergence_arg $ check_proofs_arg $ check_reqs_arg
          $ seeded_violation_arg $ coverage_out_arg $ stats_arg $ trace_arg
          $ trace_format_arg $ trace_clock_arg)

(* ------------------------------------------------------------------ *)
(* sage chaos                                                          *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let corpus_names =
    [ "icmp"; "icmp-rw"; "igmp"; "ntp"; "bfd"; "bfd-rw"; "tcp"; "bgp" ]
  in
  let chaos_corpus_conv =
    let parse s =
      if List.mem s corpus_names then Ok s
      else
        Error
          (`Msg
             (Printf.sprintf "unknown corpus %S (choose from %s)" s
                (String.concat ", " corpus_names)))
    in
    Arg.conv (parse, Fmt.string)
  in
  let corpus_arg =
    let doc =
      "Restrict the campaign to this corpus (repeatable; default: all 8)."
    in
    Arg.(value & opt_all chaos_corpus_conv [] & info [ "corpus" ] ~docv:"NAME" ~doc)
  in
  let scenario_conv =
    let parse s =
      match Sage_chaos.Scenario.find s with
      | Some _ -> Ok s
      | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown scenario %S (built-ins: %s)" s
                (String.concat ", " Sage_chaos.Scenario.names)))
    in
    Arg.conv (parse, Fmt.string)
  in
  let scenario_arg =
    let doc =
      "Run a single built-in scenario instead of all of them: $(b,flaky), \
       $(b,partition), $(b,outage) or $(b,blackout)."
    in
    Arg.(value & opt (some scenario_conv) None
         & info [ "scenario" ] ~docv:"NAME" ~doc)
  in
  let schedule_conv =
    (* accepts an inline schedule or a file containing one; the episode
       grammar embeds the --fault-plan rule grammar in storm(...) *)
    let parse s =
      let spec =
        if Sys.file_exists s && not (Sys.is_directory s) then (
          let ic = open_in_bin s in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> String.trim (really_input_string ic (in_channel_length ic))))
        else s
      in
      match Sage_chaos.Episode.of_string spec with
      | Ok sched -> Ok sched
      | Error e -> Error (`Msg e)
    in
    let print ppf s = Fmt.string ppf (Sage_chaos.Episode.to_string s) in
    Arg.conv (parse, print)
  in
  let schedule_arg =
    let doc =
      "Run a custom schedule instead of the built-in scenarios: either an \
       inline spec or a file containing one.  Grammar: episodes separated \
       by $(b,;), each $(b,partition:N), $(b,crash:N), $(b,heal:N) or \
       $(b,storm(PLAN):N) where PLAN is the $(b,--fault-plan) grammar; the \
       schedule must end with a heal episode."
    in
    Arg.(value & opt (some schedule_conv) None
         & info [ "schedule" ] ~docv:"SPEC|FILE" ~doc)
  in
  let soak_conv =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 0 -> Ok n
      | Some n -> Error (`Msg (Printf.sprintf "--soak must be >= 0, got %d" n))
      | None -> Error (`Msg (Printf.sprintf "bad --soak value %S" s))
    in
    Arg.conv (parse, Fmt.int)
  in
  let soak_arg =
    let doc = "Stretch every schedule's final heal window by $(docv) ticks." in
    Arg.(value & opt soak_conv 0 & info [ "soak" ] ~docv:"TICKS" ~doc)
  in
  let seed_arg =
    let doc = "Campaign seed: the same seed reproduces the identical run." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let wedge_arg =
    let doc =
      "Arm the seeded no-recovery fixture (restart handlers die after the \
       first crash) — oracle self-test: scenarios with a crash episode must \
       fail and the run exits 1 with a shrunk minimal schedule."
    in
    Arg.(value & flag & info [ "seeded-wedge" ] ~doc)
  in
  let check_reqs_arg =
    let doc =
      "Assert the mined RFC 2119 requirements (see $(b,sage reqs)) on \
       every generated-function execution during the campaign: a \
       requirement violated mid-chaos is a case violation carrying the \
       RQ id and source sentence."
    in
    Arg.(value & flag & info [ "check-reqs" ] ~doc)
  in
  let run verbose jobs backend seed scenario schedule soak wedge check_reqs
      corpora_sel stats trace_file trace_format trace_clock =
    setup_logs verbose;
    if scenario <> None && schedule <> None then
      `Error (true, "--scenario and --schedule cannot be combined")
    else
      `Ok
        (with_trace ~clock:trace_clock trace_file trace_format @@ fun trace ->
         let names = if corpora_sel = [] then corpus_names else corpora_sel in
         (* one pipeline run per distinct (protocol, rewritten) backing,
            shared across corpora *)
         let runs : (string, P.run) Hashtbl.t = Hashtbl.create 8 in
         let pipeline_of name =
           match Hashtbl.find_opt runs name with
           | Some r -> r
           | None ->
             let proto, rewritten =
               match name with
               | "icmp" -> (Icmp, false)
               | "icmp-rw" -> (Icmp, true)
               | "igmp" -> (Igmp, false)
               | "ntp" -> (Ntp, false)
               | "bfd" -> (Bfd, false)
               | "bfd-rw" -> (Bfd, true)
               | "tcp" -> (Tcp, false)
               | _ -> (Bgp, false)
             in
             let r = run_pipeline ~jobs ?trace proto rewritten in
             Hashtbl.replace runs name r;
             r
         in
         (* the generated stack of an ambiguous original text does not
            interoperate (§6.5); its cases run the disambiguated text *)
         let gen_backing = function
           | "icmp" -> "icmp-rw"
           | "bfd" -> "bfd-rw"
           | c -> c
         in
         let corpora =
           List.map
             (fun name ->
               { Sage_chaos.Campaign.corpus = name;
                 generated_run = lazy (pipeline_of (gen_backing name)) })
             names
         in
         let scenarios =
           match (scenario, schedule) with
           | Some s, _ -> [ (s, Option.get (Sage_chaos.Scenario.find s)) ]
           | None, Some sched -> [ ("schedule", sched) ]
           | None, None -> Sage_chaos.Scenario.builtins
         in
         let metrics = Sage_sched.Metrics.create () in
         let campaign =
           Sage_chaos.Campaign.run ?trace ~metrics ~backend ~soak ~wedge
             ~check_reqs ~seed ~scenarios ~corpora ()
         in
         print_string (Sage_chaos.Campaign.summary campaign);
         if stats then begin
           print_newline ();
           print_string (Sage_sched.Metrics.summary metrics)
         end;
         Sage_chaos.Campaign.exit_code campaign)
  in
  let doc =
    "Run chaos campaigns against the reference and generated stacks: timed \
     schedules of partitions, fault storms and crash/restart episodes over \
     the simulated network, with RFC-derived recovery oracles checked in \
     the final heal window (BFD detection-time reconvergence, ping and \
     traceroute recovery, IGMP report reconvergence, NTP reachability, FSM \
     re-establishment, and a generic no-silent-wedge check).  Deterministic \
     for a fixed seed; exits 1 with a shrunk minimal schedule when any \
     oracle is violated."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(ret
            (const run $ verbose_arg $ jobs_arg $ backend_arg $ seed_arg
             $ scenario_arg $ schedule_arg $ soak_arg $ wedge_arg
             $ check_reqs_arg $ corpus_arg $ stats_arg $ trace_arg
             $ trace_format_arg $ trace_clock_arg))

(* ------------------------------------------------------------------ *)
(* sage report                                                         *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let run proto verbose rewritten jobs cache_cap stats analyze fail_on
      trace_file trace_format trace_clock =
    setup_logs verbose;
    with_trace ~clock:trace_clock trace_file trace_format @@ fun trace ->
    let result = run_pipeline ~jobs ?cache_cap ?trace proto rewritten in
    print_string (Sage.Report.markdown result);
    if stats then begin
      print_newline ();
      print_string (Sage.Report.stats result)
    end;
    (* the markdown already carries the findings; --analyze/--fail-on
       here only select the exit policy *)
    analysis_exit ?fail_on result
  in
  let doc =
    "Produce the markdown report a spec author reads in the feedback loop: \
     summary, rewrite worklist, non-actionable sentences, static-analysis \
     findings, generated functions and recovered layouts."
  in
  Cmd.v
    (Cmd.info "report" ~doc)
    Term.(const run $ protocol_arg $ verbose_arg $ rewritten_arg $ jobs_arg
          $ cache_arg $ stats_arg $ analyze_arg $ fail_on_arg $ trace_arg
          $ trace_format_arg $ trace_clock_arg)

(* ------------------------------------------------------------------ *)
(* sage bench                                                          *)
(* ------------------------------------------------------------------ *)

let bench_cmd =
  let list_arg =
    let doc = "List the registered benchmark targets and exit." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let filter_arg =
    let doc =
      "Only run targets whose key contains $(docv); $(b,--check) then \
       expects only the history keys that contain it."
    in
    Arg.(value & opt string "" & info [ "filter" ] ~docv:"SUBSTR" ~doc)
  in
  let check_arg =
    let doc =
      "After measuring, gate against the recorded trajectory: exit 1 \
       with a delta table when any key regressed beyond its tolerance \
       or went missing."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let seeded_regression_arg =
    let doc =
      "Plant a deliberate 3x slowdown on one measured key before the \
       check (the $(b,winnow) target when selected), so the regression \
       gate itself can be exit-code tested.  Implies $(b,--check); the \
       recorded history is never tampered."
    in
    Arg.(value & flag & info [ "seeded-regression" ] ~doc)
  in
  let history_arg =
    let doc = "Trajectory file to read (and with $(b,--record), append to)." in
    Arg.(value
         & opt string "BENCH_history.json"
         & info [ "history" ] ~docv:"FILE" ~doc)
  in
  let record_arg =
    let doc =
      "Append the measured results to the history as commit $(docv) \
       (atomic write: temp + rename)."
    in
    Arg.(value & opt (some string) None & info [ "record" ] ~docv:"COMMIT" ~doc)
  in
  let date_arg =
    let doc =
      "ISO date for $(b,--record) (defaults to today, UTC); pinning it \
       keeps recorded files reproducible."
    in
    Arg.(value & opt (some string) None & info [ "date" ] ~docv:"DATE" ~doc)
  in
  let tolerance_arg =
    let doc =
      "Default allowed slowdown versus baseline, in percent (per-key \
       registry overrides still apply)."
    in
    Arg.(value & opt (some float) None & info [ "tolerance" ] ~docv:"PCT" ~doc)
  in
  let window_arg =
    let doc = "Baseline = median of the last $(docv) recorded values." in
    Arg.(value & opt int 5 & info [ "window" ] ~docv:"K" ~doc)
  in
  let render_arg =
    let doc =
      "Print the BENCH.md trajectory page (sparkline table) generated \
       from the history and exit — deterministic: byte-identical for \
       the same history file."
    in
    Arg.(value & flag & info [ "render" ] ~doc)
  in
  let iso_today () =
    let tm = Unix.gmtime (Unix.time ()) in
    Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
  in
  let run verbose list_targets filter check seeded history_file record date
      tolerance window render stats =
    setup_logs verbose;
    let check = check || seeded in
    if list_targets then begin
      Printf.printf "%-24s %-12s %s\n" "key" "backend" "description";
      List.iter
        (fun (t : Sage_bench.Target.t) ->
          Printf.printf "%-24s %-12s %s\n" t.Sage_bench.Target.key
            t.Sage_bench.Target.backend t.Sage_bench.Target.descr)
        Sage_bench.Target.all;
      0
    end
    else
      match Sage_bench.History.load history_file with
      | Error msg ->
        Printf.eprintf "sage bench: %s: %s\n" history_file msg;
        1
      | Ok history ->
        if render then begin
          print_string (Sage_bench.Render.page ~window history);
          0
        end
        else begin
          let selected = Sage_bench.Target.filter filter in
          if selected = [] then begin
            Printf.eprintf "sage bench: no target matches --filter %S\n"
              filter;
            1
          end
          else
            let metrics = Sage_sched.Metrics.create () in
            match Sage_bench.Target.run_all ~metrics ~filter () with
            | exception Sage_bench.Target.Check_failed msg ->
              Printf.eprintf "sage bench: check failed: %s\n" msg;
              1
            | current ->
              Printf.printf "%-24s %14s %8s  %s\n" "key" "ns/iter" "iters"
                "backend";
              List.iter
                (fun (key, (s : Sage_bench.History.sample)) ->
                  Printf.printf "%-24s %14.1f %8d  %s\n" key
                    s.Sage_bench.History.ns s.Sage_bench.History.iters
                    s.Sage_bench.History.backend)
                current;
              let history =
                match record with
                | None -> history
                | Some commit ->
                  let date =
                    match date with Some d -> d | None -> iso_today ()
                  in
                  let record =
                    { Sage_bench.History.commit; date; entries = current }
                  in
                  let history = Sage_bench.History.append history record in
                  Sage_bench.History.save history_file history;
                  Printf.printf
                    "\n(recorded %d entr%s as commit %s (%s) in %s)\n"
                    (List.length record.Sage_bench.History.entries)
                    (if List.length record.Sage_bench.History.entries = 1
                     then "y"
                     else "ies")
                    commit date history_file;
                  history
              in
              let code =
                if not check then 0
                else begin
                  let checked =
                    if seeded then Sage_bench.Seeded_regression.tamper current
                    else current
                  in
                  (* a selected target, or a history key the filter
                     matches: either one absent from the run is MISSING *)
                  let expected =
                    List.map
                      (fun (t : Sage_bench.Target.t) -> t.Sage_bench.Target.key)
                      selected
                    @ List.filter
                        (fun key -> Sage_bench.Target.contains key filter)
                        (Sage_bench.History.keys history)
                  in
                  let report =
                    Sage_bench.Regress.check
                      ?default_tolerance:
                        (Option.map (fun p -> p /. 100.) tolerance)
                      ~window ~tolerance_of:Sage_bench.Target.tolerance_of
                      ~history ~expected ~current:checked ()
                  in
                  let count f =
                    List.length (List.filter f report.Sage_bench.Regress.lines)
                  in
                  Sage_sched.Metrics.incr metrics "bench.regressions"
                    ~by:
                      (count (fun l ->
                           match l.Sage_bench.Regress.status with
                           | Sage_bench.Regress.Regressed _ -> true
                           | _ -> false));
                  Sage_sched.Metrics.incr metrics "bench.new"
                    ~by:
                      (count (fun l ->
                           l.Sage_bench.Regress.status
                           = Sage_bench.Regress.New_key));
                  print_newline ();
                  print_string (Sage_bench.Regress.render report);
                  Sage_bench.Regress.exit_code report
                end
              in
              if stats then begin
                print_newline ();
                print_string (Sage.Report.metrics_stats ~title:"bench" metrics)
              end;
              code
        end
  in
  let doc =
    "Run the benchmark target registry — pipeline stages (nlp, ccg-parse, \
     winnow, codegen, analysis-dataflow, analysis-absint/iter), \
     generated-code execution (interp/iter, reference-echo-reply, \
     icmp-encode, sim-pps) and the verification loops (fuzz/iter, \
     fuzz-compiled/iter, interp-vs-compiled/iter, reqs/iter, chaos/tick) \
     — append per-commit results to the BENCH_history.json trajectory, \
     gate the current run against the recorded baseline (median of the \
     last K, per-key noise tolerance) and render the BENCH.md sparkline \
     page."
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(const run $ verbose_arg $ list_arg $ filter_arg $ check_arg
          $ seeded_regression_arg $ history_arg $ record_arg $ date_arg
          $ tolerance_arg $ window_arg $ render_arg $ stats_arg)

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc =
    "SAGE: semi-automated protocol disambiguation and code generation \
     (reproduction of Yen et al., SIGCOMM 2021)"
  in
  let info = Cmd.info "sage" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      parse_cmd; derivation_cmd; run_cmd; code_cmd; analyze_cmd;
      ambiguities_cmd; interop_cmd; corpus_cmd; reqs_cmd; fuzz_cmd;
      chaos_cmd; report_cmd; bench_cmd;
    ]

(* exit 2 on CLI usage errors (unknown flags, malformed values) — the
   cmdliner default (124) reads like a timeout in CI logs *)
let () =
  match Cmd.eval_value main_cmd with
  | Ok (`Ok code) -> exit code
  | Ok (`Version | `Help) -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 125
