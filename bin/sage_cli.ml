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
module Fixture = Sage_fixture.Fixture

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Common arguments.                                                   *)
(* ------------------------------------------------------------------ *)

(* "a, b or c" *)
let enumerate conj = function
  | [] -> ""
  | [ x ] -> x
  | xs ->
    let rev = List.rev xs in
    String.concat ", " (List.rev (List.tl rev)) ^ " " ^ conj ^ " " ^ List.hd rev

let corpus_name (c : P.corpus) = c.P.name

(* -p NAME and chaos's --corpus NAME: a row of [rows], a subset of the
   corpus table, named case-insensitively *)
let corpus_conv rows =
  let parse s =
    let s = String.lowercase_ascii s in
    match List.find_opt (fun c -> corpus_name c = s) rows with
    | Some c -> Ok c
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown corpus %S (choose from %s)" s
              (String.concat ", " (List.map corpus_name rows))))
  in
  Arg.conv (parse, Fmt.using corpus_name Fmt.string)

(* None when -p is absent, so that a verb can refuse an explicit one *)
let protocol_arg_of rows =
  let doc =
    "The corpus to use: "
    ^ enumerate "or" (List.map corpus_name rows)
    ^ ".  A name ending in $(b,-rw) is the text a human rewrote after the \
       ambiguity report."
  in
  Arg.(value
       & opt (some ~none:(corpus_name (List.hd rows)) (corpus_conv rows)) None
       & info [ "p"; "protocol" ] ~docv:"NAME" ~doc)

let corpus_arg_of rows =
  Term.(const (Option.value ~default:(List.hd rows)) $ protocol_arg_of rows)

let protocol_arg = protocol_arg_of P.corpora
let corpus_arg = corpus_arg_of P.corpora

let spec_arg = Term.(const (fun (c : P.corpus) -> c.P.spec ()) $ corpus_arg)

let sentence_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SENTENCE")

let format_arg =
  let doc = "Output format: $(b,text) (default) or $(b,json)." in
  Arg.(value
       & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
       & info [ "format" ] ~docv:"FMT" ~doc)

(* An integer below [min] is a usage error (exit 2): a zero iteration
   count would otherwise pass vacuously, and a negative --jobs would
   run as another value. *)
let int_at_least min =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "must be >= %d, got %d" min n))
    | None ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
  in
  Arg.conv (parse, Fmt.int)

let jobs_arg =
  let doc =
    "Parallel workers for the sentence-analysis phase (0 = auto-detect one \
     per core).  Needs OCaml 5 domains; on older compilers the run \
     degrades to sequential.  Output is byte-identical for any value."
  in
  Arg.(value & opt (int_at_least 0) 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* One chart cache per process: every run a verb makes shares it, and
   a repeated token sequence parses once *)
let cache = Sage.Chart_cache.create ()

let run_pipeline ?(jobs = 1) ?trace corpus =
  let jobs = if jobs <= 0 then Sage_sched.Pool.default_jobs () else jobs in
  P.run_corpus ~jobs ~cache ?trace corpus

(* A file a run writes is checked before the run, so that a path that
   cannot be written exits 2 at once instead of after the whole run. *)
let cannot_write ~verb file e =
  Printf.eprintf "sage %s: cannot write %s: %s\n" verb file
    (Unix.error_message e);
  exit 2

let open_output ~verb file =
  try
    Unix.out_channel_of_descr
      (Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o666)
  with Unix.Unix_error (e, _, _) -> cannot_write ~verb file e

let stats_arg =
  let doc =
    "After the run's own output, print its profile: per event name of \
     the run's trace, span calls with total and per-call time, instant \
     counts and the last counter value, sorted by name."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

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

(* The tracer term: it hands the verb's body one tracer when --trace or
   --stats asks for one, else None.  --trace writes the events to a
   file, opened before the body runs; --stats prints their profile
   after the body's own stdout. *)
let tracer_arg verb =
  let traced trace_file trace_format clock stats body =
    if trace_file = None && not stats then body None
    else begin
      let out =
        Option.map
          (fun file ->
            let file =
              if file <> "" then file
              else
                match trace_format with
                | Sage_trace.Trace.Json -> "sage-trace.json"
                | Sage_trace.Trace.Text -> "sage-trace.txt"
            in
            (file, open_output ~verb file))
          trace_file
      in
      let tracer = Sage_trace.Trace.create ~clock () in
      let result = body (Some tracer) in
      Option.iter
        (fun (file, oc) ->
          output_string oc (Sage_trace.Trace.render trace_format tracer);
          close_out oc;
          Printf.eprintf "trace: %s -> %s\n%!"
            (Sage_trace.Trace.summary tracer) file)
        out;
      if stats then begin
        print_newline ();
        print_string (Sage_trace.Trace.profile_to_text tracer)
      end;
      result
    end
  in
  Term.(const traced $ trace_arg $ trace_format_arg $ trace_clock_arg
        $ stats_arg)

let seed_arg =
  let doc = "PRNG seed: the same seed reproduces the identical run." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

(* --check-reqs on fuzz and chaos: the requirements oracle *)
let check_reqs_arg =
  let doc =
    "Enforce the mined RFC 2119 requirements (see $(b,sage reqs)) on every \
     execution of the generated code: a checkable requirement whose guard \
     holds on the input must see its obligation met by the outcome, or the \
     run reports a violation carrying the RQ id and source sentence."
  in
  Arg.(value & flag & info [ "check-reqs" ] ~doc)

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

(* --seeded NAME: the fixtures Fixture.all registers for [verb] *)
let seeded_arg verb =
  let fixtures =
    List.filter (fun f -> List.mem verb (Fixture.verbs f)) Fixture.all
  in
  let doc =
    String.concat "  "
      ("Plant a known defect, as a self-test that an oracle fires: the run \
        must exit 1, or exit 2 when it lacks the fixture's target."
      :: List.map
           (fun f -> Printf.sprintf "$(b,%s) %s" (Fixture.name f) (Fixture.doc f))
           fixtures)
  in
  Arg.(value
       & opt (some (enum (List.map (fun f -> (Fixture.name f, f)) fixtures)))
           None
       & info [ "seeded" ] ~docv:"NAME" ~doc)

(* A fixture that changes nothing would pass vacuously: refuse the run
   with exit 2, saying what it needs. *)
let refuse_vacuous ~verb fixture = function
  | None -> ()
  | Some need ->
    Printf.eprintf
      "sage %s: --seeded %s changes nothing in this run; it needs %s\n" verb
      (Fixture.name fixture) need;
    exit 2

(* The generated IR of a fuzz or analyze run under its fixture. *)
let seeded_ir ~verb seeded funcs =
  match seeded with
  | None -> funcs
  | Some f ->
    refuse_vacuous ~verb f (Fixture.vacuous_ir f funcs);
    Fixture.rewrite f funcs

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
  let field_arg =
    let doc = "Field name providing context (enables subject supply)." in
    Arg.(value & opt (some string) None & info [ "field" ] ~docv:"FIELD" ~doc)
  in
  let run spec field sentence =
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
    Term.(const run $ spec_arg $ field_arg $ sentence_arg)

(* ------------------------------------------------------------------ *)
(* sage derivation                                                     *)
(* ------------------------------------------------------------------ *)

let derivation_cmd =
  let run spec sentence =
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
    Term.(const run $ spec_arg $ sentence_arg)

(* ------------------------------------------------------------------ *)
(* sage run                                                            *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let verbose_arg =
    let doc = "Also print every sentence's parse status." in
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc)
  in
  let run corpus verbose jobs traced =
    traced @@ fun trace ->
    let result = run_pipeline ~jobs ?trace corpus in
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
    0
  in
  let doc = "Run the full pipeline (parse, winnow, generate) over a corpus." in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(const run $ corpus_arg $ verbose_arg $ jobs_arg $ tracer_arg "run")

(* ------------------------------------------------------------------ *)
(* sage code                                                           *)
(* ------------------------------------------------------------------ *)

let code_cmd =
  let fn_arg =
    let doc = "Print only this generated function." in
    Arg.(value & opt (some string) None & info [ "f"; "function" ] ~docv:"NAME" ~doc)
  in
  let run corpus jobs fn =
    let result = run_pipeline ~jobs corpus in
    match fn with
    | None ->
      print_string result.P.codegen.P.c_code;
      0
    | Some name ->
      (match P.find_function result name with
       | Some f ->
         print_endline (Sage_codegen.C_printer.render_func f);
         0
       | None ->
         Printf.eprintf "no function %S; available:\n" name;
         List.iter
           (fun f -> Printf.eprintf "  %s\n" f.Sage_codegen.Ir.fn_name)
           result.P.codegen.P.functions;
         2)
  in
  let doc = "Print the generated C code (structs, framework, functions)." in
  Cmd.v
    (Cmd.info "code" ~doc)
    Term.(const run $ corpus_arg $ jobs_arg $ fn_arg)

(* ------------------------------------------------------------------ *)
(* sage analyze                                                        *)
(* ------------------------------------------------------------------ *)

let analyze_cmd =
  let prove_arg =
    let doc =
      "Report the SA007 proof summary on stderr — which functions are \
       statically proved in-bounds for every packet length — and exit \
       nonzero on any Error-severity finding (unless $(b,--fail-on) says \
       otherwise)."
    in
    Arg.(value & flag & info [ "prove" ] ~doc)
  in
  let run corpus jobs fail_on prove seeded format =
    let result = run_pipeline ~jobs corpus in
    let funcs = seeded_ir ~verb:"analyze" seeded result.P.codegen.P.functions in
    let diagnostics =
      (* a fixture changes the program under analysis, so it
         re-analyzes; the unseeded path reuses the pipeline's
         diagnostics, sentence provenance included *)
      if seeded = None then result.P.diagnostics
      else
        Sage_analysis.Analyzer.analyze_program
          ~struct_of_function:result.P.codegen.P.struct_of_function funcs
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
     (SA010) and FSM wedge states (SA011).  Findings carry stable SA0xx \
     codes, statement ids and, where recoverable, the specification \
     sentence involved; JSON output is sorted and byte-identical across \
     $(b,--jobs)."
  in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(const run $ corpus_arg $ jobs_arg $ fail_on_arg $ prove_arg
          $ seeded_arg "analyze" $ format_arg)

(* ------------------------------------------------------------------ *)
(* sage ambiguities                                                    *)
(* ------------------------------------------------------------------ *)

let ambiguities_cmd =
  let run corpus jobs =
    let result = run_pipeline ~jobs corpus in
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
    Term.(const run $ corpus_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* sage interop                                                        *)
(* ------------------------------------------------------------------ *)

let interop_cmd =
  let run corpus fault_seed fault_plan traced =
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
    traced @@ fun trace ->
    let result = run_pipeline ?trace corpus in
    let stack = Sage_sim.Generated_stack.of_run ?trace result in
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
       form $(i,KIND[:ARGS]@PROBABILITY), e.g. \
       'drop@0.1,dup@0.05,delay:3@0.2,corrupt:8:0x04@0.02,\
       truncate:20@0.1,reorder@0.1'.  Runs are reproducible for a fixed \
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
    Term.(const run
          $ corpus_arg_of
              (List.filter (fun (c : P.corpus) -> c.P.proto = "icmp") P.corpora)
          $ fault_seed_arg $ fault_plan_arg $ tracer_arg "interop")

(* ------------------------------------------------------------------ *)
(* sage corpus                                                         *)
(* ------------------------------------------------------------------ *)

let corpus_cmd =
  let run (corpus : P.corpus) =
    let doc = Sage_rfc.Document.parse ~title:corpus.P.title corpus.P.text in
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
    Term.(const run $ corpus_arg)

(* ------------------------------------------------------------------ *)
(* sage reqs                                                           *)
(* ------------------------------------------------------------------ *)

let reqs_cmd =
  let corpus_arg =
    let doc =
      "Mine every corpus (all 8, including the rewritten variants) and \
       print a per-corpus summary table instead of one protocol's \
       requirement list."
    in
    Arg.(value & flag & info [ "corpus" ] ~doc)
  in
  let run proto jobs corpus format =
    (* --corpus prints one text table over every corpus: a flag that
       picks a corpus or a format would be ignored *)
    if corpus && (proto <> None || format = `Json) then begin
      prerr_endline
        "sage reqs: --corpus prints one text table over every corpus; it \
         takes no -p or --format json";
      2
    end
    else if corpus then begin
      Printf.printf "%-8s  %5s  %8s  %9s\n" "corpus" "mined" "compiled"
        "checkable";
      List.iter
        (fun (c : P.corpus) ->
          let result = run_pipeline ~jobs c in
          let mined, compiled, checkable =
            Sage_reqs.Render.summary_counts result.P.requirements
          in
          Printf.printf "%-8s  %5d  %8d  %9d\n" c.P.name mined compiled
            checkable)
        P.corpora;
      0
    end
    else begin
      let result =
        run_pipeline ~jobs (Option.value proto ~default:(List.hd P.corpora))
      in
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
    Term.(const run $ protocol_arg $ jobs_arg $ corpus_arg $ format_arg)

(* ------------------------------------------------------------------ *)
(* sage fuzz                                                           *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let iters_arg =
    let doc = "Number of fuzz iterations (at least 1)." in
    Arg.(value & opt (int_at_least 1) 2000 & info [ "iters" ] ~docv:"N" ~doc)
  in
  let coverage_out_arg =
    let doc = "Write per-function IR statement coverage as JSON to $(docv)." in
    Arg.(value
         & opt (some string) None
         & info [ "coverage-out" ] ~docv:"FILE" ~doc)
  in
  let check_proofs_arg =
    let doc =
      "Cross-validate the static SA007 bounds proofs: run the analyzer \
       first and assert no never-raise finding ever fires on a proved \
       function.  A violation means the static proof layer is unsound."
    in
    Arg.(value & flag & info [ "check-proofs" ] ~doc)
  in
  let run corpus jobs seed iters seeded check_proofs check_reqs coverage_out
      traced =
    let coverage = Option.map (open_output ~verb:"fuzz") coverage_out in
    traced @@ fun trace ->
    let check_reqs = check_reqs || seeded = Some Fixture.Violation in
    let result = run_pipeline ~jobs ?trace corpus in
    let funcs = seeded_ir ~verb:"fuzz" seeded result.P.codegen.P.functions in
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
    let reqs = if check_reqs then result.P.requirements else [] in
    let fz =
      Sage_fuzz.Engine.run ?trace ~backend:Sage_backend.Backend.Compiled
        ?load:(Option.map Fixture.load seeded) ~proved ~reqs ~seed ~iters
        ~protocol:result.P.spec.P.protocol targets
    in
    print_string (Sage_fuzz.Engine.summary fz);
    Option.iter
      (fun oc ->
        output_string oc
          (Sage_interp.Coverage.to_json fz.Sage_fuzz.Engine.coverage
             fz.Sage_fuzz.Engine.funcs);
        close_out oc)
      coverage;
    if fz.Sage_fuzz.Engine.findings = [] then 0 else 1
  in
  let doc =
    "Fuzz the generated code on the compiled backend: grammar-based \
     packets from the recovered layouts, IR statement coverage guidance, \
     and a differential oracle suite (reference decoders, round-trip \
     identity, checksum verification, and agreement with the reference \
     interpreter, which re-runs every iteration).  Deterministic for a \
     fixed seed; exits nonzero when any oracle finding is reported."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(const run $ corpus_arg $ jobs_arg $ seed_arg $ iters_arg
          $ seeded_arg "fuzz" $ check_proofs_arg $ check_reqs_arg
          $ coverage_out_arg $ tracer_arg "fuzz")

(* ------------------------------------------------------------------ *)
(* sage chaos                                                          *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let corpus_arg =
    let doc =
      "Restrict the campaign to this corpus (repeatable; default: all 8)."
    in
    Arg.(value
         & opt_all (corpus_conv P.corpora) []
         & info [ "corpus" ] ~docv:"NAME" ~doc)
  in
  let schedule_conv =
    (* a built-in scenario's name, else a file containing a schedule, else
       an inline one; the case label is the scenario's name or
       "schedule".  The episode grammar embeds the --fault-plan rule
       grammar in storm(...) *)
    let parse s =
      match Sage_chaos.Scenario.find s with
      | Some sched -> Ok (s, sched)
      | None -> (
        let spec =
          if Sys.file_exists s && not (Sys.is_directory s) then
            String.trim (In_channel.with_open_bin s In_channel.input_all)
          else s
        in
        match Sage_chaos.Episode.of_string spec with
        | Ok sched -> Ok ("schedule", sched)
        | Error e ->
          Error
            (`Msg
               (Printf.sprintf "%s; or a built-in scenario: %s" e
                  (String.concat ", " Sage_chaos.Scenario.names))))
    in
    let print ppf (_, s) = Fmt.string ppf (Sage_chaos.Episode.to_string s) in
    Arg.conv (parse, print)
  in
  let schedule_arg =
    let doc =
      "Run one schedule instead of all the built-in scenarios: a built-in \
       scenario's name ($(b,flaky), $(b,partition), $(b,outage) or \
       $(b,blackout)), a file containing a schedule, or an inline one.  \
       Grammar: episodes separated by $(b,;), each $(b,partition:N), \
       $(b,crash:N), $(b,heal:N) or $(b,storm(PLAN):N) where PLAN is the \
       $(b,--fault-plan) grammar; the schedule must end with a heal \
       episode."
    in
    Arg.(value & opt (some schedule_conv) None
         & info [ "schedule" ] ~docv:"NAME|SPEC|FILE" ~doc)
  in
  let soak_arg =
    let doc = "Stretch every schedule's final heal window by $(docv) ticks." in
    Arg.(value & opt (int_at_least 0) 0 & info [ "soak" ] ~docv:"TICKS" ~doc)
  in
  let run jobs seed schedule soak seeded check_reqs corpora_sel traced =
    traced @@ fun trace ->
    let corpora =
      Sage_chaos.Campaign.cases
        ~run:(fun c -> run_pipeline ~jobs ?trace c)
        (if corpora_sel = [] then P.corpora
         else
           (* a repeated --corpus names the corpus once: the conv
              returns the table's own rows *)
           List.fold_left
             (fun acc c -> if List.memq c acc then acc else acc @ [ c ])
             [] corpora_sel)
    in
    let scenarios =
      match schedule with
      | Some s -> [ s ]
      | None -> Sage_chaos.Scenario.builtins
    in
    Option.iter
      (fun f ->
        refuse_vacuous ~verb:"chaos" f
          (Fixture.vacuous_chaos f (List.map snd scenarios)))
      seeded;
    let campaign =
      Sage_chaos.Campaign.run ?trace ~soak
        ?arm:(Option.map Fixture.arm seeded) ~check_reqs ~seed ~scenarios
        ~corpora ()
    in
    print_string (Sage_chaos.Campaign.summary campaign);
    Sage_chaos.Campaign.exit_code campaign
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
    Term.(const run $ jobs_arg $ seed_arg $ schedule_arg $ soak_arg
          $ seeded_arg "chaos" $ check_reqs_arg $ corpus_arg
          $ tracer_arg "chaos")

(* ------------------------------------------------------------------ *)
(* sage report                                                         *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let run corpus jobs traced =
    traced @@ fun trace ->
    print_string (Sage.Report.markdown (run_pipeline ~jobs ?trace corpus));
    0
  in
  let doc =
    "Produce the markdown report a spec author reads in the feedback loop: \
     summary, rewrite worklist, non-actionable sentences, static-analysis \
     findings, generated functions and recovered layouts."
  in
  Cmd.v
    (Cmd.info "report" ~doc)
    Term.(const run $ corpus_arg $ jobs_arg $ tracer_arg "report")

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
  let run list_targets filter check seeded history_file record date
      tolerance render =
    let check = check || seeded <> None in
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
          print_string (Sage_bench.Render.page history);
          0
        end
        else begin
          (* --record renames a temp file over the history: its
             directory must be writable *)
          (try
             if record <> None then
               Unix.access (Filename.dirname history_file) [ Unix.W_OK ]
           with Unix.Unix_error (e, _, _) ->
             cannot_write ~verb:"bench" history_file e);
          let selected = Sage_bench.Target.filter filter in
          if selected = [] then begin
            Printf.eprintf "sage bench: no target matches --filter %S\n"
              filter;
            1
          end
          else
            match Sage_bench.Target.run_all ~filter () with
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
              (match record with
               | None -> ()
               | Some commit ->
                 let date =
                   match date with Some d -> d | None -> iso_today ()
                 in
                 let record =
                   { Sage_bench.History.commit; date; entries = current }
                 in
                 Sage_bench.History.save history_file
                   (Sage_bench.History.append history record);
                 Printf.printf
                   "\n(recorded %d entr%s as commit %s (%s) in %s)\n"
                   (List.length record.Sage_bench.History.entries)
                   (if List.length record.Sage_bench.History.entries = 1
                    then "y"
                    else "ies")
                   commit date history_file);
              if not check then 0
              else begin
                let checked =
                  Option.fold ~none:current
                    ~some:(fun f -> Fixture.slow f current)
                    seeded
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
                (* [history] is the file as loaded, without the record
                   just appended: a new sample must never sit inside its
                   own baseline window *)
                let report =
                  Sage_bench.Regress.check
                    ?default_tolerance:
                      (Option.map (fun p -> p /. 100.) tolerance)
                    ~tolerance_of:Sage_bench.Target.tolerance_of
                    ~history ~expected ~current:checked ()
                in
                print_newline ();
                print_string (Sage_bench.Regress.render report);
                Sage_bench.Regress.exit_code report
              end
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
     last 5, per-key noise tolerance) and render the BENCH.md sparkline \
     page."
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(const run $ list_arg $ filter_arg $ check_arg $ seeded_arg "bench"
          $ history_arg $ record_arg $ date_arg $ tolerance_arg $ render_arg)

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
