module Lf = Sage_logic.Lf
module Chunker = Sage_nlp.Chunker
module Dict = Sage_nlp.Term_dictionary
module Document = Sage_rfc.Document
module Hd = Sage_rfc.Header_diagram
module Winnow = Sage_disambig.Winnow
module Checks = Sage_disambig.Checks
module Ir = Sage_codegen.Ir
module Context = Sage_codegen.Context
module Generate = Sage_codegen.Generate
module Assemble = Sage_codegen.Assemble
module Trace = Sage_trace.Trace

type spec = {
  protocol : string;
  lexicon : Sage_ccg.Lexicon.t;
  dictionary : Dict.t;
  extra_checks : Checks.check list;
  annotated_non_actionable : string list;
}

let icmp_spec () =
  {
    protocol = "ICMP";
    lexicon = Sage_ccg.Lexicon.icmp ();
    dictionary =
      Dict.extend (Dict.base ()) Sage_corpus.Icmp_rfc.dictionary_extension;
    extra_checks = [];
    annotated_non_actionable = Sage_corpus.Icmp_rfc.annotated_non_actionable;
  }

let igmp_spec () =
  {
    protocol = "IGMP";
    lexicon = Sage_ccg.Lexicon.igmp ();
    dictionary =
      Dict.extend (Dict.base ())
        (Sage_corpus.Icmp_rfc.dictionary_extension
        @ Sage_corpus.Igmp_rfc.dictionary_extension);
    extra_checks = [];
    annotated_non_actionable = Sage_corpus.Igmp_rfc.annotated_non_actionable;
  }

let ntp_spec () =
  {
    protocol = "NTP";
    lexicon = Sage_ccg.Lexicon.ntp ();
    dictionary =
      Dict.extend (Dict.base ())
        (Sage_corpus.Icmp_rfc.dictionary_extension
        @ Sage_corpus.Igmp_rfc.dictionary_extension
        @ Sage_corpus.Ntp_rfc.dictionary_extension);
    extra_checks = [];
    annotated_non_actionable = Sage_corpus.Ntp_rfc.annotated_non_actionable;
  }

let tcp_spec () =
  {
    protocol = "TCP";
    lexicon = Sage_ccg.Lexicon.bfd ();
    dictionary =
      Dict.extend (Dict.base ()) Sage_corpus.Tcp_rfc.dictionary_extension;
    extra_checks = [];
    annotated_non_actionable = Sage_corpus.Tcp_rfc.annotated_non_actionable;
  }

let bgp_spec () =
  {
    protocol = "BGP";
    lexicon = Sage_ccg.Lexicon.bgp ();
    dictionary =
      Dict.extend (Dict.base ()) Sage_corpus.Bgp_rfc.dictionary_extension;
    extra_checks = [];
    annotated_non_actionable = Sage_corpus.Bgp_rfc.annotated_non_actionable;
  }

let bfd_spec () =
  {
    protocol = "BFD";
    lexicon = Sage_ccg.Lexicon.bfd ();
    dictionary =
      Dict.extend
        (Dict.extend (Dict.base ()) Sage_nlp.Term_dictionary.bfd_state_variables)
        Sage_corpus.Bfd_rfc.dictionary_extension;
    extra_checks = [];
    annotated_non_actionable = Sage_corpus.Bfd_rfc.annotated_non_actionable;
  }

type corpus = {
  name : string;
  proto : string;
  rewritten : bool;
  spec : unit -> spec;
  title : string;
  text : string;
}

let corpora =
  let original proto spec title text =
    { name = proto; proto; rewritten = false; spec; title; text }
  in
  let rewritten proto spec title text =
    { name = proto ^ "-rw"; proto; rewritten = true; spec; title; text }
  in
  let open Sage_corpus in
  [
    original "icmp" icmp_spec Icmp_rfc.title Icmp_rfc.text;
    rewritten "icmp" icmp_spec Icmp_rfc.title Icmp_rfc.rewritten_text;
    original "igmp" igmp_spec Igmp_rfc.title Igmp_rfc.text;
    original "ntp" ntp_spec Ntp_rfc.title Ntp_rfc.text;
    original "bfd" bfd_spec Bfd_rfc.title Bfd_rfc.text;
    rewritten "bfd" bfd_spec Bfd_rfc.title Bfd_rfc.rewritten_text;
    original "tcp" tcp_spec Tcp_rfc.title Tcp_rfc.text;
    original "bgp" bgp_spec Bgp_rfc.title Bgp_rfc.text;
  ]

let find_corpus name = List.find (fun c -> c.name = name) corpora

type status =
  | Annotated_non_actionable
  | Zero_lf
  | Ambiguous of Lf.t list
  | Parsed of Lf.t
  | Subject_supplied of Lf.t
  | Crashed of string
      (* the analysis of this one sentence raised; captured here so the
         rest of the document still processes *)

type sentence_report = {
  sentence : string;
  message : string option;
  field : string option;
  base_lf_count : int;
  trace : Winnow.trace option;
  status : status;
}

type codegen_report = {
  functions : Ir.func list;
  structs : Hd.t list;
  struct_of_function : (string * Hd.t) list;
  non_actionable : (string * string) list;
  c_code : string;
}

type run = {
  spec : spec;
  document : Document.t;
  sentences : sentence_report list;
  codegen : codegen_report;
  diagnostics : Sage_analysis.Diagnostic.t list;
  requirements : Sage_reqs.Req.t list;
}

let status_label = function
  | Annotated_non_actionable -> "annotated-non-actionable"
  | Zero_lf -> "zero-lf"
  | Ambiguous _ -> "ambiguous"
  | Parsed _ -> "parsed"
  | Subject_supplied _ -> "subject-supplied"
  | Crashed _ -> "crashed"

(* keep per-sentence trace args bounded; ellipsis marks the cut *)
let clip ?(max = 120) s =
  if String.length s <= max then s else String.sub s 0 max ^ "..."

(* runs of spaces collapse to one, so an annotated prefix matches however
   the sentence was wrapped *)
let squeeze_spaces s =
  String.concat " " (List.filter (fun w -> w <> "") (String.split_on_char ' ' s))

(* [String.starts_with ~prefix:(squeeze_spaces prefix) s] for an [s] that
   is already squeezed, reading [prefix] in place: [i] walks [prefix], [j]
   walks [s], and [sep] is set between two words of [prefix], where [s]
   must hold one space. *)
let rec squeezed_prefix prefix s i j sep =
  if i = String.length prefix then true
  else if prefix.[i] = ' ' then squeezed_prefix prefix s (i + 1) j (sep || j > 0)
  else if sep then
    j < String.length s && s.[j] = ' ' && squeezed_prefix prefix s i (j + 1) false
  else
    j < String.length s && prefix.[i] = s.[j]
    && squeezed_prefix prefix s (i + 1) (j + 1) false

(* A synthetic NP chunk used when supplying the missing subject. *)
let subject_chunk field =
  {
    Chunker.text = field;
    is_np = true;
    tokens = [ Sage_nlp.Token.v Sage_nlp.Token.Word field ];
  }

let copula_chunk =
  {
    Chunker.text = "is";
    is_np = false;
    tokens = [ Sage_nlp.Token.v Sage_nlp.Token.Word "is" ];
  }

let analyze_sentence_body spec ?message ?field ?cache ?trace sentence =
  let annotated =
    let s = squeeze_spaces sentence in
    List.exists (fun p -> squeezed_prefix p s 0 0 false) spec.annotated_non_actionable
  in
  if annotated then
    {
      sentence;
      message;
      field;
      base_lf_count = 0;
      trace = None;
      status = Annotated_non_actionable;
    }
  else begin
    let parse chunks =
      Chart_cache.parse ?cache ?trace ~protocol:spec.protocol
        ~lexicon:spec.lexicon chunks
    in
    let chunks =
      Chunker.drop_terminator
        (Chunker.chunk_sentence ~dict:spec.dictionary sentence)
    in
    let result = parse chunks in
    let winnowed lfs =
      let tr = Winnow.winnow ~extra_checks:spec.extra_checks lfs in
      Trace.instant ~cat:"pipeline"
        ~args:
          [
            ("lfs_before", Trace.Int tr.Winnow.base);
            ("lfs_after", Trace.Int (List.length tr.Winnow.survivors));
          ]
        trace "winnow";
      tr
    in
    let finish ~supplied base_count tr =
      match tr.Winnow.survivors with
      | [ lf ] ->
        {
          sentence;
          message;
          field;
          base_lf_count = base_count;
          trace = Some tr;
          status = (if supplied then Subject_supplied lf else Parsed lf);
        }
      | [] ->
        { sentence; message; field; base_lf_count = base_count;
          trace = Some tr; status = Zero_lf }
      | many ->
        { sentence; message; field; base_lf_count = base_count;
          trace = Some tr; status = Ambiguous many }
    in
    if result.Sage_ccg.Parser.lfs <> [] then
      finish ~supplied:false
        (List.length result.Sage_ccg.Parser.lfs)
        (winnowed result.Sage_ccg.Parser.lfs)
    else begin
      (* zero logical forms: if this is a field description, re-parse with
         the field supplied as the subject (paper §4.1) *)
      match field with
      | None ->
        { sentence; message; field; base_lf_count = 0; trace = None;
          status = Zero_lf }
      | Some fname ->
        let attempts =
          [
            (* "<field> is <fragment>" for noun-phrase fragments *)
            subject_chunk fname :: copula_chunk :: chunks;
            (* "If ..., <field> <verb phrase>" — insert after the comma *)
            (let rec insert_after_comma = function
               | [] -> [ subject_chunk fname ]
               | ({ Chunker.tokens = [ t ]; _ } as c) :: rest
                 when t.Sage_nlp.Token.text = "," ->
                 c :: subject_chunk fname :: rest
               | c :: rest -> c :: insert_after_comma rest
             in
             insert_after_comma chunks);
            (* bare prepend without copula *)
            subject_chunk fname :: chunks;
          ]
        in
        let rec try_attempts = function
          | [] ->
            { sentence; message; field; base_lf_count = 0; trace = None;
              status = Zero_lf }
          | attempt :: rest ->
            let r = parse attempt in
            if r.Sage_ccg.Parser.lfs = [] then try_attempts rest
            else
              let tr = winnowed r.Sage_ccg.Parser.lfs in
              (match tr.Winnow.survivors with
               | [ _ ] ->
                 finish ~supplied:true (List.length r.Sage_ccg.Parser.lfs) tr
               | _ -> try_attempts rest)
        in
        try_attempts attempts
    end
  end

(* Per-sentence span wrapper: the Begin event carries the sentence's
   provenance (clipped text, message, field), the End event its outcome
   (status + LF count before winnowing). *)
let analyze_sentence spec ?message ?field ?struct_def:_ ?cache ?trace sentence =
  let span_args =
    ("sentence", Trace.Str (clip sentence))
    :: ((match message with Some m -> [ ("message", Trace.Str m) ] | None -> [])
       @ match field with Some f -> [ ("field", Trace.Str f) ] | None -> [])
  in
  let sp = Trace.span ~cat:"pipeline" ~args:span_args trace "sentence" in
  match
    analyze_sentence_body spec ?message ?field ?cache ?trace sentence
  with
  | report ->
    Trace.close trace sp
      ~args:
        [
          ("status", Trace.Str (status_label report.status));
          ("base_lfs", Trace.Int report.base_lf_count);
        ];
    report
  | exception exn ->
    Trace.close trace sp ~args:[ ("status", Trace.Str "raised") ];
    raise exn

(* ------------------------------------------------------------------ *)
(* Variants: one generated function per message form.                  *)
(* ------------------------------------------------------------------ *)

let variants_of_section (section : Document.section) =
  let name = section.Document.message_name in
  (* "Echo or Echo Reply Message" -> two variants *)
  let split =
    (* split on " or " case-insensitively *)
    let lower = String.lowercase_ascii name in
    match
      let rec find i =
        if i + 4 > String.length lower then None
        else if String.sub lower i 4 = " or " then Some i
        else find (i + 1)
      in
      find 0
    with
    | Some i ->
      [ String.sub name 0 i;
        String.sub name (i + 4) (String.length name - i - 4) ]
    | None -> [ name ]
  in
  let with_message_suffix n =
    let ln = String.lowercase_ascii n in
    if
      String.length ln >= 7
      && String.sub ln (String.length ln - 7) 7 = "message"
    then n
    else n ^ " Message"
  in
  List.map
    (fun n ->
      let full = with_message_suffix (String.trim n) in
      let role =
        let l = String.lowercase_ascii full in
        let rec contains i =
          i + 5 <= String.length l && (String.sub l i 5 = "reply" || contains (i + 1))
        in
        if contains 0 then Ir.Receiver else Ir.Sender
      in
      (full, role))
    split

let fixed_assignments_for_variant (section : Document.section) variant_name =
  List.concat_map
    (fun (fd : Document.field_desc) ->
      let ident = fd.Document.field_ident in
      List.concat_map
        (function
          | Document.Fixed_value v -> [ (ident, v) ]
          | Document.Code_values cvs ->
            List.filter_map
              (fun (cv : Document.code_value) ->
                if
                  Assemble.message_matches ~target:cv.Document.meaning
                    ~variant:variant_name
                then Some (ident, cv.Document.value)
                else None)
              cvs
          | Document.Prose _ | Document.Pseudo _ -> [])
        fd.Document.content)
    section.Document.fields

(* ------------------------------------------------------------------ *)
(* run_document: the corpus pipeline in four phases.                   *)
(*                                                                     *)
(*   1. a cheap sequential prepass resolves each section's header      *)
(*      diagram and flattens every prose sentence into an analysis     *)
(*      job, in document order;                                        *)
(*   2. the analysis phase — chunk, CCG-parse (through the shared      *)
(*      chart cache) and winnow — is embarrassingly parallel across    *)
(*      sentences and fans out over domains via Sage_sched.Pool,       *)
(*      whose map returns reports in job order;                        *)
(*   3. the codegen phase replays the sections sequentially in         *)
(*      document order over those reports;                             *)
(*   4. the static-analysis phase runs Sage_analysis over the          *)
(*      generated functions, resolving each finding back to the spec   *)
(*      sentence whose placement produced the statement.               *)
(*                                                                     *)
(* Because phase 2 preserves order, phases 1/3 are sequential and      *)
(* phase 4 sorts its findings, the run is byte-identical for any jobs  *)
(* count (test/test_parallel.ml).                                      *)
(* ------------------------------------------------------------------ *)

type work =
  | Prose_job of int            (* index into the analysis job array *)
  | Pseudo_block of string

type section_plan = {
  plan_section : Document.section;
  plan_struct_def : Hd.t option;
  plan_msg : string;
  plan_variants : (string * Ir.role) list;
  plan_gen_role : Ir.role;
  plan_works : work list;
}

type analysis_job = {
  job_field : string option;
  job_msg : string;
  job_sentence : string;
}

let run_document ?(jobs = 1) ?cache ?trace spec ~title ~text =
  Trace.with_span ~cat:"pipeline"
    ~args:
      [
        ("protocol", Trace.Str spec.protocol);
        ("title", Trace.Str title);
        ("jobs", Trace.Int jobs);
      ]
    trace "document"
  @@ fun () ->
  let prepass_span = Trace.span ~cat:"pipeline" trace "phase:prepass" in
  let document = Document.parse ~title text in
  (* ---- phase 1: prepass ---- *)
  let rev_jobs = ref [] and n_jobs = ref 0 in
  let new_job job =
    let i = !n_jobs in
    incr n_jobs;
    rev_jobs := job :: !rev_jobs;
    Prose_job i
  in
  let last_diagram = ref None in
  let plans =
    List.map
      (fun (section : Document.section) ->
        (* sections without their own diagram (e.g. BFD §6.8.6) refer to
           the most recent packet format in the document *)
        let struct_def =
          match section.Document.diagram with
          | Some d ->
            last_diagram := Some d;
            Some d
          | None -> !last_diagram
        in
        let msg = section.Document.message_name in
        let variants = variants_of_section section in
        let section_has_reply =
          List.exists (fun (_, r) -> r = Ir.Receiver) variants
        in
        let works = ref [] in
        let prose ?field sentence =
          works :=
            new_job
              { job_field = field; job_msg = msg; job_sentence = sentence }
            :: !works
        in
        List.iter
          (fun (fd : Document.field_desc) ->
            List.iter
              (function
                | Document.Prose sentences ->
                  List.iter (prose ~field:fd.Document.field_name) sentences
                | Document.Pseudo block -> works := Pseudo_block block :: !works
                | Document.Fixed_value _ | Document.Code_values _ -> ())
              fd.Document.content)
          (section.Document.fields @ section.Document.ip_fields);
        List.iter (fun s -> prose s) section.Document.description;
        {
          plan_section = section;
          plan_struct_def = struct_def;
          plan_msg = msg;
          plan_variants = variants;
          plan_gen_role = (if section_has_reply then Ir.Receiver else Ir.Sender);
          plan_works = List.rev !works;
        })
      document.Document.sections
  in
  let job_array = Array.of_list (List.rev !rev_jobs) in
  Trace.close trace prepass_span
    ~args:[ ("jobs", Trace.Int (Array.length job_array)) ];
  (* ---- phase 2: sentence analysis (parallel) ---- *)
  let analysis_span = Trace.span ~cat:"pipeline" trace "phase:analysis" in
  let reports =
    Sage_sched.Pool.map ~jobs
      ~around_worker:(fun id body ->
        Trace.with_span ~cat:"sched"
          ~args:[ ("worker", Trace.Int id) ]
          trace
          (Printf.sprintf "worker-%d" id)
          body)
      (fun job ->
        (* graceful degradation: a crash while analysing one sentence is
           captured in that sentence's report instead of aborting the
           whole document run *)
        match
          analyze_sentence spec ~message:job.job_msg ?field:job.job_field
            ?cache ?trace job.job_sentence
        with
        | report -> report
        | exception exn ->
          { sentence = job.job_sentence; message = Some job.job_msg;
            field = job.job_field; base_lf_count = 0; trace = None;
            status = Crashed (Printexc.to_string exn) })
      job_array
  in
  Trace.close trace analysis_span;
  (* ---- phase 3: code generation (sequential, document order) ---- *)
  let codegen_span = Trace.span ~cat:"pipeline" trace "phase:codegen" in
  let all_reports = ref [] in
  let non_actionable = ref [] in
  let functions = ref [] in
  let struct_of_function = ref [] in
  (* statement → source sentence, for diagnostic provenance (phase 4);
     structural comparison, first placement wins *)
  let provenance = ref [] in
  (* per-sentence context for requirement mining (phase 5) *)
  let req_sources = ref [] in
  let structs =
    List.filter_map (fun s -> s.Document.diagram) document.Document.sections
  in
  List.iter
    (fun plan ->
      let struct_def = plan.plan_struct_def in
      let msg = plan.plan_msg in
      let items = ref [] in
      let handle_report i =
        let report = reports.(i) in
        let job = job_array.(i) in
        all_reports := report :: !all_reports;
        let ctx =
          Context.dynamic ?field:job.job_field ~role:plan.plan_gen_role
            ?struct_def ~protocol:spec.protocol ~message:msg ()
        in
        let placement =
          match report.status with
          | Parsed lf | Subject_supplied lf ->
            (match Generate.gen_sentence ctx lf with
             | Ok pl ->
               List.iter
                 (fun s -> provenance := (s, report.sentence) :: !provenance)
                 pl.Generate.stmts;
               Some pl
             | Error reason ->
               (* iterative discovery: code-generation failure → confirm
                  non-actionable, tag @AdvComment *)
               non_actionable := (report.sentence, reason) :: !non_actionable;
               None
             | exception exn ->
               non_actionable :=
                 (report.sentence, "crashed: " ^ Printexc.to_string exn)
                 :: !non_actionable;
               None)
          | Annotated_non_actionable | Zero_lf | Ambiguous _ | Crashed _ ->
            None
        in
        (* mining sees the LF only when its code was actually placed:
           a requirement must never be checked against code that was
           not generated *)
        let src_lf, src_note =
          match report.status, placement with
          | (Parsed lf | Subject_supplied lf), Some _ -> (Some lf, "")
          | (Parsed _ | Subject_supplied _), None ->
            (None, "code generation failed")
          | Annotated_non_actionable, _ -> (None, "annotated non-actionable")
          | Zero_lf, _ -> (None, "no logical form (rewrite required)")
          | Ambiguous _, _ -> (None, "ambiguous (rewrite required)")
          | Crashed _, _ -> (None, "analysis crashed")
        in
        req_sources :=
          {
            Sage_reqs.Extract.src_sentence = report.sentence;
            src_message = report.message;
            src_field = report.field;
            src_role = Some plan.plan_gen_role;
            src_struct = struct_def;
            src_lf;
            src_note;
          }
          :: !req_sources;
        items := { Assemble.sentence = report.sentence; placement } :: !items
      in
      (* pseudo-code blocks become standalone procedures (paper §3) *)
      let handle_pseudo block =
        match Sage_rfc.Pseudo_code.parse block with
        | exception exn ->
          non_actionable :=
            (block, "crashed: " ^ Printexc.to_string exn) :: !non_actionable
        | Error reason -> non_actionable := (block, reason) :: !non_actionable
        | Ok proc ->
          let ctx =
            Context.dynamic ~role:Ir.Sender ?struct_def ~protocol:spec.protocol
              ~message:msg ()
          in
          let stmts =
            List.concat_map
              (fun lf ->
                match Generate.gen_sentence ctx lf with
                | Ok pl -> pl.Generate.stmts
                | Error reason ->
                  non_actionable := (Lf.to_string lf, reason) :: !non_actionable;
                  [])
              proc.Sage_rfc.Pseudo_code.body
          in
          let f =
            {
              Ir.fn_name =
                Hd.c_identifier
                  (String.lowercase_ascii spec.protocol ^ " "
                 ^ proc.Sage_rfc.Pseudo_code.proc_name);
              protocol = spec.protocol;
              message = proc.Sage_rfc.Pseudo_code.proc_name;
              role = Ir.Sender;
              body = stmts;
            }
          in
          functions := !functions @ [ f ];
          (match struct_def with
           | Some sd ->
             struct_of_function := (f.Ir.fn_name, sd) :: !struct_of_function
           | None -> ())
      in
      List.iter
        (function
          | Prose_job i -> handle_report i
          | Pseudo_block block -> handle_pseudo block)
        plan.plan_works;
      let assembled =
        Assemble.assemble ~protocol:spec.protocol
          ~variants:
            (List.map
               (fun (vname, role) ->
                 {
                   Assemble.variant_message = vname;
                   variant_role = role;
                   fixed_assignments =
                     fixed_assignments_for_variant plan.plan_section vname;
                 })
               plan.plan_variants)
          ~items:(List.rev !items)
      in
      (match struct_def with
       | Some sd ->
         List.iter
           (fun (f : Ir.func) ->
             struct_of_function := (f.Ir.fn_name, sd) :: !struct_of_function)
           assembled
       | None -> ());
      functions := !functions @ assembled)
    plans;
  let functions = !functions in
  let struct_of_function = List.rev !struct_of_function in
  Trace.close trace codegen_span
    ~args:[ ("functions", Trace.Int (List.length functions)) ];
  let c_code =
    Trace.with_span ~cat:"pipeline" trace "phase:render" @@ fun () ->
    Sage_codegen.C_printer.render_program ~protocol:spec.protocol ~structs
      ~funcs:functions
  in
  (* ---- phase 4: static analysis over the generated IR ---- *)
  let analysis4_span =
    Trace.span ~cat:"pipeline" trace "phase:static-analysis"
  in
  let provenance = List.rev !provenance in
  let sentence_of_stmt s =
    match s with
    | Ir.Comment c -> Some c
    | _ ->
      Option.map snd (List.find_opt (fun (s', _) -> s' = s) provenance)
  in
  let diagnostics =
    Sage_analysis.Analyzer.analyze_program ~sentence_of_stmt
      ~struct_of_function functions
  in
  List.iter
    (fun (d : Sage_analysis.Diagnostic.t) ->
      Trace.instant ~cat:"analysis"
        ~args:
          [
            ("code", Trace.Str d.Sage_analysis.Diagnostic.code);
            ( "severity",
              Trace.Str
                (Sage_analysis.Diagnostic.severity_name
                   d.Sage_analysis.Diagnostic.severity) );
            ("fn", Trace.Str d.Sage_analysis.Diagnostic.fn_name);
          ]
        trace "diagnostic")
    diagnostics;
  Trace.close trace analysis4_span
    ~args:[ ("diagnostics", Trace.Int (List.length diagnostics)) ];
  (* ---- phase 5: requirement mining over sentences + generated IR ---- *)
  let requirements =
    Trace.with_span ~cat:"pipeline" trace "phase:reqs" @@ fun () ->
    Sage_reqs.Extract.mine ~protocol:spec.protocol
      ~sources:(List.rev !req_sources) ~funcs:functions ~provenance
  in
  Trace.counter ~cat:"pipeline" trace "requirements"
    (List.length requirements);
  Trace.counter ~cat:"pipeline" trace "sentences" (Array.length job_array);
  Trace.counter ~cat:"pipeline" trace "functions" (List.length functions);
  Trace.counter ~cat:"pipeline" trace "diagnostics" (List.length diagnostics);
  {
    spec;
    document;
    sentences = List.rev !all_reports;
    codegen =
      {
        functions;
        structs;
        struct_of_function;
        non_actionable = List.rev !non_actionable;
        c_code;
      };
    diagnostics;
    requirements;
  }

let run spec ~title ~text = run_document ~jobs:1 spec ~title ~text

let run_corpus ?jobs ?cache ?trace (c : corpus) =
  run_document ?jobs ?cache ?trace (c.spec ()) ~title:c.title ~text:c.text

let ambiguous_sentences run =
  List.filter
    (fun r -> match r.status with Ambiguous _ -> true | _ -> false)
    run.sentences

let zero_lf_sentences run =
  List.filter (fun r -> r.status = Zero_lf) run.sentences

let crashed_sentences run =
  List.filter
    (fun r -> match r.status with Crashed _ -> true | _ -> false)
    run.sentences

let parsed_sentences run =
  List.filter
    (fun r ->
      match r.status with Parsed _ | Subject_supplied _ -> true | _ -> false)
    run.sentences

let find_function run name =
  List.find_opt (fun f -> f.Ir.fn_name = name) run.codegen.functions
