(* corpus-cold / corpus-warm: one op is one pass over the eight shipped
   documents, each run through [Pipeline.run_document] and rendered by
   [Report.markdown] and [Report.analysis_json].  The output oracle is
   the checked-in golden report and analysis JSON of each document. *)

module P = Sage.Pipeline
module Report = Sage.Report
module Chart_cache = Sage.Chart_cache
module Document = Sage_rfc.Document
module Hd = Sage_rfc.Header_diagram
module Chunker = Sage_nlp.Chunker
module Token = Sage_nlp.Token
module Winnow = Sage_disambig.Winnow
module Ir = Sage_codegen.Ir
module Lf = Sage_logic.Lf

type doc = {
  name : string;
  spec : P.spec;
  title : string;
  text : string;
  report : string;  (** expected [Report.markdown] *)
  analysis : string;  (** expected [Report.analysis_json] *)
}

let corpora =
  let module C = Sage_corpus in
  [
    ("icmp", P.icmp_spec, C.Icmp_rfc.title, C.Icmp_rfc.text);
    ("icmp-rw", P.icmp_spec, C.Icmp_rfc.title, C.Icmp_rfc.rewritten_text);
    ("igmp", P.igmp_spec, C.Igmp_rfc.title, C.Igmp_rfc.text);
    ("ntp", P.ntp_spec, C.Ntp_rfc.title, C.Ntp_rfc.text);
    ("bfd", P.bfd_spec, C.Bfd_rfc.title, C.Bfd_rfc.text);
    ("bfd-rw", P.bfd_spec, C.Bfd_rfc.title, C.Bfd_rfc.rewritten_text);
    ("tcp", P.tcp_spec, C.Tcp_rfc.title, C.Tcp_rfc.text);
    ("bgp", P.bgp_spec, C.Bgp_rfc.title, C.Bgp_rfc.text);
  ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let docs ~root =
  List.map
    (fun (name, spec, title, text) ->
      let golden ext =
        read_file (Filename.concat root ("test/golden/" ^ name ^ ext))
      in
      { name; spec = spec (); title; text; report = golden ".report.md";
        analysis = golden ".analysis.json" })
    corpora

(* ---- replay inputs: the pipeline's analysis jobs, rebuilt from the
   parsed document in the pipeline's order (fields, IP fields, then
   description prose, section by section) ---- *)

type job = {
  sentence : string;
  message : string;
  field : string option;
  struct_def : Hd.t option;
  role : Ir.role;
}

let contains_reply s =
  let s = String.lowercase_ascii s in
  let rec at i = i + 5 <= String.length s && (String.sub s i 5 = "reply" || at (i + 1)) in
  at 0

let jobs (document : Document.t) =
  let last = ref None in
  List.concat_map
    (fun (s : Document.section) ->
      (* a section without a diagram refers to the last packet format *)
      let struct_def =
        match s.Document.diagram with
        | Some d -> last := Some d; Some d
        | None -> !last
      in
      let message = s.Document.message_name in
      let role = if contains_reply message then Ir.Receiver else Ir.Sender in
      let job ?field sentence = { sentence; message; field; struct_def; role } in
      List.concat_map
        (fun (fd : Document.field_desc) ->
          List.concat_map
            (function
              | Document.Prose ss -> List.map (job ~field:fd.Document.field_name) ss
              | Document.Fixed_value _ | Document.Code_values _ | Document.Pseudo _ -> [])
            fd.Document.content)
        (s.Document.fields @ s.Document.ip_fields)
      @ List.map (fun sentence -> job sentence) s.Document.description)
    document.Document.sections

let same_status (a : P.status) (b : P.status) =
  match a, b with
  | Parsed x, Parsed y | Subject_supplied x, Subject_supplied y -> Lf.equal x y
  | Ambiguous xs, Ambiguous ys -> List.equal Lf.equal xs ys
  | Crashed x, Crashed y -> x = y
  | Annotated_non_actionable, Annotated_non_actionable | Zero_lf, Zero_lf -> true
  | _ -> false

let drop_terminator chunks =
  match List.rev chunks with
  | { Chunker.tokens = [ t ]; _ } :: rest when t.Token.kind = Token.Terminator ->
    List.rev rest
  | _ -> chunks

type counts = {
  mutable hits : int;
  mutable lookups : int;
  mutable lfs_before : int;
  mutable lfs_after : int;
  mutable gen_attempts : int;
  mutable gen_failures : int;
}

(* Replays the inner layers of one document's pipeline run as children
   of its real [core.pipeline] span [pid]. *)
let replay_doc t ~cache (c : counts) (d : doc) (run : P.run) pid =
  let spec = d.spec and protocol = d.spec.P.protocol in
  let timed ?(parent = pid) ?calls name f =
    let id = Span.enter t ~parent name in
    let r = f () in
    Span.leave ?calls t id;
    (id, r)
  in
  ignore (timed "rfc.document" (fun () -> Document.parse ~title:d.title d.text));
  let jobs = Array.of_list (jobs run.P.document) in
  let reports = Array.of_list run.P.sentences in
  let n = Array.length jobs in
  if
    n <> Array.length reports
    || not (Array.for_all2 (fun j (r : P.sentence_report) -> j.sentence = r.P.sentence) jobs reports)
  then [ d.name ^ ": rebuilt sentence jobs do not line up with the run" ]
  else begin
    let sid, statuses =
      timed ~calls:n "core.sentence" (fun () ->
          Array.map
            (fun j ->
              match
                P.analyze_sentence spec ~message:j.message ?field:j.field
                  ?struct_def:j.struct_def ?cache j.sentence
              with
              | r -> r.P.status
              | exception e -> P.Crashed (Printexc.to_string e))
            jobs)
    in
    let fidelity =
      if Array.for_all2 (fun s (r : P.sentence_report) -> same_status s r.P.status) statuses reports
      then []
      else [ d.name ^ ": replayed core.sentence statuses differ from the run" ]
    in
    let live =
      List.filter_map
        (fun (j, (r : P.sentence_report)) ->
          match r.P.status with
          | P.Annotated_non_actionable -> None
          | _ -> Some j.sentence)
        (List.combine (Array.to_list jobs) (Array.to_list reports))
    in
    let calls = List.length live in
    let _, chunks =
      timed ~parent:sid ~calls "nlp.chunk" (fun () ->
          List.map
            (fun s -> drop_terminator (Chunker.chunk_sentence ~dict:spec.P.dictionary s))
            live)
    in
    let hits0, misses0 =
      match cache with
      | Some k -> (Chart_cache.hits k, Chart_cache.misses k)
      | None -> (0, 0)
    in
    let _, parses =
      timed ~parent:sid ~calls "ccg.parse" (fun () ->
          List.map (Chart_cache.parse ?cache ~protocol ~lexicon:spec.P.lexicon) chunks)
    in
    (match cache with
     | Some k ->
       let hits = Chart_cache.hits k - hits0 in
       c.hits <- c.hits + hits;
       c.lookups <- c.lookups + hits + (Chart_cache.misses k - misses0)
     | None -> ());
    let lfs = List.filter_map (fun (r : Sage_ccg.Parser.result) ->
        if r.Sage_ccg.Parser.lfs = [] then None else Some r.Sage_ccg.Parser.lfs) parses
    in
    let _, traces =
      timed ~parent:sid ~calls:(List.length lfs) "disambig.winnow" (fun () ->
          List.map (Winnow.winnow ~extra_checks:spec.P.extra_checks) lfs)
    in
    List.iter
      (fun (tr : Winnow.trace) ->
        c.lfs_before <- c.lfs_before + tr.Winnow.base;
        c.lfs_after <- c.lfs_after + List.length tr.Winnow.survivors)
      traces;
    (* codegen as the pipeline does it: one placement per parsed
       sentence, in document order *)
    let lf_of (r : P.sentence_report) =
      match r.P.status with P.Parsed lf | P.Subject_supplied lf -> Some lf | _ -> None
    in
    let attempts = Array.fold_left (fun k r -> if Option.is_none (lf_of r) then k else k + 1) 0 reports in
    let _, placements =
      timed ~calls:attempts "codegen.generate" (fun () ->
          Array.map2
            (fun j r ->
              match lf_of r with
              | None -> None
              | Some lf ->
                let ctx =
                  Sage_codegen.Context.dynamic ?field:j.field ~role:j.role
                    ?struct_def:j.struct_def ~protocol ~message:j.message ()
                in
                (match Sage_codegen.Generate.gen_sentence ctx lf with
                 | Ok pl -> Some pl
                 | Error _ | (exception _) -> None))
            jobs reports)
    in
    let placed = Array.fold_left (fun k p -> if Option.is_none p then k else k + 1) 0 placements in
    c.gen_attempts <- c.gen_attempts + attempts;
    c.gen_failures <- c.gen_failures + attempts - placed;
    let funcs = run.P.codegen.P.functions in
    ignore
      (timed "codegen.render" (fun () ->
           Sage_codegen.C_printer.render_program ~protocol
             ~structs:run.P.codegen.P.structs ~funcs));
    let provenance =
      List.concat
        (Array.to_list
           (Array.map2
              (fun j p ->
                match p with
                | Some pl -> List.map (fun s -> (s, j.sentence)) pl.Sage_codegen.Generate.stmts
                | None -> [])
              jobs placements))
    in
    let sentence_of_stmt s =
      match s with
      | Ir.Comment c -> Some c
      | _ -> Option.map snd (List.find_opt (fun (s', _) -> s' = s) provenance)
    in
    ignore
      (timed "analysis.program" (fun () ->
           Sage_analysis.Analyzer.analyze_program ~sentence_of_stmt
             ~struct_of_function:run.P.codegen.P.struct_of_function funcs));
    let sources =
      Array.to_list
        (Array.mapi
           (fun i j ->
             let r = reports.(i) in
             let src_lf, src_note =
               match r.P.status, placements.(i) with
               | (P.Parsed lf | P.Subject_supplied lf), Some _ -> (Some lf, "")
               | (P.Parsed _ | P.Subject_supplied _), None -> (None, "code generation failed")
               | P.Annotated_non_actionable, _ -> (None, "annotated non-actionable")
               | P.Zero_lf, _ -> (None, "no logical form (rewrite required)")
               | P.Ambiguous _, _ -> (None, "ambiguous (rewrite required)")
               | P.Crashed _, _ -> (None, "analysis crashed")
             in
             {
               Sage_reqs.Extract.src_sentence = j.sentence;
               src_message = r.P.message;
               src_field = r.P.field;
               src_role = Some j.role;
               src_struct = j.struct_def;
               src_lf;
               src_note;
             })
           jobs)
    in
    ignore
      (timed "reqs.mine" (fun () ->
           Sage_reqs.Extract.mine ~protocol ~sources ~funcs ~provenance));
    fidelity
  end

let instance ~cached ~seed docs =
  let docs = Array.of_list docs in
  let cache = if cached then Some (Chart_cache.create ()) else None in
  let rng = Random.State.make [| seed |] in
  let last = ref [] in
  let c = { hits = 0; lookups = 0; lfs_before = 0; lfs_after = 0; gen_attempts = 0;
            gen_failures = 0 } in
  let op tr _ =
    (* a fresh seeded document order on every pass *)
    for i = Array.length docs - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let d = docs.(i) in
      docs.(i) <- docs.(j);
      docs.(j) <- d
    done;
    last := [];
    let parent = match tr with Some t -> Span.root t | None -> -1 in
    Array.fold_left
      (fun ok d ->
        let pid, run =
          Workload.span tr ~parent "core.pipeline" (fun () ->
              P.run_document ?cache d.spec ~title:d.title ~text:d.text)
        in
        let _, (md, aj) =
          Workload.span tr ~parent "core.report" (fun () ->
              (Report.markdown run, Report.analysis_json run))
        in
        if Option.is_some tr then last := (d, run, pid) :: !last;
        ok && String.equal md d.report && String.equal aj d.analysis)
      true docs
  in
  let replay t =
    List.concat_map (fun (d, run, pid) -> replay_doc t ~cache c d run pid) (List.rev !last)
  in
  let counts () =
    [
      ("ccg.cache_hit_ratio", (c.hits, c.lookups));
      ("disambig.survivor_ratio", (c.lfs_after, c.lfs_before));
      ("codegen.fail_ratio", (c.gen_failures, c.gen_attempts));
    ]
  in
  { Workload.warmup = 2; before = ignore; op; replay; counts }

let cold =
  { Workload.name = "corpus-cold";
    setup = (fun ~root ~seed -> instance ~cached:false ~seed (docs ~root)) }

(* One chart cache (default capacity, working set about a hundred
   entries) shared by every op; the warm-up passes fill it. *)
let warm =
  { Workload.name = "corpus-warm";
    setup = (fun ~root ~seed -> instance ~cached:true ~seed (docs ~root)) }
