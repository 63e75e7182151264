module Lf = Sage_logic.Lf
module Ir = Sage_codegen.Ir

let count_status run f = List.length (List.filter f run.Pipeline.sentences)

let summary run =
  let total = List.length run.Pipeline.sentences in
  let parsed =
    count_status run (fun r ->
        match r.Pipeline.status with
        | Pipeline.Parsed _ | Pipeline.Subject_supplied _ -> true
        | _ -> false)
  in
  let ambiguous = count_status run (fun r ->
      match r.Pipeline.status with Pipeline.Ambiguous _ -> true | _ -> false)
  in
  let zero = count_status run (fun r -> r.Pipeline.status = Pipeline.Zero_lf) in
  let annotated =
    count_status run (fun r -> r.Pipeline.status = Pipeline.Annotated_non_actionable)
  in
  Printf.sprintf
    "%s: %d sentences — %d parse to exactly one logical form, %d remain \
     ambiguous (rewrite required), %d yield no logical form (rewrite \
     required), %d annotated non-actionable, %d discovered non-actionable \
     during code generation; %d functions generated."
    run.Pipeline.document.Sage_rfc.Document.title total parsed ambiguous zero
    annotated
    (List.length run.Pipeline.codegen.Pipeline.non_actionable)
    (List.length run.Pipeline.codegen.Pipeline.functions)

let rewrite_worklist run =
  let buf = Buffer.create 512 in
  let ambiguous = Pipeline.ambiguous_sentences run in
  let zero = Pipeline.zero_lf_sentences run in
  if ambiguous <> [] then begin
    Buffer.add_string buf "## Rewrite: still ambiguous after winnowing\n\n";
    List.iter
      (fun r ->
        Buffer.add_string buf (Printf.sprintf "- %s\n" r.Pipeline.sentence);
        (match r.Pipeline.status with
         | Pipeline.Ambiguous lfs ->
           List.iter
             (fun lf ->
               Buffer.add_string buf
                 (Printf.sprintf "    - `%s`\n" (Lf.to_string lf)))
             lfs
         | _ -> ()))
      ambiguous;
    Buffer.add_char buf '\n'
  end;
  if zero <> [] then begin
    Buffer.add_string buf "## Rewrite: no logical form\n\n";
    List.iter
      (fun r -> Buffer.add_string buf (Printf.sprintf "- %s\n" r.Pipeline.sentence))
      zero;
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf

let analysis run =
  let d = run.Pipeline.diagnostics in
  Sage_analysis.Diagnostic.render_text
    ~protocol:run.Pipeline.spec.Pipeline.protocol d

let analysis_json run =
  let d = run.Pipeline.diagnostics in
  Sage_analysis.Diagnostic.render_json
    ~protocol:run.Pipeline.spec.Pipeline.protocol d

let markdown run =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "# SAGE run report: %s\n\n"
       run.Pipeline.document.Sage_rfc.Document.title);
  Buffer.add_string buf (summary run);
  Buffer.add_string buf "\n\n";
  Buffer.add_string buf (rewrite_worklist run);
  let discovered = run.Pipeline.codegen.Pipeline.non_actionable in
  if discovered <> [] then begin
    Buffer.add_string buf
      "## Discovered non-actionable (code-generation failures to confirm)\n\n";
    List.iter
      (fun (s, reason) ->
        Buffer.add_string buf (Printf.sprintf "- %s\n    - %s\n" s reason))
      discovered;
    Buffer.add_char buf '\n'
  end;
  Buffer.add_string buf "## Static analysis\n\n";
  Buffer.add_string buf "```\n";
  Buffer.add_string buf (analysis run);
  Buffer.add_string buf "```\n\n";
  (match run.Pipeline.requirements with
   | [] -> ()
   | reqs ->
     let compiled = List.filter (fun r -> r.Sage_reqs.Req.rule <> None) reqs in
     let checkable = List.filter Sage_reqs.Req.checkable reqs in
     Buffer.add_string buf "## Requirements\n\n";
     Buffer.add_string buf
       (Printf.sprintf
          "%d RFC 2119 requirement sentence(s) mined; %d compiled to \
           executable rules, %d checkable against the generated functions \
           (enforced by `sage fuzz --check-reqs` and `sage chaos \
           --check-reqs`).\n\n"
          (List.length reqs) (List.length compiled) (List.length checkable));
     List.iter
       (fun (r : Sage_reqs.Req.t) ->
         Buffer.add_string buf
           (Printf.sprintf "- **%s** [%s] %s\n    - %s\n" r.Sage_reqs.Req.id
              (Sage_reqs.Req.level_name r.Sage_reqs.Req.level)
              (match r.Sage_reqs.Req.rule with
               | Some { Sage_reqs.Req.obligation; _ } ->
                 (match r.Sage_reqs.Req.fns with
                  | [] ->
                    Printf.sprintf "%s (no sound anchor%s)"
                      (Sage_reqs.Req.obligation_name obligation)
                      (if r.Sage_reqs.Req.note = "" then ""
                       else ": " ^ r.Sage_reqs.Req.note)
                  | fns ->
                    Printf.sprintf "%s on `%s`"
                      (Sage_reqs.Req.obligation_name obligation)
                      (String.concat "`, `" fns))
               | None ->
                 Printf.sprintf "unchecked%s"
                   (if r.Sage_reqs.Req.note = "" then ""
                    else " (" ^ r.Sage_reqs.Req.note ^ ")"))
              r.Sage_reqs.Req.sentence))
       reqs;
     Buffer.add_char buf '\n');
  Buffer.add_string buf "## Generated functions\n\n";
  List.iter
    (fun (f : Ir.func) ->
      Buffer.add_string buf
        (Printf.sprintf "- `%s` (%s, %d statements)\n" f.Ir.fn_name
           (Ir.role_name f.Ir.role)
           (List.length f.Ir.body)))
    run.Pipeline.codegen.Pipeline.functions;
  Buffer.add_char buf '\n';
  if run.Pipeline.codegen.Pipeline.structs <> [] then begin
    Buffer.add_string buf "## Recovered header layouts\n\n";
    List.iter
      (fun (d : Sage_rfc.Header_diagram.t) ->
        Buffer.add_string buf "```c\n";
        Buffer.add_string buf (Sage_rfc.Header_diagram.to_c_struct d);
        Buffer.add_string buf "\n```\n\n")
      run.Pipeline.codegen.Pipeline.structs
  end;
  Buffer.contents buf
