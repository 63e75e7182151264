(* The IR static analyzer (lib/analysis): per-check unit tests over
   hand-built IR, zero-Error golden runs over every shipped corpus, the
   seeded under-specified corpus that --fail-on error must fail, and a
   never-raise fuzz property over random IR. *)

module P = Sage.Pipeline
module Ir = Sage_codegen.Ir
module Hd = Sage_rfc.Header_diagram
module A = Sage_analysis.Analyzer
module D = Sage_analysis.Diagnostic
module Q = Qcheck_lite

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let contains ~needle haystack = Astring_contains.contains haystack needle

(* ---- a small hand-built layout: type/code/checksum/payload ---- *)

let layout =
  {
    Hd.struct_name = "Test Message";
    fields =
      [
        { Hd.name = "Type"; bits = 8; bit_offset = 0; variable = false };
        { Hd.name = "Code"; bits = 8; bit_offset = 8; variable = false };
        { Hd.name = "Checksum"; bits = 16; bit_offset = 16; variable = false };
        { Hd.name = "Identifier"; bits = 16; bit_offset = 32; variable = false };
        { Hd.name = "Data"; bits = 0; bit_offset = 48; variable = true };
      ];
  }

let func body =
  {
    Ir.fn_name = "test_fn";
    protocol = "TEST";
    message = "test message";
    role = Ir.Sender;
    body;
  }

let analyze ?(with_layout = true) body =
  A.analyze_func ?layout:(if with_layout then Some layout else None) (func body)

let codes diags = List.map (fun d -> (d.D.code, d.D.severity)) diags
let assign f v = Ir.Assign (Ir.Lfield (Ir.Proto, f), Ir.Int v)

(* fully covers the layout, in checksum-last order *)
let clean_body =
  [ assign "type" 8; assign "code" 0; assign "identifier" 7;
    assign "checksum" 0; Ir.Send "test message" ]

(* ---- SA001: field coverage ---- *)

let test_clean_no_findings () =
  check Alcotest.(list (pair string int)) "clean body" []
    (List.map (fun d -> (d.D.code, 0)) (analyze clean_body))

let test_missing_checksum_is_error () =
  let body =
    [ assign "type" 8; assign "code" 0; assign "identifier" 7;
      Ir.Send "test message" ]
  in
  let diags = analyze body in
  check Alcotest.int "one finding" 1 (List.length diags);
  let d = List.hd diags in
  check Alcotest.string "code" "SA001" d.D.code;
  check Alcotest.bool "error severity" true (d.D.severity = D.Error);
  check Alcotest.(option string) "field" (Some "checksum") d.D.field;
  check Alcotest.int "fail-on error exit" 1
    (A.exit_code_on ~fail_on:A.Fail_error diags);
  check Alcotest.int "fail-never exit" 0
    (A.exit_code_on ~fail_on:A.Fail_never diags)

let test_missing_plain_field_is_warning () =
  let body =
    [ assign "type" 8; assign "code" 0; assign "checksum" 0;
      Ir.Send "test message" ]
  in
  match analyze body with
  | [ d ] ->
    check Alcotest.string "code" "SA001" d.D.code;
    check Alcotest.bool "warning severity" true (d.D.severity = D.Warning);
    check Alcotest.(option string) "field" (Some "identifier") d.D.field
  | ds -> Alcotest.failf "expected 1 finding, got %d" (List.length ds)

let test_partial_assignment_is_warning () =
  let body =
    [ assign "type" 8; assign "code" 0;
      Ir.If (Ir.Cmp ("eq", Ir.Param "current_time", Ir.Int 1),
             [ assign "identifier" 7 ], []);
      assign "checksum" 0; Ir.Send "test message" ]
  in
  match analyze body with
  | [ d ] ->
    check Alcotest.string "code" "SA001" d.D.code;
    check Alcotest.bool "warning severity" true (d.D.severity = D.Warning);
    check Alcotest.bool "says some paths" true
      (contains ~needle:"some paths" d.D.text)
  | ds -> Alcotest.failf "expected 1 finding, got %d" (List.length ds)

let test_diverging_branch_exempt () =
  (* the else-branch discards the packet: fields assigned only in the
     then-branch are still definite on every surviving path *)
  let body =
    [ assign "type" 8; assign "code" 0;
      Ir.If (Ir.Cmp ("eq", Ir.Param "current_time", Ir.Int 1),
             [ assign "identifier" 7 ], [ Ir.Discard ]);
      assign "checksum" 0; Ir.Send "test message" ]
  in
  check Alcotest.(list (pair string int)) "no findings" []
    (List.map (fun d -> (d.D.code, 0)) (analyze body))

let test_no_layout_no_sa001 () =
  let diags = analyze ~with_layout:false [ assign "type" 8 ] in
  check Alcotest.bool "no SA001 without a layout" true
    (List.for_all (fun d -> d.D.code <> "SA001") diags)

let test_non_builder_exempt () =
  (* a function that writes no header field at all (state machine /
     receiver prose) is not held to layout coverage *)
  let body = [ Ir.Assign (Ir.Lvar "t", Ir.Int 1); Ir.Do (Ir.Param "t") ] in
  check Alcotest.bool "no SA001" true
    (List.for_all (fun d -> d.D.code <> "SA001") (analyze body))

(* ---- SA002: use before definite assignment ---- *)

let test_use_before_def () =
  let body =
    clean_body
    @ [ Ir.If (Ir.Cmp ("==", Ir.Param "x", Ir.Int 1),
               [ Ir.Assign (Ir.Lvar "t", Ir.Int 1) ], []);
        Ir.Do (Ir.Call ("emit", [ Ir.Param "t" ])) ]
  in
  match List.filter (fun d -> d.D.code = "SA002") (analyze body) with
  | [ d ] ->
    check Alcotest.bool "error severity" true (d.D.severity = D.Error);
    check Alcotest.bool "names the local" true (contains ~needle:"t" d.D.text)
  | ds -> Alcotest.failf "expected 1 SA002, got %d" (List.length ds)

let test_straight_line_local_ok () =
  let body =
    clean_body
    @ [ Ir.Assign (Ir.Lvar "t", Ir.Int 1);
        Ir.Do (Ir.Call ("emit", [ Ir.Param "t" ])) ]
  in
  check Alcotest.bool "no SA002" true
    (List.for_all (fun d -> d.D.code <> "SA002") (analyze body))

(* ---- SA003: dead stores ---- *)

let test_dead_store () =
  let body =
    [ assign "type" 3; assign "type" 8; assign "code" 0;
      assign "identifier" 7; assign "checksum" 0; Ir.Send "test message" ]
  in
  match List.filter (fun d -> d.D.code = "SA003") (analyze body) with
  | [ d ] ->
    check Alcotest.bool "warning severity" true (d.D.severity = D.Warning);
    check Alcotest.(option string) "field" (Some "type") d.D.field
  | ds -> Alcotest.failf "expected 1 SA003, got %d" (List.length ds)

let test_store_read_before_overwrite_live () =
  let body =
    [ assign "type" 3;
      Ir.Assign (Ir.Lfield (Ir.Proto, "code"), Ir.Field (Ir.Proto, "type"));
      assign "type" 8; assign "identifier" 7; assign "checksum" 0;
      Ir.Send "test message" ]
  in
  check Alcotest.bool "no SA003" true
    (List.for_all (fun d -> d.D.code <> "SA003") (analyze body))

let test_call_is_read_barrier () =
  (* a framework call may read any field: the first store is not dead *)
  let body =
    [ assign "type" 3; Ir.Do (Ir.Call ("recompute_checksum", []));
      assign "type" 8; assign "code" 0; assign "identifier" 7;
      assign "checksum" 0; Ir.Send "test message" ]
  in
  check Alcotest.bool "no SA003" true
    (List.for_all (fun d -> d.D.code <> "SA003") (analyze body))

(* ---- SA004: unreachable / post-send writes ---- *)

let test_unreachable_after_discard () =
  let body = [ Ir.Discard; assign "type" 8 ] in
  match List.filter (fun d -> d.D.code = "SA004") (analyze body) with
  | [ d ] -> check Alcotest.bool "error severity" true (d.D.severity = D.Error)
  | ds -> Alcotest.failf "expected 1 SA004, got %d" (List.length ds)

let test_comment_after_discard_ok () =
  let body = [ Ir.Discard; Ir.Comment "original sentence" ] in
  check Alcotest.bool "no SA004" true
    (List.for_all (fun d -> d.D.code <> "SA004") (analyze body))

let test_write_after_send_is_warning () =
  let body =
    [ assign "type" 8; assign "code" 0; assign "checksum" 0;
      Ir.Send "test message"; assign "identifier" 7 ]
  in
  match List.filter (fun d -> d.D.code = "SA004") (analyze body) with
  | [ d ] ->
    check Alcotest.bool "warning severity" true (d.D.severity = D.Warning)
  | ds -> Alcotest.failf "expected 1 SA004, got %d" (List.length ds)

(* ---- SA005: width/overflow ---- *)

let test_constant_overflow_is_error () =
  let body =
    [ assign "type" 300; assign "code" 0; assign "identifier" 7;
      assign "checksum" 0; Ir.Send "test message" ]
  in
  match List.filter (fun d -> d.D.code = "SA005") (analyze body) with
  | [ d ] ->
    check Alcotest.bool "error severity" true (d.D.severity = D.Error);
    check Alcotest.(option string) "field" (Some "type") d.D.field;
    check Alcotest.bool "mentions truncation" true
      (contains ~needle:"truncated" d.D.text)
  | ds -> Alcotest.failf "expected 1 SA005, got %d" (List.length ds)

let test_fitting_constant_ok () =
  check Alcotest.bool "255 fits 8 bits" true
    (List.for_all
       (fun d -> d.D.code <> "SA005")
       (analyze
          [ assign "type" 255; assign "code" 0; assign "identifier" 7;
            assign "checksum" 0; Ir.Send "test message" ]))

let test_degenerate_compare_is_warning () =
  let body =
    clean_body
    @ [ Ir.If (Ir.Cmp ("==", Ir.Field (Ir.Proto, "code"), Ir.Int 999),
               [ Ir.Discard ], []) ]
  in
  match List.filter (fun d -> d.D.code = "SA005") (analyze body) with
  | [ d ] ->
    check Alcotest.bool "warning severity" true (d.D.severity = D.Warning)
  | ds -> Alcotest.failf "expected 1 SA005, got %d" (List.length ds)

(* ---- SA006: checksum ordering ---- *)

let test_write_after_checksum_is_error () =
  let body =
    [ assign "type" 8; assign "code" 0; assign "checksum" 0;
      assign "identifier" 7; Ir.Send "test message" ]
  in
  match List.filter (fun d -> d.D.code = "SA006") (analyze body) with
  | [ d ] ->
    check Alcotest.bool "error severity" true (d.D.severity = D.Error);
    check Alcotest.(option string) "field" (Some "identifier") d.D.field
  | ds -> Alcotest.failf "expected 1 SA006, got %d" (List.length ds)

let test_checksum_zeroing_then_recompute_ok () =
  (* the paper's Figure 2 advice: zero the checksum, fill the fields,
     recompute last — only writes after the LAST checksum store count *)
  let body =
    [ assign "checksum" 0; assign "type" 8; assign "code" 0;
      assign "identifier" 7; assign "checksum" 0; Ir.Send "test message" ]
  in
  check Alcotest.bool "no SA006" true
    (List.for_all (fun d -> d.D.code <> "SA006") (analyze body))

(* ---- renderers ---- *)

let test_render_text_and_json () =
  let diags = analyze [ assign "type" 300; assign "checksum" 0 ] in
  let text = D.render_text ~protocol:"TEST" diags in
  check Alcotest.bool "text carries code" true (contains ~needle:"SA005" text);
  check Alcotest.bool "text carries summary" true
    (contains ~needle:"error(s)" text);
  let json = D.render_json ~protocol:"TEST" diags in
  check Alcotest.bool "json carries code" true
    (contains ~needle:"\"code\": \"SA005\"" json);
  check Alcotest.bool "json carries protocol" true
    (contains ~needle:"\"protocol\": \"TEST\"" json);
  (* escaping: a finding text with quotes/backslashes must stay valid *)
  let d =
    D.v ~code:"SA000" ~severity:D.Warning ~fn_name:"f" ~protocol:"T"
      "quote \" backslash \\ newline \n done"
  in
  check Alcotest.bool "escaped" true
    (contains ~needle:"quote \\\" backslash \\\\ newline \\n done"
       (D.to_json d))

let test_render_empty () =
  check Alcotest.bool "no findings text" true
    (contains ~needle:"no findings" (D.render_text []));
  check Alcotest.bool "empty diagnostics array" true
    (contains ~needle:"\"diagnostics\": []" (D.render_json []))

let test_sentence_provenance () =
  let s = assign "identifier" 9 in
  let sentence_of_stmt s' =
    if s' = s then Some "The identifier is nine." else None
  in
  let diags =
    A.analyze_func ~layout ~sentence_of_stmt
      (func
         [ assign "type" 8; assign "code" 0; assign "checksum" 0; s;
           Ir.Send "test message" ])
  in
  match List.filter (fun d -> d.D.code = "SA006") diags with
  | [ d ] ->
    check Alcotest.(option string) "provenance" (Some "The identifier is nine.")
      d.D.sentence
  | ds -> Alcotest.failf "expected 1 SA006, got %d" (List.length ds)

(* ------------------------------------------------------------------ *)
(* Golden: every shipped corpus is clean of Error-severity findings.   *)
(* ------------------------------------------------------------------ *)

let corpus_runs =
  lazy
    (List.map
       (fun (name, spec, title, text) ->
         (name, P.run_document ~jobs:1 (spec ()) ~title ~text))
       [
         ("icmp", P.icmp_spec, Sage_corpus.Icmp_rfc.title,
          Sage_corpus.Icmp_rfc.text);
         ("icmp-rw", P.icmp_spec, Sage_corpus.Icmp_rfc.title,
          Sage_corpus.Icmp_rfc.rewritten_text);
         ("igmp", P.igmp_spec, Sage_corpus.Igmp_rfc.title,
          Sage_corpus.Igmp_rfc.text);
         ("ntp", P.ntp_spec, Sage_corpus.Ntp_rfc.title,
          Sage_corpus.Ntp_rfc.text);
         ("bfd", P.bfd_spec, Sage_corpus.Bfd_rfc.title,
          Sage_corpus.Bfd_rfc.text);
         ("bfd-rw", P.bfd_spec, Sage_corpus.Bfd_rfc.title,
          Sage_corpus.Bfd_rfc.rewritten_text);
         ("tcp", P.tcp_spec, Sage_corpus.Tcp_rfc.title,
          Sage_corpus.Tcp_rfc.text);
         ("bgp", P.bgp_spec, Sage_corpus.Bgp_rfc.title,
          Sage_corpus.Bgp_rfc.text);
       ])

let test_corpora_error_free () =
  List.iter
    (fun (name, run) ->
      let errs =
        List.filter (fun d -> d.D.severity = D.Error) run.P.diagnostics
      in
      if errs <> [] then
        Alcotest.failf "%s: %d Error finding(s), first: %s" name
          (List.length errs)
          (D.to_string (List.hd errs));
      check Alcotest.int (name ^ " fail-on error exit") 0
        (A.exit_code_on ~fail_on:A.Fail_error run.P.diagnostics))
    (Lazy.force corpus_runs)

let test_corpora_diagnostics_deterministic () =
  List.iter
    (fun (name, run) ->
      let again =
        A.analyze_program
          ~struct_of_function:run.P.codegen.P.struct_of_function
          run.P.codegen.P.functions
      in
      check Alcotest.int (name ^ " same count")
        (List.length run.P.diagnostics)
        (List.length again);
      List.iter2
        (fun a b ->
          check Alcotest.string (name ^ " same finding") a.D.text b.D.text)
        (* provenance differs (the pipeline passes sentence_of_stmt), so
           compare the stable parts *)
        run.P.diagnostics again)
    (Lazy.force corpus_runs)

let test_diagnostics_in_report () =
  let _, run = List.hd (Lazy.force corpus_runs) in
  let md = Sage.Report.markdown run in
  check Alcotest.bool "markdown has analysis section" true
    (contains ~needle:"## Static analysis" md);
  check Alcotest.bool "markdown has summary line" true
    (contains ~needle:"static analysis:" md);
  let json = Sage.Report.analysis_json run in
  check Alcotest.bool "json renders" true
    (contains ~needle:"\"protocol\": \"ICMP\"" json)

let test_metrics_have_analysis_stage () =
  let _, run = List.hd (Lazy.force corpus_runs) in
  let m = run.P.metrics in
  check Alcotest.bool "diagnostics counter" true
    (Sage_sched.Metrics.counter m "diagnostics" > 0);
  check Alcotest.bool "analysis stage timed" true
    (List.mem_assoc "analysis" (Sage_sched.Metrics.stage_ns m))

(* ------------------------------------------------------------------ *)
(* Seeded under-specified corpus: IGMP minus its checksum sentence.    *)
(* ------------------------------------------------------------------ *)

(* Drop the whole "Checksum" field block from the IGMP appendix — the
   under-specification a SAGE author would hit with an RFC that never
   says how to fill the field. *)
let igmp_without_checksum =
  let lines = String.split_on_char '\n' Sage_corpus.Igmp_rfc.text in
  let rec drop acc = function
    | [] -> List.rev acc
    | l :: rest when String.trim l = "Checksum" ->
      let rec skip = function
        | [] -> []
        | l :: _ as ls when String.trim l = "Group Address" -> ls
        | _ :: tl -> skip tl
      in
      drop acc (skip rest)
    | l :: rest -> drop (l :: acc) rest
  in
  String.concat "\n" (drop [] lines)

let seeded_run =
  lazy
    (P.run_document ~jobs:1 (P.igmp_spec ()) ~title:"IGMP (seeded)"
       ~text:igmp_without_checksum)

let test_seeded_corpus_fails_strict () =
  let run = Lazy.force seeded_run in
  let errs =
    List.filter (fun d -> d.D.severity = D.Error) run.P.diagnostics
  in
  check Alcotest.bool "has Error findings" true (errs <> []);
  List.iter
    (fun d ->
      check Alcotest.string "code" "SA001" d.D.code;
      check Alcotest.(option string) "field" (Some "checksum") d.D.field)
    errs;
  check Alcotest.int "fail-on error exit is 1" 1
    (A.exit_code_on ~fail_on:A.Fail_error run.P.diagnostics);
  check Alcotest.int "fail-never exit is 0" 0
    (A.exit_code_on ~fail_on:A.Fail_never run.P.diagnostics)

let test_seeded_corpus_sanity () =
  (* the seed removed exactly the checksum description; the rest of the
     document still parses and generates both sender functions *)
  let run = Lazy.force seeded_run in
  check Alcotest.bool "functions still generated" true
    (List.length run.P.codegen.P.functions >= 2);
  check Alcotest.bool "unseeded igmp is clean" true
    (not
       (D.has_errors
          (snd
             (List.find (fun (n, _) -> n = "igmp") (Lazy.force corpus_runs)))
            .P.diagnostics))

(* ------------------------------------------------------------------ *)
(* Fuzz: the analyzer is total on arbitrary IR.                        *)
(* ------------------------------------------------------------------ *)

let field_pool = [ "type"; "code"; "checksum"; "identifier"; "bogus" ]
let var_pool = [ "t"; "u"; "v" ]

let rec gen_expr depth r =
  if depth <= 0 then
    match Q.int_below r 4 with
    | 0 -> Ir.Int (Q.int_below r 1024 - 64)
    | 1 -> Ir.Str (Q.pick r field_pool)
    | 2 -> Ir.Field (Ir.Proto, Q.pick r field_pool)
    | _ -> Ir.Param (Q.pick r var_pool)
  else
    match Q.int_below r 6 with
    | 0 -> Ir.Cmp ("==", gen_expr (depth - 1) r, gen_expr (depth - 1) r)
    | 1 -> Ir.And (gen_expr (depth - 1) r, gen_expr (depth - 1) r)
    | 2 -> Ir.Or (gen_expr (depth - 1) r, gen_expr (depth - 1) r)
    | 3 -> Ir.Not (gen_expr (depth - 1) r)
    | 4 ->
      Ir.Call
        ("f", List.init (Q.int_below r 3) (fun _ -> gen_expr (depth - 1) r))
    | _ -> gen_expr 0 r

let rec gen_stmt depth r =
  match Q.int_below r 8 with
  | 0 | 1 ->
    Ir.Assign (Ir.Lfield (Ir.Proto, Q.pick r field_pool), gen_expr 2 r)
  | 2 -> Ir.Assign (Ir.Lvar (Q.pick r var_pool), gen_expr 2 r)
  | 3 -> Ir.Do (gen_expr 2 r)
  | 4 when depth > 0 ->
    Ir.If
      (gen_expr 2 r,
       List.init (Q.int_below r 3) (fun _ -> gen_stmt (depth - 1) r),
       List.init (Q.int_below r 3) (fun _ -> gen_stmt (depth - 1) r))
  | 4 | 5 -> Ir.Discard
  | 6 -> Ir.Send "test message"
  | _ -> Ir.Comment "an unparsed sentence about the identifier"

let rec shrink_stmts stmts =
  match stmts with
  | [] -> []
  | _ ->
    Q.take (List.length stmts - 1) stmts
    :: List.concat
         (List.mapi
            (fun i s ->
              match s with
              | Ir.If (_, t, e) ->
                [ Q.replace_at i (Ir.Do (Ir.Int 0)) stmts ]
                @ List.map (fun t' -> Q.replace_at i (Ir.If (Ir.Int 0, t', e)) stmts)
                    (shrink_stmts t)
              | _ -> [])
            stmts)

let body_arb =
  Q.make
    ~shrink:shrink_stmts
    ~print:(fun stmts ->
      String.concat "; " (List.map (Fmt.str "%a" Ir.pp_stmt) stmts))
    (fun r -> List.init (Q.int_below r 8) (fun _ -> gen_stmt 2 r))

let prop_never_raises body =
  match analyze body with
  | _ -> true
  | exception _ -> false

let prop_sorted_and_deterministic body =
  let a = analyze body and b = analyze body in
  a = b && a = D.sort a

let prop_clean_prefix_stays_clean body =
  (* whatever random tail we append after clean_body, SA001 must never
     report type/code/checksum/identifier as never-assigned: they are
     definitely assigned by the prefix *)
  let diags = analyze (clean_body @ body) in
  List.for_all
    (fun d ->
      not (d.D.code = "SA001" && contains ~needle:"never assigned" d.D.text))
    diags

let suite =
  [
    tc "clean body: no findings" test_clean_no_findings;
    tc "SA001: missing checksum is an Error" test_missing_checksum_is_error;
    tc "SA001: missing plain field is a Warning"
      test_missing_plain_field_is_warning;
    tc "SA001: partial assignment is a Warning"
      test_partial_assignment_is_warning;
    tc "SA001: diverging branch exempt" test_diverging_branch_exempt;
    tc "SA001: needs a layout" test_no_layout_no_sa001;
    tc "SA001: non-builder functions exempt" test_non_builder_exempt;
    tc "SA002: use before definite assignment" test_use_before_def;
    tc "SA002: straight-line local is fine" test_straight_line_local_ok;
    tc "SA003: dead store" test_dead_store;
    tc "SA003: read keeps the store alive"
      test_store_read_before_overwrite_live;
    tc "SA003: calls are read barriers" test_call_is_read_barrier;
    tc "SA004: unreachable after Discard" test_unreachable_after_discard;
    tc "SA004: comments after Discard are fine" test_comment_after_discard_ok;
    tc "SA004: write after Send is a Warning" test_write_after_send_is_warning;
    tc "SA005: constant overflow is an Error" test_constant_overflow_is_error;
    tc "SA005: fitting constants are fine" test_fitting_constant_ok;
    tc "SA005: degenerate compare is a Warning"
      test_degenerate_compare_is_warning;
    tc "SA006: write after checksum is an Error"
      test_write_after_checksum_is_error;
    tc "SA006: zero-then-recompute is fine"
      test_checksum_zeroing_then_recompute_ok;
    tc "renderers: text and json" test_render_text_and_json;
    tc "renderers: empty" test_render_empty;
    tc "provenance: sentence attached" test_sentence_provenance;
    tc "golden: all shipped corpora are Error-free" test_corpora_error_free;
    tc "golden: diagnostics deterministic"
      test_corpora_diagnostics_deterministic;
    tc "report: markdown + json surfaces" test_diagnostics_in_report;
    tc "metrics: analysis stage recorded" test_metrics_have_analysis_stage;
    tc "seeded: under-specified corpus fails strict"
      test_seeded_corpus_fails_strict;
    tc "seeded: seed is minimal" test_seeded_corpus_sanity;
    Q.test "fuzz: analyzer never raises" body_arb prop_never_raises;
    Q.test "fuzz: analysis sorted + deterministic" body_arb
      prop_sorted_and_deterministic;
    Q.test "fuzz: definite prefix never reported" body_arb
      prop_clean_prefix_stays_clean;
  ]
