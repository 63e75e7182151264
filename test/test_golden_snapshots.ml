(* Golden snapshots: the full `sage report` artifacts (markdown
   report + static-analysis JSON) for every corpus, compared
   byte-for-byte against checked-in files under test/golden/.  Any
   behaviour change anywhere in the pipeline — chunker, parser,
   winnower, codegen, static analysis, report rendering — shows up
   here as a readable diff.

   Regenerate intentionally with:

     SAGE_UPDATE_GOLDEN=1 dune runtest

   which rewrites the snapshots in the source tree (the tests run in
   _build/default/test/, so the update path climbs back out). *)

module P = Sage.Pipeline
module Report = Sage.Report
module C = Corpus_runs

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* dune copies test/golden/* next to the test binary; the source-tree
   copy (for SAGE_UPDATE_GOLDEN) lives three levels up from
   _build/default/test/. *)
let build_dir = "golden"
let source_dir = Filename.concat (Filename.concat "../../.." "test") "golden"

let updating =
  match Sys.getenv_opt "SAGE_UPDATE_GOLDEN" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let update_snapshot file actual =
  let dir = if Sys.file_exists source_dir then source_dir else build_dir in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  write_file (Filename.concat dir file) actual

let compare_snapshot file actual =
  if updating then update_snapshot file actual
  else
    let path = Filename.concat build_dir file in
    if not (Sys.file_exists path) then
      Alcotest.failf
        "missing snapshot %s — regenerate with SAGE_UPDATE_GOLDEN=1 dune runtest"
        file
    else check Alcotest.string file (read_file path) actual

let test_report_snapshot c () =
  compare_snapshot (c.P.name ^ ".report.md") (Report.markdown (C.run_of c))

let test_analysis_snapshot c () =
  let json = Report.analysis_json (C.run_of c) in
  (match Sage_json.Json.parse json with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "%s analysis json malformed: %s" c.P.name e);
  compare_snapshot (c.P.name ^ ".analysis.json") json

(* The text trace sink under --trace-clock logical --jobs 1 is
   byte-deterministic, so it snapshots like any other artifact: any
   change to span structure, event names or the renderer shows up as a
   diff here. *)
let test_trace_text_snapshot c () =
  let _run, trace = C.traced_run_of c in
  compare_snapshot (c.P.name ^ ".trace.txt")
    (Sage_trace.Trace.render Sage_trace.Trace.Text trace)

let trace_snapshot_corpora = [ "icmp"; "igmp" ]

(* The chart parser's own output, below winnowing and the chart cache:
   for every sentence of every corpus, the spanning-item count, the
   truncation flag and the logical forms in order.  No corpus sentence
   fills a cell at the default capacity, so sentence E follows at the
   capacities `bench ablate-cap` sweeps: those runs pin which items a
   full cell keeps. *)
module Parser = Sage_ccg.Parser

let ccg_parses () =
  let b = Buffer.create 65536 in
  let record label (r : Parser.result) =
    Printf.bprintf b "%s\n  items=%d truncated=%b lfs=%d\n" label
      (List.length r.items) r.truncated (List.length r.lfs);
    List.iter
      (fun lf -> Printf.bprintf b "  %s\n" (Sage_logic.Lf.to_string lf))
      r.lfs
  in
  List.iter
    (fun (c : P.corpus) ->
      let spec = c.P.spec () in
      Printf.bprintf b "## %s\n" c.P.name;
      List.iter
        (fun (s : P.sentence_report) ->
          record s.sentence
            (Parser.parse ~lexicon:spec.P.lexicon ~dict:spec.P.dictionary
               s.sentence))
        (C.run_of c).P.sentences)
    P.corpora;
  let spec = P.icmp_spec () in
  let sentence_e =
    "If code = 0, an identifier to aid in matching echos and replies, may \
     be zero."
  in
  Printf.bprintf b "## sentence E by capacity: %s\n" sentence_e;
  List.iter
    (fun capacity ->
      record
        (Printf.sprintf "capacity %d" capacity)
        (Parser.parse ~capacity ~lexicon:spec.P.lexicon
           ~dict:spec.P.dictionary sentence_e))
    [ 4; 8; 16; 32; 64; 160; 512 ];
  Buffer.contents b

let test_ccg_parses_snapshot () =
  compare_snapshot "ccg.parses.txt" (ccg_parses ())

(* The BENCH.md page from a pinned synthetic history: Render.page is a
   pure function of the history (no clocks, no measurement), so the
   exact markdown — sparklines included — snapshots like any report and
   is byte-identical across runs and --jobs values. *)
module BH = Sage_bench.History

let bench_history =
  let s ns iters backend = { BH.ns; iters; backend } in
  List.fold_left BH.append BH.empty
    [
      {
        BH.commit = "0";
        date = "2026-08-01";
        entries =
          [
            ("interp/iter", s 15000.0 300 "interp");
            ("nlp", s 5500.0 1000 "nlp");
            ("winnow", s 220000.0 500 "disambig");
          ];
      };
      {
        BH.commit = "a1b2c3d";
        date = "2026-08-02";
        entries =
          [
            ("interp/iter", s 15500.0 300 "interp");
            ("nlp", s 5200.0 1000 "nlp");
            ("sim-pps", s 19000.0 50 "sim");
            ("winnow", s 230000.0 500 "disambig");
          ];
      };
      {
        BH.commit = "e4f5a6b";
        date = "2026-08-03";
        entries =
          [
            ("interp/iter", s 15200.0 300 "interp");
            ("nlp", s 6000.0 1000 "nlp");
            ("sim-pps", s 18500.0 50 "sim");
            ("winnow", s 210000.0 500 "disambig");
          ];
      };
    ]

let test_bench_page_snapshot () =
  compare_snapshot "bench.page.md" (Sage_bench.Render.page bench_history)

(* The paper page: bench/main.exe renders every table, figure and
   ablation with its claims, and exits 1 naming each claim that fails.
   The exit code is checked before the snapshot, so a page with a false
   claim fails even while SAGE_UPDATE_GOLDEN=1 regenerates the rest. *)
let test_paper_page_snapshot () =
  let code, page, err = Cli_harness.run Cli_harness.bench "" in
  if code <> 0 then Alcotest.failf "bench/main.exe exited %d:\n%s" code err;
  compare_snapshot "paper.md" page

let suite =
  List.concat_map
    (fun c ->
      [
        tc (c.P.name ^ " report snapshot") (test_report_snapshot c);
        tc (c.P.name ^ " analysis snapshot") (test_analysis_snapshot c);
      ]
      @
      if List.mem c.P.name trace_snapshot_corpora then
        [ tc (c.P.name ^ " trace-text snapshot") (test_trace_text_snapshot c) ]
      else [])
    P.corpora
  @ [
      tc "ccg parses snapshot" test_ccg_parses_snapshot;
      tc "bench page snapshot" test_bench_page_snapshot;
      tc "paper page snapshot" test_paper_page_snapshot;
    ]
