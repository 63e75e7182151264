(* lib/bench under test: History parse/print properties (qcheck_lite),
   the Regress gate's verdict semantics on synthetic trajectories,
   Render determinism, the Target registry (coverage of every committed
   history key, work-unit counting), and the `sage bench` verb's surface
   via the real binary. *)

module Q = Qcheck_lite
module H = Sage_bench.History
module Regress = Sage_bench.Regress
module Render = Sage_bench.Render
module Target = Sage_bench.Target
module Sr = Sage_bench.Seeded_regression

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Generators.                                                         *)
(* ------------------------------------------------------------------ *)

(* two disjoint key pools, so merge commutativity can be tested on
   histories that cannot collide on (commit, date, key) *)
let pool_a = [ "nlp"; "ccg-parse"; "winnow"; "codegen" ]
let pool_b = [ "analysis-dataflow"; "interp/iter"; "sim-pps"; "fuzz/iter" ]

let backends = [ "interp"; "compiled"; "sim"; "snapshot" ]

(* ns values on exact tenths so the canonical %.1f printer round-trips
   bit-for-bit through the parser *)
let sample_arb =
  Q.map
    ~print:(fun (s : H.sample) ->
      Printf.sprintf "{ns=%.1f; iters=%d; backend=%s}" s.H.ns s.H.iters
        s.H.backend)
    (fun ((ns10, iters), bi) ->
      {
        H.ns = float_of_int ns10 /. 10.;
        iters;
        backend = List.nth backends bi;
      })
    (Q.pair
       (Q.pair (Q.int_range 0 10_000_000) (Q.int_range 1 100_000))
       (Q.int_range 0 (List.length backends - 1)))

(* entries drawn from [pool] without duplicate keys *)
let entries_arb pool =
  Q.map
    ~print:(fun entries ->
      String.concat "; "
        (List.map (fun (k, (s : H.sample)) -> k ^ "=" ^ string_of_float s.H.ns)
           entries))
    (fun picks ->
      List.fold_left
        (fun acc (i, s) ->
          let key = List.nth pool (i mod List.length pool) in
          if List.mem_assoc key acc then acc else acc @ [ (key, s) ])
        [] picks)
    (Q.list_of ~max_len:5
       (Q.pair (Q.int_range 0 (List.length pool - 1)) sample_arb))

let record_arb pool =
  Q.map
    ~print:(fun (r : H.record) -> H.to_string { H.empty with records = [ r ] })
    (fun ((ci, day), entries) ->
      {
        H.commit = Printf.sprintf "c%d" ci;
        date = Printf.sprintf "2026-08-%02d" (1 + day);
        entries;
      })
    (Q.pair (Q.pair (Q.int_range 0 99) (Q.int_range 0 27)) (entries_arb pool))

let history_arb pool =
  Q.map
    ~print:(fun h -> H.to_string h)
    (fun records -> List.fold_left H.append H.empty records)
    (Q.list_of ~max_len:4 (record_arb pool))

let history_pair_arb =
  Q.pair (history_arb pool_a) (history_arb pool_b)

(* ------------------------------------------------------------------ *)
(* History properties.                                                 *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  Q.test "history parse/print round-trip" ~count:150 (history_arb pool_a)
    (fun h -> H.of_string (H.to_string h) = Ok h)

let prop_append_monotonic =
  Q.test "append preserves the existing trajectory" ~count:150
    (Q.pair (history_arb pool_a) (record_arb pool_a))
    (fun (h, r) ->
      let h' = H.append h r in
      let n = List.length h.H.records in
      List.length h'.H.records = n + 1
      && List.filteri (fun i _ -> i < n) h'.H.records = h.H.records
      && List.for_all
           (fun (key, s) -> H.latest h' key = Some s)
           r.H.entries)

let prop_merge_commutes =
  Q.test "merge commutes on disjoint key pools" ~count:150 history_pair_arb
    (fun (a, b) -> H.to_string (H.merge a b) = H.to_string (H.merge b a))

let prop_merge_key_union =
  Q.test "merge covers the union of keys" ~count:150 history_pair_arb
    (fun (a, b) ->
      H.keys (H.merge a b)
      = List.sort_uniq compare (H.keys a @ H.keys b))

(* ------------------------------------------------------------------ *)
(* History unit tests: baseline / queries.                             *)
(* ------------------------------------------------------------------ *)

let sample ?(iters = 100) ?(backend = "interp") ns = { H.ns; iters; backend }

(* one record per value, so the key's trajectory is exactly [values] *)
let history_of_trajectory key values =
  List.fold_left
    (fun (h, i) ns ->
      ( H.append h
          {
            H.commit = Printf.sprintf "c%d" i;
            date = Printf.sprintf "2026-08-%02d" (1 + i);
            entries = [ (key, sample ns) ];
          },
        i + 1 ))
    (H.empty, 0) values
  |> fst

let test_baseline_median () =
  let h = history_of_trajectory "k" [ 100.; 200.; 300.; 400.; 500.; 600. ] in
  (* odd window: median of the last 5 *)
  check (Alcotest.option (Alcotest.float 1e-9)) "window 5"
    (Some 400.) (H.baseline ~window:5 h "k");
  (* even window: mean of the two middles *)
  check (Alcotest.option (Alcotest.float 1e-9)) "window 4"
    (Some 450.) (H.baseline ~window:4 h "k");
  (* window longer than the trajectory: all of it *)
  check (Alcotest.option (Alcotest.float 1e-9)) "window 99"
    (Some 350.) (H.baseline ~window:99 h "k");
  check (Alcotest.option (Alcotest.float 1e-9)) "unknown key"
    None (H.baseline h "missing")

let test_queries () =
  let h = history_of_trajectory "k" [ 300.; 100.; 200. ] in
  check (Alcotest.option (Alcotest.float 1e-9)) "latest"
    (Some 200.) (Option.map (fun s -> s.H.ns) (H.latest h "k"));
  check (Alcotest.option (Alcotest.float 1e-9)) "best"
    (Some 100.) (Option.map (fun s -> s.H.ns) (H.best h "k"));
  check (Alcotest.list (Alcotest.float 1e-9)) "trajectory"
    [ 300.; 100.; 200. ] (H.trajectory h "k");
  check (Alcotest.list Alcotest.string) "keys" [ "k" ] (H.keys h)

let test_save_load_atomic () =
  let file = Filename.temp_file "sage-bench-history" ".json" in
  let h = history_of_trajectory "winnow" [ 100.5; 99.9 ] in
  H.save file h;
  check Alcotest.bool "no temp residue" false (Sys.file_exists (file ^ ".tmp"));
  (match H.load file with
   | Ok h' -> check Alcotest.bool "load back equals" true (h = h')
   | Error e -> Alcotest.failf "load failed: %s" e);
  Sys.remove file

let test_load_missing_is_empty () =
  match H.load "no-such-history-file.json" with
  | Ok h -> check Alcotest.bool "empty" true (h = H.empty)
  | Error e -> Alcotest.failf "expected empty history, got error: %s" e

let test_load_rejects_garbage () =
  let file = Filename.temp_file "sage-bench-history" ".json" in
  let oc = open_out file in
  output_string oc "{ \"schema\": 99, \"commits\": [] }";
  close_out oc;
  (match H.load file with
   | Ok _ -> Alcotest.fail "schema 99 must not load"
   | Error e ->
     check Alcotest.bool "names the schema" true
       (Cli_harness.contains e "schema"));
  let oc = open_out file in
  output_string oc "{ \"schema\": 1, \"commits\": [ { \"commit\"";
  close_out oc;
  (match H.load file with
   | Ok _ -> Alcotest.fail "truncated document must not load"
   | Error _ -> ());
  Sys.remove file

(* ------------------------------------------------------------------ *)
(* Regress gate semantics.                                             *)
(* ------------------------------------------------------------------ *)

let statuses report =
  List.map (fun l -> (l.Regress.key, l.Regress.status)) report.Regress.lines

let test_regress_flat_noise_passes () =
  let h = history_of_trajectory "k" [ 100.; 103.; 98. ] in
  let report =
    Regress.check ~history:h ~expected:[ "k" ]
      ~current:[ ("k", sample 110.) ] ()
  in
  check Alcotest.int "exit 0" 0 (Regress.exit_code report);
  match statuses report with
  | [ ("k", Regress.Within _) ] -> ()
  | _ -> Alcotest.fail "expected a single Within verdict"

let test_regress_2x_fails_naming_key () =
  let h = history_of_trajectory "winnow" [ 100.; 100.; 100. ] in
  let report =
    Regress.check ~history:h ~expected:[ "winnow" ]
      ~current:[ ("winnow", sample 200.) ] ()
  in
  check Alcotest.int "exit 1" 1 (Regress.exit_code report);
  let rendered = Regress.render report in
  check Alcotest.bool "table says REGRESSED" true
    (Cli_harness.contains rendered "REGRESSED");
  check Alcotest.bool "table names the key" true
    (Cli_harness.contains rendered "winnow");
  match statuses report with
  | [ ("winnow", Regress.Regressed { baseline; delta; _ }) ] ->
    check (Alcotest.float 1e-9) "baseline" 100. baseline;
    check (Alcotest.float 1e-9) "delta" 1.0 delta
  | _ -> Alcotest.fail "expected a single Regressed verdict"

let test_regress_new_key_is_recorded_not_failed () =
  let report =
    Regress.check ~history:H.empty ~expected:[ "sim-pps" ]
      ~current:[ ("sim-pps", sample 50.) ] ()
  in
  check Alcotest.int "exit 0" 0 (Regress.exit_code report);
  check Alcotest.bool "says baseline recorded" true
    (Cli_harness.contains (Regress.render report) "new (baseline recorded)");
  match statuses report with
  | [ ("sim-pps", Regress.New_key) ] -> ()
  | _ -> Alcotest.fail "expected a single New_key verdict"

let test_regress_missing_key_is_explicit_error () =
  let h = history_of_trajectory "k" [ 100. ] in
  let report = Regress.check ~history:h ~expected:[ "k" ] ~current:[] () in
  check Alcotest.int "exit 1" 1 (Regress.exit_code report);
  check Alcotest.bool "says MISSING" true
    (Cli_harness.contains (Regress.render report) "MISSING");
  match statuses report with
  | [ ("k", Regress.Missing) ] -> ()
  | _ -> Alcotest.fail "expected a single Missing verdict"

let test_regress_per_key_tolerance_floor () =
  let h = history_of_trajectory "jittery" [ 100. ] in
  let tolerance_of = function "jittery" -> Some 0.5 | _ -> None in
  let checked current =
    Regress.check ~tolerance_of ~history:h ~expected:[ "jittery" ]
      ~current:[ ("jittery", sample current) ] ()
  in
  (* +40% would fail the 15% default but sits inside the 50% floor *)
  check Alcotest.int "within the floor" 0 (Regress.exit_code (checked 140.));
  check Alcotest.int "beyond the floor" 1 (Regress.exit_code (checked 160.));
  (* a loosened default applies on top of the floor *)
  let loose =
    Regress.check ~default_tolerance:1.0 ~tolerance_of ~history:h
      ~expected:[ "jittery" ]
      ~current:[ ("jittery", sample 160.) ]
      ()
  in
  check Alcotest.int "loosened default wins over the floor" 0
    (Regress.exit_code loose)

let test_regress_improvement_passes () =
  let h = history_of_trajectory "k" [ 100.; 100.; 100. ] in
  let report =
    Regress.check ~history:h ~expected:[ "k" ]
      ~current:[ ("k", sample 40.) ] ()
  in
  check Alcotest.int "exit 0" 0 (Regress.exit_code report);
  match statuses report with
  | [ ("k", Regress.Improved _) ] -> ()
  | _ -> Alcotest.fail "expected a single Improved verdict"

let test_regress_baseline_is_median_of_window () =
  (* one historic outlier must not move the bar: median of the last 5
     of [100 100 100 900 100 100] is 100, so a 110 current passes *)
  let h =
    history_of_trajectory "k" [ 100.; 100.; 100.; 900.; 100.; 100. ]
  in
  let report =
    Regress.check ~window:5 ~history:h ~expected:[ "k" ]
      ~current:[ ("k", sample 110.) ] ()
  in
  check Alcotest.int "outlier-immune" 0 (Regress.exit_code report)

(* ------------------------------------------------------------------ *)
(* Render.                                                             *)
(* ------------------------------------------------------------------ *)

let test_spark () =
  check Alcotest.string "rising" "▁█" (Render.spark [ 1.; 8. ]);
  check Alcotest.string "flat" "▄▄▄" (Render.spark [ 5.; 5.; 5. ]);
  check Alcotest.string "empty" "" (Render.spark []);
  (* 50/100 scales to 3.5, which rounds away from zero to block 4 *)
  check Alcotest.string "shape"
    "▁▅█▅" (Render.spark [ 0.; 50.; 100.; 50. ])

let test_render_deterministic () =
  let h = history_of_trajectory "winnow" [ 100.; 140.; 120. ] in
  let page = Render.page h in
  (* a structurally equal history built through the parser renders
     byte-identically *)
  (match H.of_string (H.to_string h) with
   | Ok h' -> check Alcotest.string "byte-identical" page (Render.page h')
   | Error e -> Alcotest.failf "round-trip failed: %s" e);
  check Alcotest.bool "has the sparkline" true
    (Cli_harness.contains page "▁█▅");
  check Alcotest.bool "names the key" true
    (Cli_harness.contains page "winnow")

let test_render_empty_history () =
  check Alcotest.bool "says no commits" true
    (Cli_harness.contains (Render.page H.empty) "No commits recorded")

(* ------------------------------------------------------------------ *)
(* Target registry.                                                    *)
(* ------------------------------------------------------------------ *)

let required_keys =
  [
    "nlp"; "ccg-parse"; "winnow"; "codegen"; "analysis-dataflow";
    "analysis-absint/iter"; "interp/iter"; "reference-echo-reply";
    "icmp-encode"; "sim-pps"; "fuzz/iter"; "fuzz-compiled/iter";
    "interp-vs-compiled/iter"; "reqs/iter"; "chaos/tick";
  ]

let test_registry_covers_every_stage () =
  List.iter
    (fun key ->
      if Target.find key = None then
        Alcotest.failf "target registry lacks %s" key)
    required_keys;
  check Alcotest.int "exactly the documented targets"
    (List.length required_keys)
    (List.length Target.all)

let test_registry_filter () =
  check (Alcotest.list Alcotest.string) "substring filter"
    [ "interp/iter"; "interp-vs-compiled/iter" ]
    (List.map
       (fun (t : Target.t) -> t.Target.key)
       (Target.filter "interp"));
  check Alcotest.int "empty filter selects all" (List.length Target.all)
    (List.length (Target.filter ""))

let test_run_one_target () =
  (* the cheapest target, turned down further: this is a smoke test of
     the measurement loop, not a benchmark *)
  match Target.find "codegen" with
  | None -> Alcotest.fail "codegen target missing"
  | Some t ->
    let s = Target.run { t with Target.calls = 5; reps = 1 } in
    check Alcotest.bool "positive time" true (s.H.ns > 0.);
    check Alcotest.int "iters recorded" 5 s.H.iters;
    check Alcotest.string "backend recorded" "codegen" s.H.backend

let test_run_counts_work_units () =
  (* one call of a loop target is 20 000 fuzz iterations: the sample is
     per iteration and records the iterations, not the calls *)
  match Target.find "fuzz-compiled/iter" with
  | None -> Alcotest.fail "fuzz-compiled/iter target missing"
  | Some t ->
    let s = Target.run { t with Target.calls = 1; reps = 1 } in
    check Alcotest.int "iters = fuzz iterations" 20_000 s.H.iters;
    check Alcotest.string "backend recorded" "compiled" s.H.backend

(* the committed trajectory: `dune runtest` copies it next to the test
   directory, a bare `dune exec` of the suite finds it in the source
   tree; resolved from the binary so the suite is cwd-independent *)
let committed_history () =
  let build_root = Filename.dirname (Filename.dirname Sys.executable_name) in
  List.find_opt Sys.file_exists
    [
      Filename.concat build_root "BENCH_history.json";
      List.fold_left Filename.concat build_root
        [ ".."; ".."; "BENCH_history.json" ];
    ]

let test_committed_history_is_registered () =
  match Option.map H.load (committed_history ()) with
  | None -> Alcotest.fail "BENCH_history.json not found"
  | Some (Error e) -> Alcotest.failf "BENCH_history.json: %s" e
  | Some (Ok h) ->
    check Alcotest.bool "history has keys" true (H.keys h <> []);
    List.iter
      (fun key ->
        if Target.find key = None then
          Alcotest.failf "history key %s has no registered target" key)
      (H.keys h)

(* ------------------------------------------------------------------ *)
(* Seeded regression.                                                  *)
(* ------------------------------------------------------------------ *)

let test_seeded_tamper () =
  let current = [ ("winnow", sample 100.); ("nlp", sample 50.) ] in
  let tampered = Sr.tamper current in
  check (Alcotest.option (Alcotest.float 1e-9)) "winnow slowed 3x"
    (Some 300.)
    (Option.map (fun s -> s.H.ns) (List.assoc_opt "winnow" tampered));
  check (Alcotest.option (Alcotest.float 1e-9)) "others untouched"
    (Some 50.)
    (Option.map (fun s -> s.H.ns) (List.assoc_opt "nlp" tampered));
  (* without the default target, the first measured key is slowed *)
  let fallback = Sr.tamper [ ("nlp", sample 50.) ] in
  check (Alcotest.option (Alcotest.float 1e-9)) "fallback key slowed"
    (Some 150.)
    (Option.map (fun s -> s.H.ns) (List.assoc_opt "nlp" fallback));
  check (Alcotest.option Alcotest.string) "tampered key reported"
    (Some "nlp")
    (Sr.tampered_key [ ("nlp", sample 50.) ])

(* ------------------------------------------------------------------ *)
(* CLI surface (the real binary; measurement-free paths only — the     *)
(* measured record/check paths live in the seeded exit-code matrix).   *)
(* ------------------------------------------------------------------ *)

let test_cli_list () =
  let code, out, _ = Cli_harness.run_cli "bench --list" in
  check Alcotest.int "exit 0" 0 code;
  List.iter
    (fun key ->
      if not (Cli_harness.contains out key) then
        Alcotest.failf "bench --list lacks %s" key)
    required_keys

let test_cli_render_empty () =
  let code, out, _ =
    Cli_harness.run_cli "bench --render --history sage-bench-absent.json"
  in
  check Alcotest.int "exit 0" 0 code;
  check Alcotest.bool "renders the empty page" true
    (Cli_harness.contains out "No commits recorded")

let test_cli_bad_filter () =
  let code, _, err =
    Cli_harness.run_cli "bench --check --filter no-such-target"
  in
  check Alcotest.int "exit 1" 1 code;
  check Alcotest.bool "names the filter" true
    (Cli_harness.contains err "no-such-target")

let test_cli_missing_history_key () =
  (* a history key no target measures any more fails the check by name,
     even though the filter selected only its registered neighbour *)
  let file = Filename.temp_file "sage-bench-retired" ".json" in
  H.save file (history_of_trajectory "winnow-retired" [ 100. ]);
  let code, out, _ =
    Cli_harness.run_cli
      (Printf.sprintf "bench --filter winnow --history %s --check"
         (Filename.quote file))
  in
  Sys.remove file;
  check Alcotest.int "exit 1" 1 code;
  check Alcotest.bool "winnow-retired is MISSING" true
    (List.exists
       (fun line ->
         Cli_harness.contains line "winnow-retired"
         && Cli_harness.contains line "MISSING")
       (String.split_on_char '\n' out))

let suite =
  [
    prop_roundtrip;
    prop_append_monotonic;
    prop_merge_commutes;
    prop_merge_key_union;
    tc "baseline is the median of the window" test_baseline_median;
    tc "latest/best/trajectory/keys" test_queries;
    tc "save/load is atomic and lossless" test_save_load_atomic;
    tc "loading a missing history is empty" test_load_missing_is_empty;
    tc "bad schema and torn documents are errors" test_load_rejects_garbage;
    tc "flat noise within tolerance passes" test_regress_flat_noise_passes;
    tc "2x regression fails naming the key" test_regress_2x_fails_naming_key;
    tc "new key is baseline-recorded, not failed"
      test_regress_new_key_is_recorded_not_failed;
    tc "missing key is an explicit error"
      test_regress_missing_key_is_explicit_error;
    tc "per-key tolerance acts as a floor" test_regress_per_key_tolerance_floor;
    tc "improvement passes" test_regress_improvement_passes;
    tc "baseline ignores a single outlier"
      test_regress_baseline_is_median_of_window;
    tc "sparklines" test_spark;
    tc "page renders deterministically" test_render_deterministic;
    tc "page on empty history" test_render_empty_history;
    tc "registry covers every pipeline stage"
      test_registry_covers_every_stage;
    tc "registry filter" test_registry_filter;
    tc "measurement loop smoke" test_run_one_target;
    tc "loop targets record their work units" test_run_counts_work_units;
    tc "every committed history key is registered"
      test_committed_history_is_registered;
    tc "seeded tamper slows exactly one key 3x" test_seeded_tamper;
    tc "sage bench --list" test_cli_list;
    tc "sage bench --render on absent history" test_cli_render_empty;
    tc "sage bench --filter with no match" test_cli_bad_filter;
    tc "sage bench --check fails on a retired history key"
      test_cli_missing_history_key;
  ]
