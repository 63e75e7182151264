(* CLI argument handling, exercised against the real binary: usage
   errors (unknown flags, malformed values, unknown subcommands, a
   --seeded NAME the verb does not take) must exit 2 with usage text on
   stderr and never a backtrace, a --seeded fixture that would change
   nothing in its run must exit 2 saying what it needs, and the fuzz
   verb must be deterministic and report through exit codes.  The exit
   codes of fixtures that do run live in test_seeded_matrix. *)

module Fixture = Sage_fixture.Fixture

let run_cli = Cli_harness.run_cli
let read_file = Cli_harness.read_file
let contains = Cli_harness.contains

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let check_usage_error name (code, _out, err) =
  checki (name ^ ": exit 2") 2 code;
  checkb (name ^ ": usage text on stderr") true
    (contains err "Usage" || contains err "usage");
  checkb (name ^ ": no backtrace") false
    (contains err "Raised at" || contains err "Backtrace")

let expect_usage_error name args = check_usage_error name (run_cli args)

let test_unknown_flag_fuzz () = expect_usage_error "fuzz" "fuzz --definitely-not-a-flag"
let test_unknown_flag_run () = expect_usage_error "run" "run --definitely-not-a-flag"
let test_unknown_flag_analyze () =
  expect_usage_error "analyze" "analyze --definitely-not-a-flag"
let test_unknown_flag_report () =
  expect_usage_error "report" "report --definitely-not-a-flag"

let test_malformed_seed () = expect_usage_error "fuzz seed" "fuzz --seed pancake"

let test_malformed_iters () =
  expect_usage_error "fuzz iters" "fuzz --iters x2";
  (* a run of no iterations would pass vacuously, fixtures included *)
  expect_usage_error "fuzz iters 0" "fuzz --seeded bug --iters 0";
  expect_usage_error "fuzz iters negative" "fuzz --iters=-3"

let test_malformed_jobs () =
  expect_usage_error "report jobs" "report --jobs many";
  (* --jobs 0 means auto-detect; a negative count is refused *)
  expect_usage_error "run jobs negative" "run -p icmp --jobs=-3"

let test_malformed_protocol () =
  expect_usage_error "fuzz protocol" "fuzz -p not-a-protocol"
let test_unknown_subcommand () = expect_usage_error "subcommand" "frobnicate"

(* every verb's help renders cleanly: a doc string cmdliner cannot
   parse shows as errors on stderr and as mangled text *)
let test_help_exits_zero () =
  List.iter
    (fun verb ->
      let code, out, err = run_cli (verb ^ " --help=plain") in
      checki (verb ^ " --help: exit 0") 0 code;
      checkb (verb ^ " --help: describes the verb") true (contains out verb);
      Alcotest.check Alcotest.string (verb ^ " --help: empty stderr") "" err)
    [ ""; "parse"; "derivation"; "run"; "code"; "analyze"; "ambiguities";
      "interop"; "corpus"; "reqs"; "fuzz"; "chaos"; "report"; "bench" ]

(* a function the run did not generate is an input fault, not a
   success: the available names go to stderr *)
let test_code_unknown_function () =
  let code, out, err = run_cli "code -p icmp -f no_such_function" in
  checki "exit 2" 2 code;
  checkb "no stdout" true (out = "");
  checkb "lists what exists" true (contains err "icmp_echo_reply_receiver")

let test_fuzz_deterministic_across_jobs () =
  let c1, out1, _ = run_cli "fuzz --seed 42 --iters 300" in
  let c2, out2, _ = run_cli "fuzz --seed 42 --iters 300 --jobs 4" in
  checki "both exit 0 (a)" 0 c1;
  checki "both exit 0 (b)" 0 c2;
  Alcotest.check Alcotest.string "byte-identical across --jobs" out1 out2

(* ---- chaos verb ---- *)

let test_unknown_flag_chaos () =
  expect_usage_error "chaos" "chaos --definitely-not-a-flag"

let test_chaos_malformed_seed () =
  expect_usage_error "chaos seed" "chaos --seed pancake"

let test_chaos_negative_soak () =
  expect_usage_error "chaos soak" "chaos --soak -5";
  expect_usage_error "chaos soak=" "chaos --soak=-5"

(* --schedule takes a built-in scenario's name, else a schedule *)
let test_chaos_unknown_scenario () =
  expect_usage_error "chaos scenario" "chaos --schedule warp"

let test_chaos_unknown_corpus () =
  expect_usage_error "chaos corpus" "chaos --corpus nope"

let test_chaos_bad_schedule () =
  (* a schedule without a final heal must be rejected at parse time *)
  expect_usage_error "chaos schedule" "chaos --schedule partition:10"

(* a repeated --corpus names one corpus: its cases run once *)
let test_chaos_repeated_corpus () =
  let code, out, _ = run_cli "chaos --corpus ntp --corpus ntp --schedule flaky" in
  checki "exit 0" 0 code;
  checkb "two cases" true (contains out "cases: 2 ")

let test_chaos_deterministic_across_jobs () =
  let c1, out1, _ = run_cli "chaos --seed 7 --corpus icmp" in
  let c2, out2, _ = run_cli "chaos --seed 7 --corpus icmp --jobs 4" in
  checki "both exit 0 (a)" 0 c1;
  checki "both exit 0 (b)" 0 c2;
  Alcotest.check Alcotest.string "byte-identical across --jobs" out1 out2

(* ---- one executor: compiled, checked against the interpreter ---- *)

(* a removed option must be refused as unknown, never silently accepted
   or read as a bad value *)
let test_option_gone args () =
  let ((_, _, err) as result) = run_cli args in
  check_usage_error args result;
  checkb (args ^ ": unknown option") true (contains err "unknown option")

(* -p names a row of the corpus table, rewritten texts included: a
   rewritten text only icmp and bfd have is an unknown row, refused
   with the rows listed rather than run as the original *)
let test_rewritten_needs_a_text () =
  test_option_gone "run --rewritten" ();
  let ((_, out, err) as result) = run_cli "run -p igmp-rw" in
  check_usage_error "run -p igmp-rw" result;
  checkb "run -p igmp-rw: no output" true (out = "");
  List.iter
    (fun (c : Sage.Pipeline.corpus) ->
      checkb ("run -p igmp-rw: lists " ^ c.name) true (contains err c.name))
    Sage.Pipeline.corpora;
  (* reqs --corpus runs every corpus into one text table: a flag that
     picks a corpus or a format is refused, not ignored *)
  List.iter
    (fun args ->
      let code, out, err = run_cli args in
      checki (args ^ ": exit 2") 2 code;
      checkb (args ^ ": no output") true (out = "");
      checkb (args ^ ": one line on stderr") true
        (err <> "" && not (String.contains (String.trim err) '\n')))
    [ "reqs --corpus -p icmp-rw"; "reqs --corpus -p icmp";
      "reqs --corpus --format json" ]

(* every row of the corpus table is one -p name, and its report is the
   golden snapshot of that row *)
let test_p_selects_every_row () =
  List.iter
    (fun (c : Sage.Pipeline.corpus) ->
      let code, out, _ = run_cli ("report -p " ^ c.name) in
      checki (c.name ^ ": exit 0") 0 code;
      Alcotest.check Alcotest.string (c.name ^ ": golden report")
        (read_file (Filename.concat "golden" (c.name ^ ".report.md")))
        out)
    Sage.Pipeline.corpora

(* an output file that cannot be written is an input fault found before
   the run: one line on stderr, exit 2, and none of the run's output *)
let test_unwritable_output () =
  List.iter
    (fun (verb, args) ->
      let code, out, err = run_cli (verb ^ " " ^ args) in
      checki (args ^ ": exit 2") 2 code;
      checkb (args ^ ": no output") true (out = "");
      checkb (args ^ ": names the file") true
        (String.starts_with
           ~prefix:("sage " ^ verb ^ ": cannot write /nonexistent/")
           err);
      checkb (args ^ ": one line on stderr") true
        (not (String.contains (String.trim err) '\n')))
    [
      ("run", "-p icmp --trace=/nonexistent/dir/x.json");
      ("fuzz", "--iters 10 --coverage-out /nonexistent/c.json");
      ("bench", "--filter icmp-encode --history /nonexistent/h.json --record x");
    ]

(* a history path that exists but cannot be read (here the working
   directory) is a load error, reported before any target runs *)
let test_bench_history_unreadable () =
  let code, out, err = run_cli "bench --filter icmp-encode --history ." in
  checki "exit 1" 1 code;
  checkb "no output" true (out = "");
  checkb "names the file" true (String.starts_with ~prefix:"sage bench: .: " err);
  checkb "one line on stderr" true (not (String.contains (String.trim err) '\n'))

(* --stats appends the profile of the run's trace: the verb's own
   stdout comes first, byte for byte, then rows sorted by name *)
let test_stats_appends_profile () =
  List.iter
    (fun args ->
      let c1, plain, _ = run_cli args in
      let c2, stats, _ = run_cli (args ^ " --stats") in
      checki (args ^ ": same exit") c1 c2;
      checkb (args ^ ": stdout is a prefix") true
        (String.starts_with ~prefix:plain stats);
      let n = String.length plain in
      match
        String.split_on_char '\n' (String.sub stats n (String.length stats - n))
      with
      | "" :: header :: rows ->
        checkb (args ^ ": profile header") true
          (String.starts_with ~prefix:"name " header);
        let names =
          List.filter_map
            (fun l ->
              match String.split_on_char ' ' l with
              | w :: _ when w <> "" -> Some w
              | _ -> None)
            rows
        in
        checkb (args ^ ": has rows") true (names <> []);
        checkb (args ^ ": rows sorted") true (List.sort compare names = names)
      | _ -> Alcotest.failf "%s: no profile after the output" args)
    [
      "run -p icmp";
      "report -p icmp";
      "fuzz --seed 42 --iters 50";
      "chaos --seed 7 --corpus icmp";
      "interop -p icmp-rw";
    ]

let test_fuzz_compiled_reproducible () =
  (* every run executes compiled code and re-checks each iteration on
     the interpreter: same seed, no disagreement, byte-identical
     summaries across repeated runs *)
  let c1, out1, _ = run_cli "fuzz --seed 42 --iters 300" in
  let c2, out2, _ = run_cli "fuzz --seed 42 --iters 300" in
  checki "exit 0 (a)" 0 c1;
  checki "exit 0 (b)" 0 c2;
  checkb "zero findings" true (contains out1 "findings   : 0");
  Alcotest.check Alcotest.string "byte-identical across runs" out1 out2

let test_interop_rewritten () =
  (* the disambiguated spec is the one that passes the paper's interop
     experiment *)
  let code, out, _err = run_cli "interop -p icmp-rw" in
  checki "interop -p icmp-rw exits 0" 0 code;
  checkb "ping succeeded" true (contains out "ping 192.168.2.10: ok");
  checkb "traceroute reached" true (contains out "reached")

let test_fuzz_coverage_out () =
  let file = Filename.temp_file "sage_cov" ".json" in
  let code, _out, _err =
    run_cli (Printf.sprintf "fuzz --seed 42 --iters 150 --coverage-out %s" file)
  in
  checki "exit 0" 0 code;
  let json = read_file file in
  Sys.remove file;
  checkb "coverage json has functions" true (contains json "\"functions\"");
  checkb "coverage json has totals" true (contains json "\"points\"");
  checkb "coverage json parses" true (Result.is_ok (Sage_json.Json.parse json))

(* ---- analyze verb: proofs, fixtures, policies, determinism ---- *)

(* --fail-on belongs to analyze alone: run and report refuse it *)
let test_malformed_fail_on () =
  expect_usage_error "analyze fail-on" "analyze --fail-on never-ever";
  test_option_gone "run --fail-on error" ();
  test_option_gone "report --fail-on error" ()

let test_analyze_prove_clean () =
  let code, _out, err = run_cli "analyze -p icmp --prove" in
  checki "proved corpus exits 0" 0 code;
  checkb "proof summary on stderr" true
    (contains err "functions proved in-bounds");
  checkb "everything proved" false (contains err "unproved:")

let test_analyze_fail_on_policies () =
  (* icmp carries warnings but no errors: the two policies must land on
     opposite exit codes over the same findings *)
  let lax, _, _ = run_cli "analyze -p icmp --fail-on error" in
  let strict, _, _ = run_cli "analyze -p icmp --fail-on warning" in
  checki "--fail-on error exits 0" 0 lax;
  checki "--fail-on warning exits 1" 1 strict

let test_analyze_json_deterministic () =
  let c1, out1, _ = run_cli "analyze -p bgp --format json" in
  let c2, out2, _ = run_cli "analyze -p bgp --format json --jobs 4" in
  checki "exit 0 (a)" 0 c1;
  checki "exit 0 (b)" 0 c2;
  checkb "json findings" true (contains out1 "\"code\"");
  checkb "json parses" true (Result.is_ok (Sage_json.Json.parse out1));
  Alcotest.check Alcotest.string "byte-identical across --jobs" out1 out2

let test_fuzz_check_proofs () =
  let code, out, _err = run_cli "fuzz --seed 42 --iters 200 --check-proofs" in
  checki "proof cross-check exits 0" 0 code;
  checkb "proof set reported" true (contains out "SA007-proved");
  checkb "cross-check passed" true (contains out "proof-check: ok")

(* ---- --seeded NAME ---- *)

let test_seeded_not_for_verb () =
  let code, _out, err = run_cli "fuzz --seeded regression" in
  checki "exit 2" 2 code;
  List.iter
    (fun f ->
      if List.mem "fuzz" (Fixture.verbs f) then
        checkb ("lists " ^ Fixture.name f) true
          (contains err (Printf.sprintf "'%s'" (Fixture.name f))))
    Fixture.all

let test_seeded_hyphenated_unknown () =
  List.iter
    (fun args -> expect_usage_error args args)
    [ "fuzz --seeded-bug"; "fuzz --seeded-divergence";
      "fuzz --seeded-violation"; "analyze --seeded-wedge";
      "chaos --seeded-wedge"; "bench --seeded-regression" ]

(* a fixture whose target the run does not have would pass vacuously *)
let expect_vacuous ~fixture ~needs args () =
  let code, _out, err = run_cli args in
  checki (args ^ ": exit 2") 2 code;
  checkb (args ^ ": names the fixture") true
    (contains err ("--seeded " ^ fixture));
  checkb (args ^ ": says what it needs") true (contains err needs);
  checkb (args ^ ": no backtrace") false
    (contains err "Raised at" || contains err "Backtrace")

(* (label, fixture, what the refusal must ask for, command line) *)
let vacuous_cases =
  [
    ( "fuzz bug on bfd", "bug", "-p icmp",
      "fuzz -p bfd --seed 42 --iters 300 --seeded bug" );
    ( "fuzz divergence on bfd", "divergence", "-p icmp",
      "fuzz -p bfd --seed 42 --iters 300 --seeded divergence" );
    ( "fuzz violation on icmp", "violation", "-p bfd",
      "fuzz -p icmp --seeded violation" );
    ( "analyze wedge on icmp", "wedge", "-p bfd",
      "analyze -p icmp --seeded wedge --prove" );
    ( "chaos wedge without a crash", "wedge", "crash episode",
      "chaos --seed 7 --corpus icmp --schedule partition --seeded wedge" );
  ]

let suite =
  [
    Alcotest.test_case "unknown flag: fuzz" `Quick test_unknown_flag_fuzz;
    Alcotest.test_case "unknown flag: run" `Quick test_unknown_flag_run;
    Alcotest.test_case "unknown flag: analyze" `Quick test_unknown_flag_analyze;
    Alcotest.test_case "unknown flag: report" `Quick test_unknown_flag_report;
    Alcotest.test_case "malformed --seed" `Quick test_malformed_seed;
    Alcotest.test_case "malformed --iters" `Quick test_malformed_iters;
    Alcotest.test_case "malformed --jobs" `Quick test_malformed_jobs;
    Alcotest.test_case "malformed --protocol" `Quick test_malformed_protocol;
    Alcotest.test_case "unknown subcommand" `Quick test_unknown_subcommand;
    Alcotest.test_case "--help exits 0" `Quick test_help_exits_zero;
    Alcotest.test_case "code -f: unknown function exits 2" `Quick
      test_code_unknown_function;
    Alcotest.test_case "fuzz: identical across --jobs" `Slow
      test_fuzz_deterministic_across_jobs;
    Alcotest.test_case "fuzz: --coverage-out json" `Slow test_fuzz_coverage_out;
    Alcotest.test_case "malformed --backend: fuzz" `Quick
      (test_option_gone "fuzz --backend compiled");
    Alcotest.test_case "malformed --backend: interop" `Quick
      (test_option_gone "interop --backend compiled");
    Alcotest.test_case "malformed --backend: chaos" `Quick
      (test_option_gone "chaos --backend compiled");
    Alcotest.test_case "removed option: report --analyze" `Quick
      (test_option_gone "report --analyze");
    Alcotest.test_case "removed option: run --analyze" `Quick
      (test_option_gone "run --analyze");
    Alcotest.test_case "removed option: fuzz -v" `Quick
      (test_option_gone "fuzz -v");
    Alcotest.test_case "removed option: bench --stats" `Quick
      (test_option_gone "bench --stats");
    Alcotest.test_case "removed option: --cache" `Quick
      (test_option_gone "report -p icmp --cache 4096");
    Alcotest.test_case "--rewritten needs a rewritten text" `Quick
      test_rewritten_needs_a_text;
    Alcotest.test_case "-p selects every corpus row" `Slow
      test_p_selects_every_row;
    Alcotest.test_case "unwritable output path exits 2" `Quick
      test_unwritable_output;
    Alcotest.test_case "bench: unreadable --history exits 1" `Quick
      test_bench_history_unreadable;
    Alcotest.test_case "--stats appends the profile" `Slow
      test_stats_appends_profile;
    Alcotest.test_case "fuzz: compiled backend reproducible" `Slow
      test_fuzz_compiled_reproducible;
    Alcotest.test_case "interop: --rewritten passes" `Slow
      test_interop_rewritten;
    Alcotest.test_case "bench: --window below 1" `Quick
      (test_option_gone "bench --filter winnow --check --window 0");
    Alcotest.test_case "unknown flag: chaos" `Quick test_unknown_flag_chaos;
    Alcotest.test_case "chaos: malformed --seed" `Quick test_chaos_malformed_seed;
    Alcotest.test_case "chaos: negative --soak" `Quick test_chaos_negative_soak;
    Alcotest.test_case "chaos: unknown --scenario" `Quick
      test_chaos_unknown_scenario;
    Alcotest.test_case "chaos: unknown --corpus" `Quick test_chaos_unknown_corpus;
    Alcotest.test_case "chaos: schedule missing heal" `Quick
      test_chaos_bad_schedule;
    Alcotest.test_case "chaos: --scenario conflicts with --schedule" `Quick
      (test_option_gone "chaos --scenario flaky");
    Alcotest.test_case "chaos: identical across --jobs" `Slow
      test_chaos_deterministic_across_jobs;
    Alcotest.test_case "chaos: repeated --corpus runs once" `Quick
      test_chaos_repeated_corpus;
    Alcotest.test_case "malformed --fail-on" `Quick test_malformed_fail_on;
    Alcotest.test_case "analyze: --prove clean corpus exits 0" `Slow
      test_analyze_prove_clean;
    Alcotest.test_case "analyze: --fail-on policies" `Slow
      test_analyze_fail_on_policies;
    Alcotest.test_case "analyze: json identical across --jobs" `Slow
      test_analyze_json_deterministic;
    Alcotest.test_case "fuzz: --check-proofs passes" `Slow
      test_fuzz_check_proofs;
    Alcotest.test_case "--seeded NAME the verb lacks" `Quick
      test_seeded_not_for_verb;
    Alcotest.test_case "hyphenated --seeded-NAME is unknown" `Quick
      test_seeded_hyphenated_unknown;
  ]
  @ List.map
      (fun (label, fixture, needs, args) ->
        Alcotest.test_case ("vacuous: " ^ label) `Quick
          (expect_vacuous ~fixture ~needs args))
      vacuous_cases
