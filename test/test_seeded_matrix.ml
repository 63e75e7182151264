(* The seeded-fixture exit-code matrix, table-driven against the real
   binary: every (fixture, verb) pair of Fixture.all must have a row
   here that exits 1 (each fixture is a self-test proving its oracle
   can fire), and every clean corpus must exit 0 under the same verbs.
   One table instead of per-suite copies of the same assertion — the
   fixture-internals tests (what exactly was tampered, how the finding
   shrinks) stay with the suites of the oracles they exercise.

   A row's [name] is its stable test id; [args] is what runs, after
   [setup] (a command that must exit 0) when a row has one. *)

module Fixture = Sage_fixture.Fixture

let run_cli = Cli_harness.run_cli
let contains = Cli_harness.contains

type row = {
  name : string;
  setup : string option;
  args : string;
  exit_code : int;
  expect : string list;  (** substrings that must appear on stdout *)
}

let seeded_fixtures =
  [
    {
      name = "fuzz --seeded-bug";
      setup = None;
      args = "fuzz --seed 42 --iters 300 --seeded bug";
      exit_code = 1;
      expect = [ "findings   : 1" ];
    };
    {
      name = "fuzz --seeded-divergence";
      setup = None;
      args = "fuzz --seed 42 --iters 300 --seeded divergence";
      exit_code = 1;
      expect = [ "findings   : 1"; "backend-agreement" ];
    };
    {
      name = "fuzz --seeded-violation";
      setup = None;
      args = "fuzz -p bfd --seed 42 --iters 300 --seeded violation";
      exit_code = 1;
      expect =
        [
          "findings   : 1";
          "requirement RQ001";
          (* the finding must carry the source sentence and a shrunk
             witness, per the requirement-oracle contract *)
          "If the version number is not 1, the packet MUST be discarded.";
          "shrunk packet";
        ];
    };
    {
      name = "chaos --seeded-wedge";
      setup = None;
      args = "chaos --seed 7 --corpus icmp --seeded wedge";
      exit_code = 1;
      expect = [ "FAIL"; "crash:1;heal:48" ];
    };
    {
      name = "analyze --seeded-wedge";
      setup = None;
      args = "analyze -p bfd --seeded wedge --prove";
      exit_code = 1;
      expect = [ "SA011"; "wedge" ];
    };
    (* --check gates against the history as loaded, so the private
       history first gets an untampered baseline measured on this
       machine: the seeded 3x tamper then reads +200% (FAIL) against
       it, and machine speed cancels out *)
    {
      name = "bench --seeded-regression";
      setup =
        Some
          "bench --filter winnow --history sage-bench-seeded.json --record \
           baseline --date 2026-01-01";
      args =
        "bench --filter winnow --history sage-bench-seeded.json --record \
         selftest --date 2026-01-01 --seeded regression";
      exit_code = 1;
      expect = [ "REGRESSED"; "winnow"; "FAIL" ];
    };
  ]

(* Every corpus, fuzzed clean (the --seeded fixtures above are the
   only way these verbs may exit nonzero on shipped corpora).  Small
   iteration counts: the exit-code contract is what's under test; the
   zero-violation soak lives in the CI gate (gate.sh). *)
let clean_corpora =
  List.map
    (fun (c : Sage.Pipeline.corpus) ->
      {
        name = Printf.sprintf "fuzz %s clean" c.name;
        setup = None;
        args =
          Printf.sprintf "fuzz -p %s --seed 42 --iters 120 --check-reqs" c.name;
        exit_code = 0;
        expect = [ "findings   : 0" ];
      })
    Sage.Pipeline.corpora
  @ [
      {
        name = "chaos icmp clean";
        setup = None;
        args = "chaos --seed 7 --corpus icmp";
        exit_code = 0;
        expect = [ "chaos campaign: seed 7"; "failed: 0" ];
      };
      {
        name = "chaos bfd clean --check-reqs";
        setup = None;
        args = "chaos --seed 7 --corpus bfd --check-reqs";
        exit_code = 0;
        expect = [ "failed: 0" ];
      };
      {
        name = "bench winnow clean check";
        setup = None;
        args =
          "bench --filter winnow --history sage-bench-clean.json --record \
           selftest --date 2026-01-01 --check";
        exit_code = 0;
        expect = [ "PASS"; "winnow" ];
      };
    ]

let check_row row () =
  Option.iter
    (fun setup ->
      let code, _, err = run_cli setup in
      if code <> 0 then
        Alcotest.failf "%s: setup %S exited %d\nstderr:\n%s" row.name setup
          code err)
    row.setup;
  let code, out, err = run_cli row.args in
  Alcotest.(check int)
    (Printf.sprintf "%s: exit %d" row.name row.exit_code)
    row.exit_code code;
  List.iter
    (fun needle ->
      if not (contains out needle) then
        Alcotest.failf "%s: stdout lacks %S\nstdout:\n%s\nstderr:\n%s"
          row.name needle out err)
    row.expect

(* the VERB and --seeded NAME a row's command line passes *)
let seeded_pair row =
  let rec name_of = function
    | "--seeded" :: name :: _ -> Some name
    | _ :: rest -> name_of rest
    | [] -> None
  in
  match String.split_on_char ' ' row.args with
  | verb :: rest -> Option.map (fun name -> (verb, name)) (name_of rest)
  | [] -> None

(* a fixture registered for a verb without a row here would ship
   untested *)
let test_every_fixture_has_a_row () =
  let covered = List.filter_map seeded_pair seeded_fixtures in
  List.iter
    (fun f ->
      List.iter
        (fun verb ->
          if not (List.mem (verb, Fixture.name f) covered) then
            Alcotest.failf "no matrix row runs %s --seeded %s" verb
              (Fixture.name f))
        (Fixture.verbs f))
    Fixture.all

let suite =
  List.map
    (fun row -> Alcotest.test_case row.name `Slow (check_row row))
    (seeded_fixtures @ clean_corpora)
  @ [
      Alcotest.test_case "every fixture/verb pair has a row" `Quick
        test_every_fixture_has_a_row;
    ]
