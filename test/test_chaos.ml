(* Chaos campaigns: episode grammar, recovery oracles over every corpus
   and both stacks, determinism, the seeded no-recovery fixture, and the
   byte-exact campaign golden snapshot. *)

module C = Corpus_runs
module P = Sage.Pipeline
module E = Sage_chaos.Episode
module O = Sage_chaos.Oracle
module W = Sage_chaos.Workload
module Sc = Sage_chaos.Scenario
module Cam = Sage_chaos.Campaign
module Faults = Sage_sim.Faults
module Fixture = Sage_fixture.Fixture

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let cases = Cam.cases ~run:C.run_of
let icmp_cases = cases [ P.find_corpus "icmp" ]
let all_cases = cases P.corpora

(* ---- episode grammar ---- *)

let test_schedule_round_trip () =
  List.iter
    (fun (name, sched) ->
      match E.of_string (E.to_string sched) with
      | Ok back ->
        check Alcotest.string (name ^ " round-trips") (E.to_string sched)
          (E.to_string back)
      | Error e -> Alcotest.failf "%s failed to re-parse: %s" name e)
    (Sc.builtins
    @ [ ( "mixed",
          [ E.Partition 8;
            E.Storm
              { plan =
                  [ { Faults.probability = 0.25; fault = Faults.Delay 3 };
                    { Faults.probability = 0.5; fault = Faults.Drop } ];
                ticks = 20 };
            E.Crash_restart 5; E.Heal 60 ] ) ])

let test_schedule_parse_errors () =
  let expect_error what s =
    match E.of_string s with
    | Ok _ -> Alcotest.failf "%s: %S should not parse" what s
    | Error _ -> ()
  in
  expect_error "missing heal" "partition:10";
  expect_error "empty" "";
  expect_error "zero ticks" "partition:0;heal:10";
  expect_error "negative ticks" "crash:-3;heal:10";
  expect_error "unknown kind" "meteor:4;heal:10";
  expect_error "bad storm plan" "storm(warp@0.5):4;heal:10";
  expect_error "storm missing paren" "storm(drop@0.5:4;heal:10";
  expect_error "missing duration" "heal"

let test_validate_requires_final_heal () =
  (match E.validate [ E.Partition 5 ] with
   | Error e ->
     check Alcotest.bool "mentions heal" true
       (Astring_contains.contains e "heal")
   | Ok _ -> Alcotest.fail "partition-only schedule validated");
  match E.validate [ E.Crash_restart 3; E.Heal 10 ] with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_shrink_preserves_final_heal () =
  let sched = [ E.Partition 8; E.Crash_restart 6; E.Heal 40 ] in
  let candidates = E.shrink_candidates sched in
  check Alcotest.bool "has candidates" true (candidates <> []);
  List.iter
    (fun s ->
      (match E.validate s with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "candidate %s invalid: %s" (E.to_string s) e);
      check Alcotest.int "heal window untouched" 40 (E.heal_ticks s);
      check Alcotest.bool "strictly smaller" true
        (E.duration s < E.duration sched))
    candidates

(* ---- qcheck: schedule print/parse round-trip ---- *)

module Q = Qcheck_lite

let storm_plan_arb =
  let rule r =
    (* k/100 probabilities so %g printing round-trips exactly *)
    let probability = float_of_int (Q.gen_range r 0 100) /. 100. in
    let fault =
      match Q.int_below r 6 with
      | 0 -> Faults.Drop
      | 1 -> Faults.Duplicate
      | 2 -> Faults.Reorder
      | 3 -> Faults.Delay (Q.gen_range r 1 20)
      | 4 ->
        Faults.Corrupt
          { offset = Q.gen_range r 0 63; mask = Q.gen_range r 1 255 }
      | _ -> Faults.Truncate (Q.gen_range r 0 64)
    in
    { Faults.probability; fault }
  in
  fun r -> List.init (Q.gen_range r 1 3) (fun _ -> rule r)

let schedule_arb =
  let episode r =
    match Q.int_below r 4 with
    | 0 -> E.Partition (Q.gen_range r 1 50)
    | 1 -> E.Crash_restart (Q.gen_range r 1 50)
    | 2 -> E.Heal (Q.gen_range r 1 50)
    | _ -> E.Storm { plan = storm_plan_arb r; ticks = Q.gen_range r 1 50 }
  in
  let gen r =
    let body = List.init (Q.int_below r 5) (fun _ -> episode r) in
    body @ [ E.Heal (Q.gen_range r 1 60) ]
  in
  Q.make ~print:E.to_string gen

let schedule_roundtrip_prop sched =
  E.of_string (E.to_string sched) = Ok sched

(* ---- the full campaign: every corpus, both stacks, every scenario ---- *)

let test_all_corpora_recover () =
  let t =
    Cam.run ~seed:7 ~scenarios:Sc.builtins ~corpora:all_cases ()
  in
  check Alcotest.int "8 corpora x 2 stacks x 4 scenarios" 64
    (List.length t.Cam.results);
  List.iter
    (fun (r : Cam.case_result) ->
      match r.Cam.violations with
      | [] -> ()
      | v :: _ ->
        Alcotest.failf "%s violated %s: %s" (Cam.case_label r)
          (O.kind_name v.O.kind) v.O.detail)
    t.Cam.results;
  check Alcotest.int "exit 0" 0 (Cam.exit_code t);
  check Alcotest.bool "nothing shrunk" true (t.Cam.shrunk = None)

let test_campaign_deterministic () =
  let go () =
    Cam.summary (Cam.run ~seed:7 ~scenarios:Sc.builtins ~corpora:icmp_cases ())
  in
  check Alcotest.string "same seed, same bytes" (go ()) (go ())

let test_soak_stretches_heal () =
  let t =
    Cam.run ~seed:7 ~soak:30
      ~scenarios:[ ("partition", Option.get (Sc.find "partition")) ]
      ~corpora:icmp_cases ()
  in
  check Alcotest.int "exit 0" 0 (Cam.exit_code t);
  List.iter
    (fun (r : Cam.case_result) ->
      check Alcotest.int "heal stretched" 70 (E.heal_ticks r.Cam.schedule))
    t.Cam.results

(* ---- the seeded no-recovery fixture ---- *)

let test_seeded_wedge_fails_and_shrinks () =
  let t =
    Cam.run ~seed:7 ~arm:(Fixture.arm Fixture.Wedge) ~scenarios:Sc.builtins
      ~corpora:icmp_cases ()
  in
  check Alcotest.int "exit 1" 1 (Cam.exit_code t);
  (* crash-free scenarios never engage the wedge *)
  List.iter
    (fun (r : Cam.case_result) ->
      let has_crash =
        List.exists
          (function E.Crash_restart _ -> true | _ -> false)
          r.Cam.schedule
      in
      check Alcotest.bool (Cam.case_label r) has_crash (r.Cam.violations <> []))
    t.Cam.results;
  match t.Cam.shrunk with
  | None -> Alcotest.fail "no shrunk schedule"
  | Some s ->
    check Alcotest.string "first failing case" "icmp/reference/outage"
      s.Cam.case;
    (* outage = crash:8;heal:48 shrinks to the minimal crash *)
    check Alcotest.string "minimal schedule" "crash:1;heal:48"
      (E.to_string s.Cam.schedule);
    check Alcotest.bool "took shrink steps" true (s.Cam.steps > 0)

(* ---- a campaign's events reach the --stats profile ---- *)

let test_events_reach_profile () =
  let module T = Sage_trace.Trace in
  let trace = T.create ~clock:T.Logical () in
  let t =
    Cam.run ~trace ~seed:7
      ~scenarios:[ ("flaky", Option.get (Sc.find "flaky")) ]
      ~corpora:icmp_cases ()
  in
  check Alcotest.int "exit 0" 0 (Cam.exit_code t);
  let instants name =
    match C.profile_row trace name with Some r -> r.T.instants | None -> 0
  in
  check Alcotest.int "one chaos-case instant per case"
    (List.length t.Cam.results) (instants "chaos-case");
  (* every episode is entered once; a crash episode also restarts *)
  let episode_events (r : Cam.case_result) =
    List.fold_left
      (fun n ep ->
        n + match ep with E.Crash_restart _ -> 2 | _ -> 1)
      0 r.Cam.schedule
  in
  check Alcotest.int "chaos-episode instants"
    (List.fold_left (fun n r -> n + episode_events r) 0 t.Cam.results)
    (instants "chaos-episode")

(* ---- generated stacks run the production executor ---- *)

let test_generated_workloads_run_compiled () =
  List.iter
    (fun (case : Cam.corpus_case) ->
      let name = case.Cam.corpus.P.name in
      let seen = ref [] in
      let observer ~fn:_ ~env:_ (o : Sage_backend.Backend.outcome) =
        seen := o.Sage_backend.Backend.backend :: !seen
      in
      match
        W.for_corpus ~corpus:case.Cam.corpus ~stack:W.Generated
          ~run:case.Cam.generated_run ~observer ~seed:1 ()
      with
      | Error e -> Alcotest.fail e
      | Ok w ->
        for _ = 1 to 10 do
          w.W.step ~healed:true
        done;
        check Alcotest.bool (name ^ ": ran generated code") true (!seen <> []);
        check Alcotest.bool (name ^ ": only compiled") true
          (List.for_all (( = ) Sage_backend.Backend.Compiled) !seen))
    all_cases

(* ---- byte-exact campaign snapshot ---- *)

let test_campaign_snapshot () =
  let t = Cam.run ~seed:7 ~scenarios:Sc.builtins ~corpora:icmp_cases () in
  Test_golden_snapshots.compare_snapshot "chaos.campaign.txt" (Cam.summary t)

let suite =
  [
    tc "schedule grammar round-trips" test_schedule_round_trip;
    tc "schedule parse errors" test_schedule_parse_errors;
    Q.test "schedule print/parse round-trip property" schedule_arb
      schedule_roundtrip_prop;
    tc "validation requires a final heal" test_validate_requires_final_heal;
    tc "shrinking preserves the final heal" test_shrink_preserves_final_heal;
    tc "all corpora x stacks x scenarios recover" test_all_corpora_recover;
    tc "campaign is deterministic" test_campaign_deterministic;
    tc "soak stretches the heal window" test_soak_stretches_heal;
    tc "seeded wedge fails with one shrunk schedule"
      test_seeded_wedge_fails_and_shrinks;
    tc "chaos events reach the stats profile" test_events_reach_profile;
    tc "generated workloads run compiled code"
      test_generated_workloads_run_compiled;
    tc "campaign summary golden snapshot" test_campaign_snapshot;
  ]
