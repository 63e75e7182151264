(* Tests of the benchmark itself: the span recorder's self-time rule and
   trace format, the quartiles the run-set comparison uses, the output
   oracle, and a smoke run of every workload at two ops that must print
   exactly the metrics BENCHMARK.json lists. *)

open Sage_benchmark

(* A plain runner rather than alcotest: the CI test-count watermark reads
   the last "N tests run" line of `dune runtest`, which must stay the
   repository suite's. *)
let fail fmt = Printf.ksprintf failwith fmt

let check_int what expected got =
  if expected <> got then fail "%s: expected %d, got %d" what expected got

let check what cond = if not cond then fail "%s" what

(* the repository root, seen from the test's build directory *)
let root = "../.."

let bench = Json.parse (In_channel.with_open_bin (Filename.concat root "BENCHMARK.json") In_channel.input_all)

let names key = List.map (fun m -> Json.to_string (Json.get "name" m)) (Json.to_list (Json.get key bench))

(* a recorder on a clock the test sets by hand *)
let recorder ?keep () =
  let now = ref 0 in
  (now, Span.create ?keep ~clock:(fun () -> !now) ())

let self t name = (Span.layer t name).Span.self_ns

let test_nested () =
  let now, t = recorder () in
  Span.begin_op t "op";
  let a = Span.enter t ~parent:(Span.root t) "a" in
  now := 10;
  let b = Span.enter t ~parent:a "b" in
  now := 40;
  Span.leave t b;
  now := 50;
  Span.leave t a;
  now := 60;
  Span.end_root t;
  Span.end_op t;
  check_int "child self" 30 (self t "b");
  check_int "parent self = duration - child" 20 (self t "a");
  check_int "unattributed = root self" 10 (Span.unattributed_ns t);
  check "op duration" (Span.op_durations_ns t = [| 60 |])

let test_siblings () =
  let now, t = recorder () in
  Span.begin_op t "op";
  let p = Span.enter t ~parent:(Span.root t) "p" in
  let child s e =
    now := s;
    let c = Span.enter t ~parent:p "c" in
    now := e;
    Span.leave t c
  in
  (* two overlapping children: the union covers 10..60 *)
  child 10 40;
  child 30 60;
  now := 100;
  Span.leave t p;
  (* a replayed child, recorded after its parent closed *)
  child 200 215;
  Span.end_root t;
  Span.end_op t;
  check_int "parent self = duration - union of children" 35 (self t "p");
  check_int "children self" 75 (self t "c");
  check_int "calls" 3 (Span.layer t "c").Span.calls;
  check_int "unattributed" (215 - 35 - 75) (Span.unattributed_ns t)

let test_overshoot () =
  let now, t = recorder () in
  Span.begin_op t "op";
  let p = Span.enter t ~parent:(Span.root t) "p" in
  now := 10;
  Span.leave t p;
  Span.end_root t;
  (* a replay of p's work that takes twice as long as p did *)
  let c = Span.enter t ~parent:p "c" in
  now := 30;
  Span.leave t c;
  Span.end_op t;
  check_int "self clamps at zero" 0 (self t "p");
  check_int "the overshoot is negative unattributed time" (-10)
    (Span.unattributed_ns t)

let test_chrome () =
  let now, t = recorder ~keep:3 () in
  for _ = 0 to 1 do
    Span.begin_op t "op";
    let a = Span.enter t ~parent:(Span.root t) "a" in
    now := !now + 5;
    Span.leave ~calls:4 t a;
    Span.end_root t;
    Span.end_op t
  done;
  check_int "both ops aggregated" 8 (Span.layer t "a").Span.calls;
  let events = Json.to_list (Json.get "traceEvents" (Json.parse (Span.to_chrome t))) in
  check_int "only the first op's spans fit in the buffer" 2 (List.length events);
  List.iter
    (fun e ->
      check "complete event" (Json.to_string (Json.get "ph" e) = "X");
      List.iter (fun k -> ignore (Json.to_float (Json.get k e))) [ "ts"; "dur"; "pid"; "tid" ];
      let args = Json.get "args" e in
      List.iter (fun k -> ignore (Json.to_float (Json.get k args))) [ "id"; "parent"; "op"; "calls" ])
    events;
  check "event names" (List.map (fun e -> Json.to_string (Json.get "name" e)) events = [ "op"; "a" ])

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  check "python quartiles" ([ q1; q2; q3 ] = [ 2.75; 5.5; 8.25 ])

let test_histogram () =
  let h = Stats.Hist.create () in
  for ns = 1000 to 1999 do
    Stats.Hist.add h ns
  done;
  List.iter
    (fun (p, exact) ->
      let v = Stats.Hist.percentile h p in
      if Float.abs (v -. exact) > 0.01 *. exact then
        fail "p%g = %g, exact %g" p v exact)
    [ (0., 1000.); (50., 1499.5); (90., 1899.1); (100., 1999.) ]

let test_tampered () =
  let spec =
    {
      Corpus_wl.cold with
      Workload.setup =
        (fun ~root ~seed ->
          Corpus_wl.docs ~root
          |> List.map (fun (d : Corpus_wl.doc) ->
                 if d.Corpus_wl.name = "icmp" then { d with Corpus_wl.report = d.Corpus_wl.report ^ "x" }
                 else d)
          |> Corpus_wl.instance ~cached:false ~seed);
    }
  in
  let r = Harness.run ~budget:(Harness.Ops 1) ~root ~seed:1 ~trace:false spec in
  check "not correct" (not r.Harness.correct);
  check_int "every op failed" r.Harness.attempted r.Harness.failed

let busy ns =
  let t = Span.now_ns () in
  while Span.now_ns () < t + ns do
    ()
  done

(* a workload whose set-ups take [setup_ms] in turn, whose housekeeping
   takes [before_ms] before every op, and whose op [i] takes [op_ns i] *)
let synthetic ?(setup_ms = [ 0 ]) ?(before_ms = 0) ?(op_ns = fun _ -> 0) () =
  let calls = ref 0 in
  {
    Workload.name = "synthetic";
    setup =
      (fun ~root:_ ~seed:_ ->
        busy (List.nth setup_ms (!calls mod List.length setup_ms) * 1_000_000);
        incr calls;
        { Workload.warmup = 1; before = (fun _ -> busy (before_ms * 1_000_000));
          op = (fun _ i -> busy (op_ns i); true); replay = (fun _ -> []);
          counts = (fun () -> []) });
  }

let value r name = (List.find (fun (m : Harness.metric) -> m.Harness.name = name) r.Harness.metrics).Harness.value

let test_housekeeping_untimed () =
  let r = Harness.run ~budget:(Harness.Ops 3) ~root ~seed:1 ~trace:false (synthetic ~before_ms:5 ()) in
  check "housekeeping is outside op latency" (value r "latency_p99_us" < 1000.);
  check "housekeeping is outside throughput" (value r "throughput_ops_s" > 1000.)

let test_setup_median () =
  let spec = synthetic ~setup_ms:[ 30; 10; 50; 20; 40 ] () in
  let r = Harness.run ~budget:(Harness.Seconds 0.05) ~root ~seed:1 ~trace:false spec in
  check_int "one set-up per round" Harness.rounds (List.length r.Harness.setups);
  check "round 1 first" (List.hd r.Harness.setups >= 0.030);
  let s = value r "setup_s" in
  check (Printf.sprintf "setup_s %g is the rounds' median" s) (s >= 0.030 && s < 0.040)

(* ops slowed 50 us in alternate stretches of 3000, as a shared host
   slows a process for milliseconds at a time: a 75 ms quarter-round
   holds some 1500 slow ops, so only blocks shorter than a stretch
   find a fast one *)
let test_short_blocks () =
  let spec = synthetic ~op_ns:(fun i -> if i / 3000 mod 2 = 0 then 50_000 else 0) () in
  let r = Harness.run ~budget:(Harness.Seconds 1.5) ~root ~seed:1 ~trace:false spec in
  let p90 = value r "latency_p90_us" in
  check (Printf.sprintf "latency_p90_us %g is a fast stretch's" p90) (p90 < 25.)

let test_workload_names () =
  check "BENCHMARK.json workloads"
    (List.map (fun (s : Workload.spec) -> s.Workload.name) Harness.workloads = names "workloads")

let test_smoke (spec : Workload.spec) () =
  List.iter
    (fun (trace, key) ->
      let r = Harness.run ~budget:(Harness.Ops 2) ~root ~seed:1 ~trace spec in
      check_int "no op failed" 0 r.Harness.failed;
      check ("replay fidelity: " ^ String.concat "; " r.Harness.fidelity) (r.Harness.fidelity = []);
      let printed =
        match Json.get "metrics" (Json.parse (Harness.json_line r)) with
        | Json.Obj kvs -> kvs
        | _ -> fail "metrics is not an object"
      in
      check_int (key ^ ": no other metric") (List.length (names key)) (List.length printed);
      List.iter
        (fun n ->
          match List.filter (fun (k, _) -> k = n) printed with
          | [ (_, m) ] ->
            check (n ^ " is finite") (Float.is_finite (Json.to_float (Json.get "value" m)));
            check (n ^ " has a unit") (Json.to_string (Json.get "unit" m) <> "")
          | l -> fail "%s printed %d times" n (List.length l))
        (names key))
    [ (false, "end_to_end"); (true, "per_layer") ]

let () =
  let cases =
    [
      ("span: nested spans", test_nested);
      ("span: sibling and replayed spans", test_siblings);
      ("span: replay overshoot", test_overshoot);
      ("span: chrome trace shape", test_chrome);
      ("stats: quartiles", test_quartiles);
      ("stats: histogram percentiles", test_histogram);
      ("oracle: tampered expected report fails the op", test_tampered);
      ("harness: housekeeping is not timed", test_housekeeping_untimed);
      ("harness: setup_s is the median round's", test_setup_median);
      ("harness: blocks shorter than a slow stretch", test_short_blocks);
      ("smoke: workload names", test_workload_names);
    ]
    @ List.map
        (fun (s : Workload.spec) -> ("smoke: " ^ s.Workload.name, test_smoke s))
        Harness.workloads
  in
  let failed =
    List.filter
      (fun (name, f) ->
        match f () with
        | () -> false
        | exception e ->
          Printf.printf "FAIL %s: %s\n" name (Printexc.to_string e);
          true)
      cases
  in
  Printf.printf "benchmark checks: %d passed, %d failed\n"
    (List.length cases - List.length failed) (List.length failed);
  if failed <> [] then exit 1
