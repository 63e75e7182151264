(* Tests for the parallel execution layer (lib/sched) and the pipeline's
   determinism guarantee: the report and generated code must be
   byte-identical whatever the worker count, and whether or not the
   chart cache is warm. *)

module P = Sage.Pipeline
module Pool = Sage_sched.Pool
module Lru = Sage_sched.Lru
module Metrics = Sage_sched.Metrics
module C = Corpus_runs

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---- Pool ---- *)

let test_pool_order_preserved () =
  let items = Array.init 100 (fun i -> i) in
  let expected = Array.map (fun i -> i * i) items in
  List.iter
    (fun jobs ->
      check
        Alcotest.(list int)
        (Printf.sprintf "jobs=%d" jobs)
        (Array.to_list expected)
        (Array.to_list (Pool.map ~jobs (fun i -> i * i) items)))
    [ 1; 2; 4; 8 ]

let test_pool_uneven_costs () =
  (* jobs of very different cost still land at their own index *)
  let busy n =
    let acc = ref 0 in
    for i = 1 to n * 10_000 do
      acc := !acc + i
    done;
    !acc
  in
  let items = Array.init 16 (fun i -> if i mod 2 = 0 then 50 else 1) in
  let expected = Array.map busy items in
  check
    Alcotest.(list int)
    "uneven" (Array.to_list expected)
    (Array.to_list (Pool.map ~jobs:4 busy items))

exception Boom of int

let test_pool_exception_propagates () =
  List.iter
    (fun jobs ->
      match Pool.map ~jobs (fun i -> if i = 13 then raise (Boom i) else i)
              (Array.init 40 (fun i -> i))
      with
      | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
      | exception Boom 13 -> ())
    [ 1; 4 ]

let test_pool_map_list () =
  check
    Alcotest.(list string)
    "map_list" [ "a!"; "b!"; "c!" ]
    (Pool.map_list ~jobs:4 (fun s -> s ^ "!") [ "a"; "b"; "c" ]);
  check Alcotest.(list int) "empty" [] (Pool.map_list ~jobs:4 (fun i -> i) [])

(* ---- Lru ---- *)

let test_lru_eviction () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "c" 3;
  (* "a" was least recently used *)
  check Alcotest.(option int) "a evicted" None (Lru.find c "a");
  check Alcotest.(option int) "b kept" (Some 2) (Lru.find c "b");
  check Alcotest.(option int) "c kept" (Some 3) (Lru.find c "c");
  check Alcotest.int "one eviction" 1 (Lru.evictions c);
  check Alcotest.int "length" 2 (Lru.length c)

let test_lru_recency_refresh () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  ignore (Lru.find c "a");  (* refresh: now "b" is LRU *)
  Lru.add c "c" 3;
  check Alcotest.(option int) "a survived" (Some 1) (Lru.find c "a");
  check Alcotest.(option int) "b evicted" None (Lru.find c "b")

let test_lru_counters () =
  let c = Lru.create ~capacity:4 in
  check Alcotest.(option int) "miss" None (Lru.find c "x");
  Lru.add c "x" 7;
  check Alcotest.(option int) "hit" (Some 7) (Lru.find c "x");
  check Alcotest.int "hits" 1 (Lru.hits c);
  check Alcotest.int "misses" 1 (Lru.misses c)

let test_lru_find_or_add () =
  let c = Lru.create ~capacity:4 in
  let computations = ref 0 in
  let compute () = incr computations; 42 in
  check Alcotest.int "computed" 42 (Lru.find_or_add c "k" compute);
  check Alcotest.int "cached" 42 (Lru.find_or_add c "k" compute);
  check Alcotest.int "computed once" 1 !computations;
  Lru.clear c;
  check Alcotest.int "cleared" 0 (Lru.length c);
  check Alcotest.int "recomputed after clear" 42 (Lru.find_or_add c "k" compute);
  check Alcotest.int "two computations" 2 !computations

let test_lru_shared_across_pool_workers () =
  let c = Lru.create ~capacity:64 in
  let keys = Array.init 200 (fun i -> Printf.sprintf "k%d" (i mod 32)) in
  let results = Pool.map ~jobs:4 (fun k -> Lru.find_or_add c k (fun () -> k)) keys in
  Array.iteri (fun i v -> check Alcotest.string "value" keys.(i) v) results;
  check Alcotest.bool "no over-capacity" true (Lru.length c <= 64)

(* ---- Metrics ---- *)

let test_metrics_counters_and_merge () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.incr ~by:4 m "a";
  check Alcotest.int "a" 5 (Metrics.counter m "a");
  check Alcotest.int "absent" 0 (Metrics.counter m "nope");
  let v = Metrics.time m "stage" (fun () -> 11) in
  check Alcotest.int "time passes value" 11 v;
  check Alcotest.(list (pair string int)) "calls" [ ("stage", 1) ] (Metrics.stage_calls m);
  let dst = Metrics.create () in
  Metrics.incr ~by:2 dst "a";
  Metrics.merge_into dst m;
  check Alcotest.int "merged" 7 (Metrics.counter dst "a");
  check Alcotest.(list (pair string int)) "merged calls" [ ("stage", 1) ]
    (Metrics.stage_calls dst)

(* ---- Pipeline determinism ---- *)

let run_document ?jobs ?cache ?metrics c =
  P.run_document ?jobs ?cache ?metrics (Lazy.force c.C.spec) ~title:c.C.title
    ~text:c.C.text

let artifact run = Sage.Report.markdown run ^ "\x00" ^ run.P.codegen.P.c_code

let lf_strings run =
  List.map
    (fun r ->
      match r.P.status with
      | P.Parsed lf | P.Subject_supplied lf -> Sage_logic.Lf.to_string lf
      | P.Ambiguous lfs -> String.concat "|" (List.map Sage_logic.Lf.to_string lfs)
      | P.Zero_lf -> "<zero>"
      | P.Annotated_non_actionable -> "<annotated>"
      | P.Crashed msg -> "<crashed:" ^ msg ^ ">")
    run.P.sentences

let test_parallel_matches_sequential () =
  List.iter
    (fun c ->
      let name = c.C.name in
      let seq = C.run_of c in
      let par = run_document ~jobs:4 c in
      check Alcotest.string
        (Printf.sprintf "%s: report identical under --jobs 4" name)
        (artifact seq) (artifact par);
      check Alcotest.int
        (Printf.sprintf "%s: no crashed sentences" name)
        0
        (List.length (P.crashed_sentences par)))
    C.corpora

let test_cache_rerun_identical_with_hits () =
  let cache = Sage.Chart_cache.create ~capacity:4096 () in
  List.iter
    (fun c ->
      let name = c.C.name in
      let cold = run_document ~cache c in
      let warm_metrics = Metrics.create () in
      let warm = run_document ~cache ~metrics:warm_metrics c in
      check Alcotest.string
        (Printf.sprintf "%s: warm rerun byte-identical" name)
        (artifact cold) (artifact warm);
      check
        Alcotest.(list string)
        (Printf.sprintf "%s: identical LFs" name)
        (lf_strings cold) (lf_strings warm);
      (* the warm run must actually hit: every sentence was just parsed *)
      let hits = Metrics.counter warm_metrics "cache_hits" in
      check Alcotest.bool
        (Printf.sprintf "%s: nonzero cache hits on rerun (%d)" name hits)
        true (hits > 0);
      check Alcotest.int
        (Printf.sprintf "%s: no misses on rerun" name)
        0
        (Metrics.counter warm_metrics "cache_misses"))
    [ C.find "icmp"; C.find "bfd-rw" ]

let test_cache_shared_across_jobs () =
  (* a cache warmed sequentially, reused by a parallel run: still
     byte-identical, and the parallel run is all hits *)
  let igmp = C.find "igmp" in
  let cache = Sage.Chart_cache.create ~capacity:1024 () in
  let cold = run_document ~jobs:1 ~cache igmp in
  let warm_metrics = Metrics.create () in
  let warm = run_document ~jobs:4 ~cache ~metrics:warm_metrics igmp in
  check Alcotest.string "warm parallel identical" (artifact cold) (artifact warm);
  check Alcotest.bool "nonzero hits" true (Metrics.counter warm_metrics "cache_hits" > 0)

let test_jobs_zero_and_huge_are_safe () =
  (* degenerate worker counts must not change anything either *)
  let igmp = C.find "igmp" in
  let seq = C.run_of igmp in
  let huge = run_document ~jobs:64 igmp in
  check Alcotest.string "jobs=64 identical" (artifact seq) (artifact huge)

let suite =
  [
    tc "pool: order preserved across worker counts" test_pool_order_preserved;
    tc "pool: uneven job costs" test_pool_uneven_costs;
    tc "pool: exceptions propagate" test_pool_exception_propagates;
    tc "pool: map_list" test_pool_map_list;
    tc "lru: eviction at capacity" test_lru_eviction;
    tc "lru: find refreshes recency" test_lru_recency_refresh;
    tc "lru: hit/miss counters" test_lru_counters;
    tc "lru: find_or_add computes once" test_lru_find_or_add;
    tc "lru: shared across pool workers" test_lru_shared_across_pool_workers;
    tc "metrics: counters, time, merge, json" test_metrics_counters_and_merge;
    tc "determinism: --jobs 4 = sequential, all corpora"
      test_parallel_matches_sequential;
    tc "determinism: cache-warm rerun identical, nonzero hits"
      test_cache_rerun_identical_with_hits;
    tc "determinism: warm cache + parallel run" test_cache_shared_across_jobs;
    tc "determinism: degenerate job counts" test_jobs_zero_and_huge_are_safe;
  ]
