(* Tests for the parallel execution layer (lib/sched) and the pipeline's
   determinism guarantee: the report and generated code must be
   byte-identical whatever the worker count, and whether or not the
   chart cache is warm. *)

module P = Sage.Pipeline
module Pool = Sage_sched.Pool
module Lru = Sage_sched.Lru
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

(* ---- Chart cache under workers ---- *)

let test_cache_counts_agree_with_trace () =
  (* the --stats profile counts cache lookups from trace instants: with
     workers racing on one shared cache, every lookup must still emit
     exactly one instant and every miss exactly one parse span *)
  let igmp = P.find_corpus "igmp" in
  let cache = Sage.Chart_cache.create () in
  let trace = Sage_trace.Trace.create () in
  for _ = 1 to 2 do
    ignore
      (P.run_corpus ~jobs:4 ~cache ~trace igmp)
  done;
  let row name =
    List.find_opt
      (fun r -> r.Sage_trace.Trace.row_name = name)
      (Sage_trace.Trace.profile trace)
  in
  let instants name =
    match row name with Some r -> r.Sage_trace.Trace.instants | None -> 0
  in
  let hits = Sage.Chart_cache.hits cache
  and misses = Sage.Chart_cache.misses cache in
  check Alcotest.bool "warm pass hits" true (hits > 0);
  check Alcotest.bool "cold pass misses" true (misses > 0);
  check Alcotest.int "cache-hit instants" hits (instants "cache-hit");
  check Alcotest.int "cache-miss instants" misses (instants "cache-miss");
  check Alcotest.int "one parse per miss" misses
    (match row "ccg-parse" with Some r -> r.Sage_trace.Trace.calls | None -> 0)

(* ---- Pipeline determinism ---- *)

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
      let name = c.P.name in
      let seq = C.run_of c in
      let par = P.run_corpus ~jobs:4 c in
      check Alcotest.string
        (Printf.sprintf "%s: report identical under --jobs 4" name)
        (artifact seq) (artifact par);
      check Alcotest.int
        (Printf.sprintf "%s: no crashed sentences" name)
        0
        (List.length (P.crashed_sentences par)))
    P.corpora

let test_cache_rerun_identical_with_hits () =
  let cache = Sage.Chart_cache.create () in
  List.iter
    (fun c ->
      let name = c.P.name in
      let cold = P.run_corpus ~cache c in
      let hits0 = Sage.Chart_cache.hits cache
      and misses0 = Sage.Chart_cache.misses cache in
      let warm = P.run_corpus ~cache c in
      check Alcotest.string
        (Printf.sprintf "%s: warm rerun byte-identical" name)
        (artifact cold) (artifact warm);
      check
        Alcotest.(list string)
        (Printf.sprintf "%s: identical LFs" name)
        (lf_strings cold) (lf_strings warm);
      (* the warm run must actually hit: every sentence was just parsed *)
      let hits = Sage.Chart_cache.hits cache - hits0 in
      check Alcotest.bool
        (Printf.sprintf "%s: nonzero cache hits on rerun (%d)" name hits)
        true (hits > 0);
      check Alcotest.int
        (Printf.sprintf "%s: no misses on rerun" name)
        0
        (Sage.Chart_cache.misses cache - misses0))
    [ P.find_corpus "icmp"; P.find_corpus "bfd-rw" ]

let test_cache_shared_across_jobs () =
  (* a cache warmed sequentially, reused by a parallel run: still
     byte-identical, and the parallel run is all hits *)
  let igmp = P.find_corpus "igmp" in
  let cache = Sage.Chart_cache.create () in
  let cold = P.run_corpus ~jobs:1 ~cache igmp in
  let hits0 = Sage.Chart_cache.hits cache in
  let warm = P.run_corpus ~jobs:4 ~cache igmp in
  check Alcotest.string "warm parallel identical" (artifact cold) (artifact warm);
  check Alcotest.bool "nonzero hits" true (Sage.Chart_cache.hits cache > hits0)

let test_jobs_zero_and_huge_are_safe () =
  (* degenerate worker counts must not change anything either *)
  let igmp = P.find_corpus "igmp" in
  let seq = C.run_of igmp in
  let huge = P.run_corpus ~jobs:64 igmp in
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
    tc "chart cache: trace counts agree under workers"
      test_cache_counts_agree_with_trace;
    tc "determinism: --jobs 4 = sequential, all corpora"
      test_parallel_matches_sequential;
    tc "determinism: cache-warm rerun identical, nonzero hits"
      test_cache_rerun_identical_with_hits;
    tc "determinism: warm cache + parallel run" test_cache_shared_across_jobs;
    tc "determinism: degenerate job counts" test_jobs_zero_and_huge_are_safe;
  ]
