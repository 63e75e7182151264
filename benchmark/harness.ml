(* Runs one workload in this process and computes its metrics.

   Load model: one process, one domain, a closed loop with one client.
   A run is untraced for the end-to-end metrics, or under the span
   recorder for the per-layer ones.  The metric names here are the ones
   BENCHMARK.json lists (the smoke test checks it). *)

type budget =
  | Seconds of float  (** measure for this long *)
  | Ops of int
      (** a smoke-sized run: one round of this many measured ops after
          at most this many warm-up ops *)

let workloads =
  [ Corpus_wl.cold; Corpus_wl.warm; Ping_wl.small; Ping_wl.large; Fuzz_wl.verify ]

let layers =
  [
    "core.pipeline"; "core.report"; "rfc.document"; "core.sentence"; "nlp.chunk";
    "ccg.parse"; "disambig.winnow"; "codegen.generate"; "codegen.render";
    "analysis.program"; "reqs.mine"; "sim.ping"; "sim.generated_stack";
    "net.encode"; "net.decode"; "net.checksum"; "fuzz.engine"; "backend.load";
    "fuzz.gen"; "backend.exec_compiled"; "backend.exec_interp"; "fuzz.oracle";
  ]

let ratios =
  [ "ccg.cache_hit_ratio"; "disambig.survivor_ratio"; "codegen.fail_ratio";
    "sim.reply_ok_ratio"; "fuzz.accept_ratio" ]

let rounds = 5
let parts_per_round = 4

(* a block closes at this many ops, so that its p99 has ten samples
   beyond it *)
let block_ops = 1000

(* replayed layers may not overshoot the real op by more than this
   share of op time *)
let max_unattributed = 0.15

type metric = { name : string; value : float; unit : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  measured : int;  (** ops in the measured phases *)
  setups : float list;  (** each round's set-up seconds, round 1 first *)
  metrics : metric list;
  fidelity : string list;  (** failed replay checks (traced runs) *)
  unattributed : float;
      (** traced runs: op time no layer accounts for, as a share of op
          time; negative when replays overshoot the real op *)
  chrome : string option;  (** the traced run's Chrome trace *)
}

let seconds ns = float_of_int ns /. 1e9

let alloc_words (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

(* A run is [rounds] rounds.  Each sets the workload up from scratch and
   runs its warm-up ops, then measures the new state for its share of
   the budget in [parts_per_round] equal parts.  A part is one block,
   or, when its ops are fast, consecutive blocks of [block_ops] ops;
   the ops left after a part's last full block belong to no block.
   Latency and throughput are the fastest block's: a shared host that
   slows this process down, as a VM's neighbours do by 1.5-2x for
   milliseconds to minutes at a time, slows some blocks and not others,
   and the fastest block is the one the program ran undisturbed.  Short
   blocks fit between short slow periods, which a whole part rarely
   escapes.

   A round's set-up time is its set-up plus warm-up ops, and [setup_s]
   is the median over the rounds.  Round 1 alone also pays the
   process's one-time first-use costs (code paging, heap growth, lazy
   initialisation), which the median leaves out; [setups] keeps every
   round's time, so they show as round 1's excess.  Set-ups in fresh
   processes would include them, but on a shared host their median
   moved twice as much as op latency between two run-sets of the same
   code, more than [setup_s]'s bound. *)
let run ~budget ~root ~seed ~trace (spec : Workload.spec) =
  let n_rounds, per_round, limit, round_ns =
    match budget with
    | Seconds s -> (rounds, parts_per_round, max_int, int_of_float (s *. 1e9) / rounds)
    | Ops n -> (1, 1, n, max_int)
  in
  (* the open block, and the fastest closed blocks' p50, p90, p99 (us)
     and ops per second of op time *)
  let hist = Stats.Hist.create () and count = ref 0 and busy = ref 0 in
  let percentiles = [| 50.; 90.; 99. |] in
  let best = Array.make (Array.length percentiles) infinity and best_rate = ref 0. in
  let close_block ~keep =
    if keep && !count > 0 then begin
      Array.iteri
        (fun j p -> best.(j) <- Float.min best.(j) (Stats.Hist.percentile hist p /. 1e3))
        percentiles;
      best_rate := Float.max !best_rate (float_of_int !count /. seconds !busy)
    end;
    Stats.Hist.clear hist;
    count := 0;
    busy := 0
  in
  let tr = if trace then Some (Span.create ()) else None in
  let attempted = ref 0 and failed = ref 0 and measured = ref 0 and i = ref 0 in
  let words = ref 0. and fidelity = ref [] and counts = Hashtbl.create 8 in
  let note n = if not (List.mem n !fidelity) then fidelity := n :: !fidelity in
  let verdict ok =
    incr attempted;
    if not ok then incr failed
  in
  let run_op (w : Workload.t) tr =
    (match tr with
     | None -> verdict (try w.Workload.op None !i with _ -> false)
     | Some t -> (
       Span.begin_op t spec.Workload.name;
       match w.Workload.op tr !i with
       | ok -> (
         verdict ok;
         Span.end_root t;
         match w.Workload.replay t with
         | notes ->
           List.iter note notes;
           Span.end_op t
         | exception e ->
           note ("replay raised " ^ Printexc.to_string e);
           Span.drop_op t)
       | exception _ ->
         verdict false;
         Span.drop_op t));
    incr i
  in
  let round _ =
    Gc.full_major ();
    let t0 = Span.now_ns () in
    let w = spec.Workload.setup ~root ~seed in
    for _ = 1 to min w.Workload.warmup limit do
      w.Workload.before !i;
      run_op w None
    done;
    let start = Span.now_ns () in
    let g0 = Gc.quick_stat () in
    let ops = ref 0 and part = ref 0 and had_full = ref false in
    let end_part () = close_block ~keep:((not !had_full) || !count = block_ops) in
    while !ops < limit && (round_ns = max_int || Span.now_ns () < start + round_ns) do
      w.Workload.before !i;
      let a = Span.now_ns () in
      run_op w tr;
      let b = Span.now_ns () in
      let p = if per_round = 1 then 0 else min (per_round - 1) ((a - start) * per_round / round_ns) in
      if p <> !part then begin
        end_part ();
        part := p;
        had_full := false
      end
      else if !count = block_ops then begin
        close_block ~keep:true;
        had_full := true
      end;
      Stats.Hist.add hist (b - a);
      busy := !busy + (b - a);
      incr count;
      incr ops
    done;
    end_part ();
    words := !words +. alloc_words (Gc.quick_stat ()) -. alloc_words g0;
    measured := !measured + !ops;
    List.iter
      (fun (name, (num, den)) ->
        let n, d = Option.value ~default:(0, 0) (Hashtbl.find_opt counts name) in
        Hashtbl.replace counts name (n + num, d + den))
      (w.Workload.counts ());
    seconds (start - t0)
  in
  let setups = List.init n_rounds round in
  let setup_s = Stats.median setups in
  let metric name value unit = { name; value; unit } in
  match tr with
  | None ->
    let metrics =
      [
        metric "setup_s" setup_s "s";
        metric "latency_p50_us" best.(0) "us";
        metric "latency_p90_us" best.(1) "us";
        metric "latency_p99_us" best.(2) "us";
        metric "throughput_ops_s" !best_rate "1/s";
        metric "alloc_kwords_per_op" (!words /. float_of_int !measured /. 1e3) "kwords";
        metric "peak_heap_mb"
          (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6)
          "MB";
      ]
    in
    { correct = !failed = 0; attempted = !attempted; failed = !failed; measured = !measured;
      setups; metrics; fidelity = []; unattributed = 0.; chrome = None }
  | Some t ->
    let ops = Span.ops t in
    let per_op x = if ops = 0 then 0. else float_of_int x /. float_of_int ops in
    let op_ns = Span.op_durations_ns t in
    let total_ns = Array.fold_left ( + ) 0 op_ns in
    let unattributed = Span.unattributed_ns t in
    if ops = 0 then note "no traced op completed";
    let share = if total_ns = 0 then 0. else float_of_int unattributed /. float_of_int total_ns in
    List.iter
      (fun n ->
        if not (List.mem n layers || List.exists (fun (s : Workload.spec) -> s.Workload.name = n) workloads)
        then note ("span of unknown layer " ^ n))
      (Span.names t);
    let metrics =
      List.concat_map
        (fun l ->
          let s = Span.layer t l in
          [
            metric (l ^ ".us_per_op") (per_op s.Span.self_ns /. 1e3) "us";
            metric (l ^ ".calls_per_op") (per_op s.Span.calls) "count";
            metric (l ^ ".kwords_per_op") (per_op s.Span.self_words /. 1e3) "kwords";
          ])
        layers
      @ List.map
          (fun r ->
            let num, den = Option.value ~default:(0, 0) (Hashtbl.find_opt counts r) in
            metric r (if den = 0 then 0. else float_of_int num /. float_of_int den) "ratio")
          ratios
      @ List.map
          (fun (s : Workload.spec) ->
            metric
              (s.Workload.name ^ ".unattributed_us_per_op")
              (if s.Workload.name = spec.Workload.name then per_op unattributed /. 1e3 else 0.)
              "us")
          workloads
      @ [
          metric "trace.op_p50_us"
            (if ops = 0 then 0.
             else Stats.median (List.map float_of_int (Array.to_list op_ns)) /. 1e3)
            "us";
        ]
    in
    { correct = !failed = 0 && !fidelity = [] && Float.abs share <= max_unattributed;
      attempted = !attempted; failed = !failed; measured = !measured; setups; metrics;
      fidelity = List.rev !fidelity; unattributed = share; chrome = Some (Span.to_chrome t) }

let json_line r =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    r.correct r.attempted r.failed;
  List.iteri
    (fun k m ->
      if k > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit)
    r.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let print ~workload ~seed r =
  Printf.printf "workload %s, seed %d: %d ops measured, %d of %d ops failed\n" workload seed
    r.measured r.failed r.attempted;
  Printf.printf "set-up per round: %s s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") r.setups));
  List.iter (fun m -> Printf.printf "  %-40s %14.4f %s\n" m.name m.value m.unit) r.metrics;
  (match r.chrome with
   | None -> ()
   | Some _ ->
     List.iter (fun n -> Printf.printf "fidelity: FAILED: %s\n" n) r.fidelity;
     Printf.printf "unattributed: %.1f%% of op time (limit %.0f%%)%s\n"
       (100. *. r.unattributed) (100. *. max_unattributed)
       (if Float.abs r.unattributed <= max_unattributed then "" else " FAILED"));
  print_endline (json_line r)
