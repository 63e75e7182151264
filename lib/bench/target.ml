(* The benchmark target registry: every key `sage bench` measures,
   records and gates — pipeline stages, generated-code execution, and
   the fuzz, requirement and chaos loops — is an entry here, and [run]
   is the only timing loop.

   A target's timed thunk returns the number of work units it did: 1
   for a single stage call, the fuzz iterations or chaos ticks for the
   loop targets, so every key reads as ns per unit (per sentence parse,
   per fuzz iteration, per chaos tick, per proof run).  A rep makes
   [calls] calls; the key is the best of [reps] identical reps — every
   target is deterministic, so the reps do the same work and the
   minimum rejects scheduler noise.  Setup (pipeline runs, packet
   construction, topology building) happens in [prepare], outside the
   timed region, and time comes from the monotonic clock.  A thunk that
   sees its work go wrong (a fuzz finding, a failed campaign, an Error
   diagnostic) raises [Check_failed]: a broken run has no speed. *)

module P = Sage.Pipeline
module Lf = Sage_logic.Lf
module Ir = Sage_codegen.Ir
module Chunker = Sage_nlp.Chunker
module Parser = Sage_ccg.Parser
module Winnow = Sage_disambig.Winnow
module Addr = Sage_net.Addr
module Ipv4 = Sage_net.Ipv4
module Icmp = Sage_net.Icmp
module Net = Sage_sim.Network
module Ping = Sage_sim.Ping
module Svc = Sage_sim.Icmp_service
module Gs = Sage_sim.Generated_stack
module Backend = Sage_backend.Backend
module Engine = Sage_fuzz.Engine
module Campaign = Sage_chaos.Campaign

type t = {
  key : string;
  descr : string;
  backend : string; (* recorded in the history entry *)
  calls : int; (* thunk calls per rep *)
  reps : int;
  tolerance : float option; (* per-key regress tolerance override *)
  prepare : unit -> unit -> int;
      (* prepare () returns the timed thunk, which returns its work units *)
}

exception Check_failed of string

(* a thunk's success check; [run] prefixes the failing key *)
let require ok what = if not ok then raise (Check_failed what)

(* shared fixtures, forced once on first use *)

let spec = lazy (P.icmp_spec ())

let icmp_rewr =
  lazy
    (P.run (Lazy.force spec) ~title:"icmp"
       ~text:Sage_corpus.Icmp_rfc.rewritten_text)

let bfd_rewr =
  lazy
    (P.run (P.bfd_spec ()) ~title:"bfd"
       ~text:Sage_corpus.Bfd_rfc.rewritten_text)

(* the paper's running example: one sentence through chunk / parse /
   winnow / codegen *)
let sentence_e =
  "If code = 0, an identifier to aid in matching echos and replies, may \
   be zero."

let base_lfs =
  lazy
    (let spec = Lazy.force spec in
     (Parser.parse ~lexicon:spec.P.lexicon ~dict:spec.P.dictionary sentence_e)
       .Parser.lfs)

let echo_request =
  lazy
    (let a = Addr.of_string_exn in
     let payload =
       Icmp.encode
         (Icmp.Echo
            {
              Icmp.echo_code = 0;
              identifier = 7;
              sequence = 1;
              payload = Bytes.of_string "benchmark-payload";
            })
     in
     Ipv4.encode
       (Ipv4.make ~protocol:Ipv4.protocol_icmp ~src:(a "10.0.1.50")
          ~dst:(a "192.168.2.10") ~payload_len:(Bytes.length payload) ())
       ~payload)

(* every generated function with a recovered layout: the fuzz targets *)
let fuzz_targets (run : P.run) =
  List.filter_map
    (fun (f : Ir.func) ->
      Option.map
        (fun sd -> (f, sd))
        (List.assoc_opt f.Ir.fn_name run.P.codegen.P.struct_of_function))
    run.P.codegen.P.functions

(* long enough that load-time compilation is amortized away *)
let fuzz_iters = 20_000

(* the ICMP fuzz loop (seed 42) on one backend, per fuzz iteration *)
let fuzz_target ~key ~descr ~backend ~differential =
  {
    key;
    descr;
    backend =
      (if differential then "differential" else Backend.choice_name backend);
    calls = 1;
    reps = 5;
    tolerance = None;
    prepare =
      (fun () ->
        let run = Lazy.force icmp_rewr in
        let targets = fuzz_targets run in
        fun () ->
          let r =
            Engine.run ~backend ~differential ~seed:42 ~iters:fuzz_iters
              ~protocol:run.P.spec.P.protocol targets
          in
          require (r.Engine.findings = []) "fuzz findings";
          fuzz_iters);
  }

(* Sub-microsecond stages jitter well beyond the default 15% on shared
   CI machines; they gate at 50% instead, which still catches a real
   algorithmic regression while ignoring allocator/cache weather. *)
let noisy = Some 0.5

let all =
  [
    {
      key = "nlp";
      descr = "noun-phrase chunking of the running-example sentence";
      backend = "nlp";
      calls = 1000;
      reps = 5;
      tolerance = noisy;
      prepare =
        (fun () ->
          let spec = Lazy.force spec in
          fun () ->
            ignore (Chunker.chunk_sentence ~dict:spec.P.dictionary sentence_e);
            1);
    };
    {
      key = "ccg-parse";
      descr = "CCG chart parse of the running-example sentence";
      backend = "ccg";
      calls = 50;
      reps = 5;
      tolerance = None;
      prepare =
        (fun () ->
          let spec = Lazy.force spec in
          fun () ->
            ignore
              (Parser.parse ~lexicon:spec.P.lexicon ~dict:spec.P.dictionary
                 sentence_e);
            1);
    };
    {
      key = "winnow";
      descr = "winnowing the running-example parse's logical forms";
      backend = "disambig";
      calls = 500;
      reps = 5;
      tolerance = noisy;
      prepare =
        (fun () ->
          let lfs = Lazy.force base_lfs in
          fun () ->
            ignore (Winnow.winnow lfs);
            1);
    };
    {
      key = "codegen";
      descr = "IR generation for the Table-4 logical form";
      backend = "codegen";
      calls = 500;
      reps = 5;
      tolerance = noisy;
      prepare =
        (fun () ->
          let table4_lf = Lf.is_ (Lf.term "type") (Lf.num 3) in
          let ctx =
            Sage_codegen.Context.dynamic ~protocol:"ICMP"
              ~message:"Destination Unreachable Message" ()
          in
          fun () ->
            ignore (Sage_codegen.Generate.gen_sentence ctx table4_lf);
            1);
    };
    {
      key = "analysis-dataflow";
      descr = "dataflow checks (SA001-SA006 tier) over all ICMP functions";
      backend = "analysis";
      calls = 50;
      reps = 5;
      tolerance = None;
      prepare =
        (fun () ->
          let run = Lazy.force icmp_rewr in
          let funcs = run.P.codegen.P.functions in
          let struct_of_function = run.P.codegen.P.struct_of_function in
          fun () ->
            List.iter
              (fun (f : Ir.func) ->
                let ctx =
                  Sage_analysis.Dataflow.ctx
                    ?layout:(List.assoc_opt f.Ir.fn_name struct_of_function)
                    f
                in
                List.iter
                  (fun check -> ignore (check ctx))
                  [
                    Sage_analysis.Def_assign.check;
                    Sage_analysis.Dead_code.check;
                    Sage_analysis.Overflow.check;
                  ])
              funcs;
            1);
    };
    {
      key = "analysis-absint/iter";
      descr = "SA007-SA012 proof layer over all ICMP functions, per run";
      backend = "absint";
      calls = 200;
      reps = 3;
      tolerance = None;
      prepare =
        (fun () ->
          let run = Lazy.force icmp_rewr in
          let funcs = run.P.codegen.P.functions in
          let struct_of_function = run.P.codegen.P.struct_of_function in
          fun () ->
            let diags =
              Sage_analysis.Analyzer.analyze_program ~struct_of_function funcs
            in
            require
              (not (Sage_analysis.Diagnostic.has_errors diags))
              "Error diagnostics";
            1);
    };
    {
      key = "interp/iter";
      descr = "tree-walk interpreter: one generated echo reply";
      backend = "interp";
      calls = 300;
      reps = 5;
      (* observed ±30% swing under a loaded host; the floor still fails
         the 3x seeded fixture and any order-of-magnitude regression *)
      tolerance = noisy;
      prepare =
        (fun () ->
          let st = Gs.of_run (Lazy.force icmp_rewr) in
          let request = Lazy.force echo_request in
          fun () ->
            ignore
              (Gs.process_request st ~fn:"icmp_echo_reply_receiver" ~request);
            1);
    };
    {
      key = "reference-echo-reply";
      descr = "hand-written reference stack: one echo reply";
      backend = "reference";
      calls = 100_000;
      reps = 5;
      tolerance = noisy;
      prepare =
        (fun () ->
          let request = Lazy.force echo_request in
          fun () ->
            ignore (Svc.reference.Svc.echo_reply ~request);
            1);
    };
    {
      key = "icmp-encode";
      descr = "encoding one 56-byte ICMP echo";
      backend = "net";
      calls = 100_000;
      reps = 5;
      tolerance = noisy;
      prepare =
        (fun () () ->
          ignore
            (Icmp.encode
               (Icmp.Echo
                  {
                    Icmp.echo_code = 0;
                    identifier = 1;
                    sequence = 1;
                    payload = Bytes.make 56 'x';
                  }));
          1);
    };
    {
      key = "sim-pps";
      descr = "simulator packet rate: ping through the generated stack";
      backend = "sim";
      calls = 50;
      reps = 5;
      tolerance = noisy;
      prepare =
        (fun () ->
          let service = Svc.generated (Gs.of_run (Lazy.force icmp_rewr)) in
          let net = Net.default_topology ~service () in
          let dst = Net.server1_addr net in
          fun () ->
            ignore (Ping.ping ~count:1 ~net dst);
            1);
    };
    fuzz_target ~key:"fuzz/iter"
      ~descr:"ICMP fuzz loop on the interpreter, per iteration"
      ~backend:Backend.Interp ~differential:false;
    fuzz_target ~key:"fuzz-compiled/iter"
      ~descr:"ICMP fuzz loop on the compiled backend, per iteration"
      ~backend:Backend.Compiled ~differential:false;
    fuzz_target ~key:"interp-vs-compiled/iter"
      ~descr:"ICMP fuzz loop, compiled re-checked on the interpreter"
      ~backend:Backend.Compiled ~differential:true;
    {
      key = "reqs/iter";
      descr = "BFD fuzz loop enforcing the checkable requirements";
      backend = "reqs";
      calls = 1;
      reps = 3;
      tolerance = None;
      prepare =
        (fun () ->
          let run = Lazy.force bfd_rewr in
          let targets = fuzz_targets run in
          let reqs = List.filter Sage_reqs.Req.checkable run.P.requirements in
          let iters = 10_000 in
          fun () ->
            let r =
              Engine.run ~reqs ~seed:42 ~iters ~protocol:run.P.spec.P.protocol
                targets
            in
            require (r.Engine.findings = []) "fuzz findings";
            iters);
    };
    {
      key = "chaos/tick";
      descr = "chaos campaigns, seeds 1-20, built-in scenarios on ICMP";
      backend = "chaos";
      calls = 1;
      reps = 3;
      tolerance = None;
      prepare =
        (fun () ->
          let (_ : P.run) = Lazy.force icmp_rewr in
          let corpora =
            [ { Campaign.corpus = "icmp"; generated_run = icmp_rewr } ]
          in
          fun () ->
            let ticks = ref 0 in
            for seed = 1 to 20 do
              let campaign =
                Campaign.run ~seed ~scenarios:Sage_chaos.Scenario.builtins
                  ~corpora ()
              in
              require (Campaign.exit_code campaign = 0) "campaign failed";
              List.iter
                (fun (r : Campaign.case_result) ->
                  ticks :=
                    !ticks + Sage_chaos.Episode.duration r.Campaign.schedule)
                campaign.Campaign.results
            done;
            !ticks);
    };
  ]

let find key = List.find_opt (fun t -> t.key = key) all

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

let filter substr = List.filter (fun t -> contains t.key substr) all
let tolerance_of key = Option.bind (find key) (fun t -> t.tolerance)

(* best of [reps] reps in ns per work unit; the sample's [iters] is the
   work units of one rep *)
let run tgt : History.sample =
  let thunk = tgt.prepare () in
  let best = ref infinity and units = ref 0 in
  (try
     for _ = 1 to tgt.reps do
       let n = ref 0 in
       let t0 = Monotonic_clock.now () in
       for _ = 1 to tgt.calls do
         n := !n + thunk ()
       done;
       let dt = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) in
       best := Float.min !best (dt /. float_of_int !n);
       units := !n
     done
   with Check_failed what -> raise (Check_failed (tgt.key ^ ": " ^ what)));
  { History.ns = !best; iters = !units; backend = tgt.backend }

(* run every (or the filtered subset of) registered target(s), results
   sorted by key; bumps bench.* counters when given a metrics sink *)
let run_all ?metrics ?filter:(substr = "") () =
  let selected = filter substr in
  List.map
    (fun tgt ->
      let sample = run tgt in
      (match metrics with
       | Some m -> Sage_sched.Metrics.incr m "bench.targets"
       | None -> ());
      (tgt.key, sample))
    (List.sort (fun a b -> compare a.key b.key) selected)
