module P = Sage.Pipeline
module Trace = Sage_trace.Trace
module Faults = Sage_sim.Faults

(* A campaign runs every (corpus x stack x scenario) case as one
   deterministic workload under its schedule, evaluates the recovery
   oracles over the final heal window, and — on the first failure —
   shrinks the failing schedule to a minimal one that still trips the
   same oracle (reusing the fuzzer's greedy minimizer). *)

type corpus_case = { corpus : P.corpus; generated_run : P.run Lazy.t }

(* an original text whose protocol has a rewritten text runs the
   rewritten text's generated stack; each backing run is made once, on
   first use *)
let cases ~run corpora =
  let backing (c : P.corpus) =
    match
      List.find_opt
        (fun (rw : P.corpus) -> rw.P.rewritten && rw.P.proto = c.P.proto)
        P.corpora
    with
    | Some rw -> rw
    | None -> c
  in
  let runs = Hashtbl.create 8 in
  let run_of (c : P.corpus) =
    match Hashtbl.find_opt runs c.P.name with
    | Some r -> r
    | None ->
      let r = run c in
      Hashtbl.replace runs c.P.name r;
      r
  in
  List.map
    (fun c -> { corpus = c; generated_run = lazy (run_of (backing c)) })
    corpora

type case_result = {
  corpus : string;
  stack : Workload.stack;
  scenario : string;
  schedule : Episode.schedule;
  violations : Oracle.violation list;
}

type shrunk = {
  case : string;
  kind : Oracle.kind;
  detail : string;
  schedule : Episode.schedule;
  steps : int;
}

type t = {
  seed : int;
  soak : int;
  results : case_result list;
  shrunk : shrunk option;
}

let case_label_of ~corpus ~stack ~scenario =
  Printf.sprintf "%s/%s/%s" corpus (Workload.stack_name stack) scenario

let case_label r =
  case_label_of ~corpus:r.corpus ~stack:r.stack ~scenario:r.scenario

(* Per-case seed: a deterministic hash of the campaign seed and the case
   name, so every case gets an independent but reproducible stream. *)
let case_seed ~seed label =
  let h = ref (seed land 0x3fffffff) in
  String.iter
    (fun c -> h := ((!h * 131) + Char.code c) land 0x3fffffff)
    label;
  !h

let partition_plan = [ { Faults.probability = 1.0; fault = Faults.Drop } ]

(* Static/dynamic FSM cross-validation: when a generated stack wedges
   dynamically and exposes its FSM state variable, that state must be
   one the SA011 model can enter — a wedge in a state the static
   analyzer does not even know about means the recovered model is
   unsound, which is its own campaign failure. *)
let static_fsm_check ~(run : P.run Lazy.t) (w : Workload.t) violations =
  if
    not
      (List.exists
         (fun v -> v.Oracle.kind = Oracle.No_silent_wedge)
         violations)
  then []
  else
    match w.Workload.fsm_state () with
    | None -> []
    | Some (var, value) ->
      let funcs = (Lazy.force run).P.codegen.P.functions in
      let models = Sage_analysis.Fsm.models funcs in
      (match
         List.find_opt (fun m -> m.Sage_analysis.Fsm.var = var) models
       with
       | None ->
         [ Oracle.v No_silent_wedge
             "static cross-check: wedged with %s=%Ld but SA011 recovers no \
              FSM model for %s"
             var value var ]
       | Some m ->
         if List.exists (Int64.equal value) m.Sage_analysis.Fsm.states then
           []
         else
           [ Oracle.v No_silent_wedge
               "static cross-check: wedged with %s=%Ld, a state outside the \
                SA011 model (%s)"
               var value
               (String.concat ", "
                  (List.map Int64.to_string m.Sage_analysis.Fsm.states)) ])

(* Interpret one schedule against one workload.  Episode transitions
   swap fault plans and kill/restart the node; a crashed node is
   restarted when its crash episode ends.  [healed] marks the ticks of
   the final heal window, where the oracles observe. *)
let run_schedule ?trace ~workload:(w : Workload.t) schedule =
  let total = Episode.duration schedule in
  let heal_ticks = Episode.heal_ticks schedule in
  let final_start = total - heal_ticks in
  let tick = ref 0 in
  let emit ep phase =
    Trace.instant ~cat:"chaos"
      ~args:
        [ ("episode", Trace.Str (Episode.episode_to_string ep));
          ("phase", Trace.Str phase); ("tick", Trace.Int !tick) ]
      trace "chaos-episode"
  in
  List.iter
    (fun ep ->
      emit ep "enter";
      (match ep with
       | Episode.Partition _ -> w.Workload.set_plan partition_plan
       | Episode.Storm { plan; _ } -> w.Workload.set_plan plan
       | Episode.Crash_restart _ ->
         w.Workload.set_plan [];
         w.Workload.crash ()
       | Episode.Heal _ -> w.Workload.set_plan []);
      for _ = 1 to Episode.ticks ep do
        incr tick;
        w.Workload.step ~healed:(!tick > final_start)
      done;
      match ep with
      | Episode.Crash_restart _ ->
        w.Workload.restart ();
        emit ep "restart"
      | _ -> ())
    schedule;
  w.Workload.check ~heal_ticks

let run ?trace ?(soak = 0) ?(arm = Fun.id)
    ?(check_reqs = false) ~seed ~scenarios ~corpora () =
  let stacks = [ Workload.Reference; Workload.Generated ] in
  let results = ref [] in
  let shrunk = ref None in
  List.iter
    (fun (c : corpus_case) ->
      (* the checkable requirements mined from the run backing this
         corpus's generated stack; every generated-function execution in
         a case is then a runtime requirement assertion *)
      let creqs =
        if not check_reqs then []
        else
          List.filter Sage_reqs.Req.checkable
            (Lazy.force c.generated_run).P.requirements
      in
      List.iter
        (fun stack ->
          List.iter
            (fun (scenario, schedule) ->
              let schedule = Episode.extend_heal schedule ~by:soak in
              let label =
                case_label_of ~corpus:c.corpus.P.name ~stack ~scenario
              in
              let cseed = case_seed ~seed label in
              (* [make] returns the workload plus a reader of the
                 requirement violations its executions accumulated,
                 deduplicated per RQ id (a violated requirement fires
                 once per case, however many packets trip it) *)
              let make ?trace () =
                let req_hits = ref [] in
                let observer =
                  if creqs = [] then None
                  else
                    Some
                      (fun ~fn ~env o ->
                        let reqs =
                          List.filter
                            (fun r -> List.mem fn r.Sage_reqs.Req.fns)
                            creqs
                        in
                        match Sage_reqs.Req.first_violation ~env ~o reqs with
                        | Some (r, detail) ->
                          if
                            not (List.mem_assoc r.Sage_reqs.Req.id !req_hits)
                          then
                            req_hits :=
                              (r.Sage_reqs.Req.id, detail) :: !req_hits
                        | None -> ())
                in
                let w =
                  match
                    Workload.for_corpus ~corpus:c.corpus ~stack
                      ~run:c.generated_run ?trace ?observer ~seed:cseed ()
                  with
                  | Ok w -> w
                  | Error e -> invalid_arg e
                in
                ( arm w,
                  fun () ->
                    List.rev_map
                      (fun (id, detail) ->
                        { Oracle.kind = Oracle.Requirement id; detail })
                      !req_hits )
              in
              Trace.instant ~cat:"chaos"
                ~args:[ ("case", Trace.Str label) ]
                trace "chaos-case";
              let workload, req_violations = make ?trace () in
              let violations =
                run_schedule ?trace ~workload schedule @ req_violations ()
              in
              let statics =
                static_fsm_check ~run:c.generated_run workload violations
              in
              let violations = violations @ statics in
              (if violations <> [] && !shrunk = None then begin
                 (* minimize the first failing schedule: the shrink
                    re-runs are untraced so they don't pollute the
                    campaign's event stream *)
                 let kind = (List.hd violations).Oracle.kind in
                 let still_failing s =
                   let w2, rv2 = make () in
                   let vs = run_schedule ~workload:w2 s @ rv2 () in
                   match
                     List.find_opt (fun v -> v.Oracle.kind = kind) vs
                   with
                   | Some v -> Some v.Oracle.detail
                   | None -> None
                 in
                 let min_sched, detail, steps =
                   Sage_fuzz.Shrink.minimize
                     ~candidates:Episode.shrink_candidates ~still_failing
                     schedule
                 in
                 shrunk :=
                   Some
                     {
                       case = label;
                       kind;
                       detail =
                         Option.value detail
                           ~default:(List.hd violations).Oracle.detail;
                       schedule = min_sched;
                       steps;
                     }
               end);
              results :=
                { corpus = c.corpus.P.name; stack; scenario; schedule;
                  violations }
                :: !results)
            scenarios)
        stacks)
    corpora;
  { seed; soak; results = List.rev !results; shrunk = !shrunk }

let failed t = List.exists (fun r -> r.violations <> []) t.results
let exit_code t = if failed t then 1 else 0

let summary t =
  let b = Buffer.create 1024 in
  Printf.bprintf b "chaos campaign: seed %d%s\n" t.seed
    (if t.soak > 0 then Printf.sprintf ", soak +%d ticks" t.soak else "");
  let width =
    List.fold_left (fun w r -> max w (String.length (case_label r))) 0 t.results
  in
  List.iter
    (fun r ->
      Printf.bprintf b "  %-*s  %4d ticks  %d episodes  %s\n" width
        (case_label r)
        (Episode.duration r.schedule)
        (List.length r.schedule)
        (match r.violations with
         | [] -> "ok"
         | vs ->
           Printf.sprintf "FAIL (%s)"
             (String.concat "; "
                (List.map (fun v -> Oracle.kind_name v.Oracle.kind) vs))))
    t.results;
  let cases = List.length t.results in
  let failures =
    List.length (List.filter (fun r -> r.violations <> []) t.results)
  in
  Printf.bprintf b "cases: %d  failed: %d\n" cases failures;
  (match t.shrunk with
   | None -> ()
   | Some s ->
     Printf.bprintf b "first failure: %s\n" s.case;
     Printf.bprintf b "  oracle : %s\n" (Oracle.kind_name s.kind);
     Printf.bprintf b "  detail : %s\n" s.detail;
     Printf.bprintf b "  shrunk schedule (%d steps): %s\n" s.steps
       (Episode.to_string s.schedule));
  Buffer.contents b
