(* fuzz-verify: one op is one verdict on the rewritten BFD corpus, what
   `sage fuzz -p bfd --rewritten --backend compiled --check-proofs
   --check-reqs` computes: the static analyzer's proved functions, then
   a differential fuzz run on the compiled backend with the interpreter
   as reference arm.  Backend and differential flags are pinned, so a
   change of the production default backend does not move this
   workload.  The output oracle is the known verdict: no finding, no
   proof violation, and all twelve checkable requirements enforced. *)

module P = Sage.Pipeline
module Analyzer = Sage_analysis.Analyzer
module Backend = Sage_backend.Backend
module Coverage = Sage_interp.Coverage
module Ir = Sage_codegen.Ir
module F = Sage_fuzz

let iters = 2000
let checkable_reqs = 12

(* The engine's per-function corpus bound.  [Engine] does not export it.
   It does not bind on bfd-rw, where an op keeps about 13 inputs over
   three functions; if a change of it, or of the engine's draw order,
   makes the replay generate other inputs than the engine ran, the
   executed and kept counts the replay checks against the engine's
   differ. *)
let corpus_cap = 32

let instance ~seed =
  let run =
    P.run_document (P.bfd_spec ()) ~title:Sage_corpus.Bfd_rfc.title
      ~text:Sage_corpus.Bfd_rfc.rewritten_text
  in
  let protocol = run.P.spec.P.protocol in
  let funcs = run.P.codegen.P.functions in
  let struct_of_function = run.P.codegen.P.struct_of_function in
  let targets =
    Array.of_list
      (List.filter_map
         (fun (f : Ir.func) ->
           Option.map (fun sd -> (f, sd)) (List.assoc_opt f.Ir.fn_name struct_of_function))
         funcs)
  in
  let reqs = run.P.requirements in
  let fuzz_seed i = (seed * 100_003) + i in
  (* the last traced op: its fuzz seed, [fuzz.engine] span, and the
     engine's own executed and kept-input counts *)
  let last = ref (0, -1, 0, 0) and iterations = ref 0 and executions = ref 0 in
  let op tr i =
    let parent = match tr with Some t -> Span.root t | None -> -1 in
    let _, proved =
      Workload.span tr ~parent "analysis.program" (fun () ->
          Analyzer.proved_functions
            (Analyzer.analyze_program ~struct_of_function funcs)
            funcs)
    in
    let eid, r =
      Workload.span tr ~parent "fuzz.engine" (fun () ->
          F.Engine.run ~backend:Backend.Compiled ~differential:true ~proved ~reqs
            ~seed:(fuzz_seed i) ~iters ~protocol (Array.to_list targets))
    in
    if Option.is_some tr then begin
      last := (fuzz_seed i, eid, r.F.Engine.executions, r.F.Engine.corpus);
      iterations := !iterations + r.F.Engine.iters;
      executions := !executions + r.F.Engine.executions
    end;
    r.F.Engine.findings = [] && r.F.Engine.proof_violations = []
    && r.F.Engine.reqs_checked = checkable_reqs
  in
  let n = Array.length targets in
  let slot_reqs =
    Array.map
      (fun ((f : Ir.func), _) ->
        List.filter
          (fun r -> Sage_reqs.Req.checkable r && List.mem f.Ir.fn_name r.Sage_reqs.Req.fns)
          reqs)
      targets
  in
  (* The engine's draw sequence: per iteration an environment, then a
     fresh packet or (3 in 4, once the slot has a corpus) a mutation of
     a kept one.  [keep slot i packet env] says whether iteration [i]'s
     packet joined its slot's corpus. *)
  let generate seed ~keep =
    let rng = F.Rng.of_seed seed in
    let corpus = Array.make n [] and len = Array.make n 0 in
    Array.init iters (fun i ->
        let slot = i mod n in
        let layout = snd targets.(slot) in
        let env = F.Driver.env_of rng in
        let packet =
          match corpus.(slot) with
          | [] -> F.Gen.packet rng layout
          | kept ->
            let b = F.Rng.bits32 rng in
            if b land 3 > 0 then
              F.Gen.mutate rng layout (List.nth kept ((b lsr 2) mod len.(slot)))
            else F.Gen.packet rng layout
        in
        if keep slot i packet env then
          if len.(slot) >= corpus_cap then
            corpus.(slot) <- packet :: List.filteri (fun j _ -> j < corpus_cap - 1) corpus.(slot)
          else begin
            corpus.(slot) <- packet :: corpus.(slot);
            len.(slot) <- len.(slot) + 1
          end;
        (slot, env, packet))
  in
  let replay t =
    let seed, engine, engine_executions, engine_kept = !last in
    let timed ~parent ~calls name f =
      let id = Span.enter t ~parent name in
      let r = f () in
      Span.leave ~calls t id;
      r
    in
    let compiled, interp =
      timed ~parent:engine ~calls:(2 * n) "backend.load" (fun () ->
          let load choice = Array.map (fun (f, layout) -> Backend.load choice ~layout f) targets in
          (load Backend.Compiled, load Backend.Interp))
    in
    (* untimed: which inputs the engine kept for new coverage, and
       whether both backends agree on every input *)
    let coverage = Coverage.create () and kept = Array.make iters false in
    let disagree = ref None in
    let differ i msg =
      if Option.is_none !disagree then
        disagree := Some (Printf.sprintf "fuzz: iteration %d: %s" i msg)
    in
    ignore
      (generate seed ~keep:(fun slot i packet env ->
           let before = Coverage.covered coverage in
           let c = F.Driver.exec ~coverage ~env compiled.(slot) packet in
           (match c, F.Driver.exec ~env interp.(slot) packet with
            | Ok a, Ok b -> Option.iter (differ i) (Backend.diff a b)
            | Error _, Error _ -> ()
            | _ -> differ i "only one backend rejected the packet");
           match c with
           | Ok _ when Coverage.covered coverage > before -> kept.(i) <- true; true
           | Ok _ | Error _ -> false));
    let inputs =
      timed ~parent:engine ~calls:iters "fuzz.gen" (fun () ->
          generate seed ~keep:(fun _ i _ _ -> kept.(i)))
    in
    (* The oracle runs on fresh outcomes of both backends, as in the
       engine, which only runs the reference arm on accepted packets.
       The two executions are then timed alone on the same inputs, as
       the oracle span's children, so its self time is the checking. *)
    let accepted = Array.make iters false and checked = ref 0 in
    let oracle = Span.enter t ~parent:engine "fuzz.oracle" in
    let cov = Coverage.create () in
    Array.iteri
      (fun i (slot, env, packet) ->
        match F.Driver.exec ~coverage:cov ~env compiled.(slot) packet with
        | Error _ -> ()
        | Ok outcome ->
          accepted.(i) <- true;
          incr checked;
          let other = F.Driver.exec ~env interp.(slot) packet in
          let reqs = slot_reqs.(slot) in
          let req_env =
            if reqs = [] then None else Some (F.Driver.backend_env ~env compiled.(slot) packet)
          in
          ignore (F.Oracle.check ~protocol ~packet ~other ~reqs ?req_env outcome))
      inputs;
    Span.leave ~calls:!checked t oracle;
    let cov = Coverage.create () in
    timed ~parent:oracle ~calls:iters "backend.exec_compiled" (fun () ->
        Array.iter
          (fun (slot, env, packet) ->
            ignore (Sys.opaque_identity (F.Driver.exec ~coverage:cov ~env compiled.(slot) packet)))
          inputs);
    timed ~parent:oracle ~calls:!checked "backend.exec_interp" (fun () ->
        Array.iteri
          (fun i (slot, env, packet) ->
            if accepted.(i) then
              ignore (Sys.opaque_identity (F.Driver.exec ~env interp.(slot) packet)))
          inputs);
    (* the replayed inputs are the engine's only if the replay accepts
       and keeps as many as the engine did *)
    let kept_n = Array.fold_left (fun k b -> if b then k + 1 else k) 0 kept in
    let count what replayed engine =
      if replayed = engine then None
      else Some (Printf.sprintf "fuzz: %d inputs %s in the replay, %d in the engine" replayed what engine)
    in
    List.filter_map Fun.id
      [ !disagree; count "executed" !checked engine_executions;
        count "kept for new coverage" kept_n engine_kept ]
  in
  let counts () = [ ("fuzz.accept_ratio", (!executions, !iterations)) ] in
  { Workload.warmup = 2; before = ignore; op; replay; counts }

let verify =
  { Workload.name = "fuzz-verify"; setup = (fun ~root:_ ~seed -> instance ~seed) }
