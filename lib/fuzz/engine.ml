(* The coverage-guided differential fuzz loop.

   Round-robin over the protocol's generated functions; each iteration
   draws an environment and a candidate packet (fresh from the layout
   grammar, or a mutation of a kept corpus entry), executes it on the
   selected backend with statement-coverage instrumentation, and runs
   the oracle suite.  Inputs that light up new coverage join the
   per-function corpus; the first violation per function is shrunk
   greedily and recorded as a finding.

   When differential execution is on (the default whenever the primary
   backend is the compiled one), the same (packet, environment) also
   runs on the alternate backend — without coverage, tracing or any RNG
   draw, so the primary stream is untouched — and the backend-agreement
   oracle compares the two outcomes.  Every fuzz iteration is then an
   interp-vs-compiled differential test for free.

   The engine is strictly sequential and draws every random value from
   one splitmix64 stream, so a (seed, iters, protocol, backend) tuple
   produces byte-identical results on every run, platform and --jobs
   setting. *)

module Ir = Sage_codegen.Ir
module Coverage = Sage_interp.Coverage
module Trace = Sage_trace.Trace
module Backend = Sage_backend.Backend

type finding = {
  fn : string;
  kind : Oracle.kind;
  packet : bytes;  (** the triggering input as generated/mutated *)
  shrunk : bytes;  (** greedily minimized, same oracle still violated *)
  detail : string;  (** violation detail on the shrunk input *)
  shrink_steps : int;
}

type result = {
  protocol : string;
  seed : int;
  iters : int;
  executions : int;  (** packets that reached the backend *)
  rejected : int;  (** structural rejects (shorter than fixed header) *)
  corpus : int;  (** inputs kept for new coverage *)
  findings : finding list;  (** oldest first, at most one per function *)
  coverage : Coverage.t;
  funcs : Ir.func list;
  proved : string list;  (** SA007-proved functions cross-validated *)
  proof_violations : finding list;
      (** never-raise findings on proved functions *)
  reqs_checked : int;  (** checkable mined requirements enforced *)
}

let corpus_cap = 32

(* Re-run [packet] and report its violation, if any.  Shrink runs use
   no coverage sink: coverage counts fuzz iterations only. *)
let violation_of ~protocol ~env ?alt ?(reqs = []) prog packet =
  match Driver.exec ~env prog packet with
  | Error _ -> None
  | Ok outcome ->
    let other = Option.map (fun ap -> Driver.exec ~env ap packet) alt in
    let req_env =
      if reqs = [] then None else Some (Driver.backend_env ~env prog packet)
    in
    Oracle.check ~protocol ~packet ?other ~reqs ?req_env outcome

(* Greedy descent: take the first simpler candidate that still violates
   the same oracle; stop when none does (or the budget runs out).  Kind
   equality pins requirement findings to their RQ id, so the shrunk
   witness violates the *same* requirement as the original. *)
let shrink ~protocol ~env ?alt ?reqs prog ~kind packet =
  Shrink.minimize ~candidates:Gen.shrink_candidates
    ~still_failing:(fun c ->
      match violation_of ~protocol ~env ?alt ?reqs prog c with
      | Some v when v.Oracle.kind = kind -> Some v.Oracle.detail
      | _ -> None)
    packet

let run ?trace ?(backend = Backend.Interp) ?differential
    ?(load = Backend.load) ?(proved = []) ?(reqs = []) ~seed ~iters ~protocol targets =
  let differential =
    match differential with
    | Some d -> d
    | None -> backend = Backend.Compiled
  in
  let rng = Rng.of_seed seed in
  let coverage = Coverage.create () in
  let findings = ref [] in
  let executions = ref 0 and rejected = ref 0 and interesting = ref 0 in
  let ntargets = Array.of_list targets in
  if Array.length ntargets = 0 then invalid_arg "Sage_fuzz.Engine.run: no targets";
  (* load every target once up front: field resolution and closure
     compilation are per-function costs, not per-iteration ones *)
  let progs =
    Array.map
      (fun (f, layout) -> load backend ~layout f)
      ntargets
  in
  (* requirements pre-filtered per round-robin slot: only checkable
     rules anchored to this function run, and the hot loop never scans
     the full requirement list *)
  let slot_reqs =
    Array.map
      (fun ((f : Ir.func), _) ->
        List.filter
          (fun r ->
            Sage_reqs.Req.checkable r
            && List.mem f.Ir.fn_name r.Sage_reqs.Req.fns)
          reqs)
      ntargets
  in
  (* per-function corpora, indexed by round-robin slot: the hot loop
     never hashes a function name.  Lengths are tracked alongside so
     corpus selection never walks a list to count it. *)
  let corpus = Array.make (Array.length ntargets) [] in
  let corpus_len = Array.make (Array.length ntargets) 0 in
  let alts =
    if differential then
      Some
        (Array.map
           (fun (f, layout) ->
             load (Backend.other backend) ~layout f)
           ntargets)
    else None
  in
  (* one closure for the whole run, not one per iteration: the loop
     body allocates nothing of its own beyond the candidate packet *)
  let iteration slot =
    let prog = progs.(slot) in
    let fn = prog.Backend.func.Ir.fn_name in
    let env = Driver.env_of rng in
    let kept = corpus.(slot) in
    let packet =
      match kept with
      | [] -> Gen.packet rng prog.Backend.layout
      | _ :: _ ->
        (* one advance covers both the mutate-vs-fresh choice (3/4
           mutate, as before) and the corpus index *)
        let b = Rng.bits32 rng in
        if b land 3 > 0 then
          Gen.mutate rng prog.Backend.layout
            (List.nth kept ((b lsr 2) mod corpus_len.(slot)))
        else Gen.packet rng prog.Backend.layout
    in
    let before = Coverage.covered coverage in
    match Driver.exec ~coverage ?trace ~env prog packet with
    | Error _ -> incr rejected
    | Ok outcome ->
      incr executions;
      let after = Coverage.covered coverage in
      if after > before then begin
        incr interesting;
        (if corpus_len.(slot) >= corpus_cap then
           corpus.(slot) <-
             packet :: List.filteri (fun j _ -> j < corpus_cap - 1) kept
         else begin
           corpus.(slot) <- packet :: kept;
           corpus_len.(slot) <- corpus_len.(slot) + 1
         end);
        Trace.instant ~cat:"fuzz"
          ~args:[ ("fn", Trace.Str fn); ("covered", Trace.Int after) ]
          trace "coverage-hit"
      end;
      if not (List.exists (fun fd -> fd.fn = fn) !findings) then begin
        (* the differential arm: same packet and environment on the
           alternate backend, no coverage/trace, no RNG draw *)
        let other =
          Option.map
            (fun aps -> Driver.exec ~env aps.(slot) packet)
            alts
        in
        let reqs = slot_reqs.(slot) in
        let req_env =
          if reqs = [] then None
          else Some (Driver.backend_env ~env prog packet)
        in
        match Oracle.check ~protocol ~packet ?other ~reqs ?req_env outcome with
        | None -> ()
        | Some v ->
          let alt = Option.map (fun aps -> aps.(slot)) alts in
          let shrunk, shrunk_detail, shrink_steps =
            shrink ~protocol ~env ?alt ~reqs prog ~kind:v.Oracle.kind packet
          in
          let detail =
            match shrunk_detail with
            | Some d -> d
            | None -> v.Oracle.detail
          in
          Trace.instant ~cat:"fuzz"
            ~args:
              [ ("fn", Trace.Str fn);
                ("oracle", Trace.Str (Oracle.kind_name v.Oracle.kind));
              ]
            trace "finding";
          findings :=
            { fn; kind = v.Oracle.kind; packet; shrunk; detail;
              shrink_steps }
            :: !findings
      end
  in
  (match trace with
   | None ->
     for i = 0 to iters - 1 do
       iteration (i mod Array.length ntargets)
     done
   | Some _ ->
     for i = 0 to iters - 1 do
       let slot = i mod Array.length ntargets in
       let fn = progs.(slot).Backend.func.Ir.fn_name in
       Trace.with_span ~cat:"fuzz"
         ~args:[ ("fn", Trace.Str fn); ("iter", Trace.Int i) ]
         trace "fuzz-iteration"
         (fun () -> iteration slot)
     done);
  let funcs = List.map fst targets in
  let covered, _ = Coverage.totals coverage funcs in
  Trace.counter ~cat:"fuzz" trace "fuzz.coverage.covered" covered;
  let findings = List.rev !findings in
  (* static/dynamic cross-validation: a never-raise finding on an
     SA007-proved function means the static proof was unsound — promote
     it so callers can fail the run even in modes that tolerate
     ordinary findings *)
  let proof_violations =
    List.filter
      (fun fd -> fd.kind = Oracle.Never_raise && List.mem fd.fn proved)
      findings
  in
  {
    protocol;
    seed;
    iters;
    executions = !executions;
    rejected = !rejected;
    corpus = !interesting;
    findings;
    coverage;
    funcs;
    proved;
    proof_violations;
    reqs_checked =
      (let seen = Hashtbl.create 16 in
       Array.iter
         (List.iter (fun r -> Hashtbl.replace seen r.Sage_reqs.Req.id ()))
         slot_reqs;
       Hashtbl.length seen);
  }

let summary r =
  let buf = Buffer.create 1024 in
  let covered, points = Coverage.totals r.coverage r.funcs in
  let pct =
    if points = 0 then 100.0
    else 100.0 *. float_of_int covered /. float_of_int points
  in
  Buffer.add_string buf (Printf.sprintf "protocol   : %s\n" r.protocol);
  Buffer.add_string buf (Printf.sprintf "seed       : %d\n" r.seed);
  Buffer.add_string buf (Printf.sprintf "iterations : %d\n" r.iters);
  Buffer.add_string buf (Printf.sprintf "executions : %d\n" r.executions);
  Buffer.add_string buf (Printf.sprintf "rejected   : %d\n" r.rejected);
  Buffer.add_string buf (Printf.sprintf "corpus     : %d\n" r.corpus);
  Buffer.add_string buf
    (Printf.sprintf "coverage   : %d/%d statements (%.1f%%)\n" covered points
       pct);
  List.iter
    (fun (s : Coverage.fn_stats) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-44s %d/%d\n" s.Coverage.fn s.Coverage.fn_covered
           s.Coverage.fn_points))
    (Coverage.stats r.coverage r.funcs);
  if r.reqs_checked > 0 then
    Buffer.add_string buf
      (Printf.sprintf "reqs       : %d checkable requirement(s) enforced\n"
         r.reqs_checked);
  if r.proved <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "proved     : %d function(s) SA007-proved\n"
         (List.length r.proved));
    Buffer.add_string buf
      (match r.proof_violations with
       | [] -> "proof-check: ok (no bounds finding on a proved function)\n"
       | vs ->
         Printf.sprintf
           "proof-check: VIOLATED (%d never-raise finding(s) on proved \
            functions)\n"
           (List.length vs))
  end;
  Buffer.add_string buf
    (Printf.sprintf "findings   : %d\n" (List.length r.findings));
  List.iter
    (fun fd ->
      Buffer.add_string buf
        (Printf.sprintf "  [%s] %s: %s\n" (Oracle.kind_name fd.kind) fd.fn
           fd.detail);
      Buffer.add_string buf
        (Printf.sprintf "    shrunk packet (%d bytes, %d steps): %s\n"
           (Bytes.length fd.shrunk) fd.shrink_steps
           (Sage_net.Bytes_util.hex fd.shrunk)))
    r.findings;
  Buffer.contents buf
