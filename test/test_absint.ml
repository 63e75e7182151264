(* The abstract-interpretation proof layer (lib/analysis/absint):
   qcheck_lite lattice laws and concrete-anchor soundness for the
   interval domain, the relational (packet-length) component on the
   guard shape it exists for, a never-raise sweep over all 8 corpora
   plus random IR, the FSM wedge detector against the seeded-wedge
   fixture, SA012 against the seeded-divergence fixture, the
   SA009-dead-arm vs dynamic-coverage cross-check, and the
   fail-on/proved-functions plumbing the CLI builds on. *)

module P = Sage.Pipeline
module Ir = Sage_codegen.Ir
module A = Sage_analysis.Analyzer
module D = Sage_analysis.Diagnostic
module I = Sage_analysis.Interval
module Absint = Sage_analysis.Absint
module Fsm = Sage_analysis.Fsm
module Engine = Sage_fuzz.Engine
module Coverage = Sage_interp.Coverage
module C = Corpus_runs
module Q = Qcheck_lite

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let contains ~needle haystack = Astring_contains.contains haystack needle
let i64 = Int64.of_int

(* ---- interval arbitraries ---- *)

let print_iv = Fmt.to_to_string I.pp

(* feasible by construction: each component pair is sorted, so the
   un-normalizing [I.v] never builds an empty-looking V *)
let gen_iv r =
  match Q.int_below r 8 with
  | 0 -> I.bot
  | 1 -> I.top
  | 2 -> I.const (i64 (Q.gen_range r (-64) 64))
  | 3 -> I.plen ~min:(i64 (Q.gen_range r 0 16))
  | _ ->
    let bnd () =
      if Q.gen_bool r then None else Some (i64 (Q.gen_range r (-64) 64))
    in
    let sort2 a b =
      match (a, b) with
      | Some x, Some y when Int64.compare x y > 0 -> (b, a)
      | _ -> (a, b)
    in
    let lo, hi =
      let a = bnd () in
      let b = bnd () in
      sort2 a b
    in
    let dlo, dhi =
      let a = bnd () in
      let b = bnd () in
      sort2 a b
    in
    I.v ?lo ?hi ?dlo ?dhi ()

let arb_iv = Q.make ~print:print_iv gen_iv
let arb_iv2 = Q.pair arb_iv arb_iv

(* a concrete anchor and an interval guaranteed to contain it (pure
   interval, no relational part: the concrete model is a single int64) *)
let gen_anchored r =
  let x = i64 (Q.gen_range r (-50) 50) in
  let lo =
    if Q.gen_bool r then None
    else Some (Int64.sub x (i64 (Q.gen_range r 0 20)))
  in
  let hi =
    if Q.gen_bool r then None
    else Some (Int64.add x (i64 (Q.gen_range r 0 20)))
  in
  (x, I.v ?lo ?hi ())

let arb_anchored2 =
  Q.make
    ~print:(fun ((x, a), (y, b)) ->
      Printf.sprintf "x=%Ld in %s, y=%Ld in %s" x (print_iv a) y (print_iv b))
    (fun r ->
      let a = gen_anchored r in
      let b = gen_anchored r in
      (a, b))

let ops = [ "eq"; "ne"; "lt"; "le"; "gt"; "ge" ]

let concrete op x y =
  let c = Int64.compare x y in
  match op with
  | "eq" -> c = 0
  | "ne" -> c <> 0
  | "lt" -> c < 0
  | "le" -> c <= 0
  | "gt" -> c > 0
  | "ge" -> c >= 0
  | _ -> invalid_arg op

(* ---- lattice laws ---- *)

let prop_join_upper_bound (a, b) =
  let c = I.join a b in
  I.leq a c && I.leq b c

let prop_join_least_of_self (a, b) =
  (* join absorbs anything below it: a <= c implies join a c = c *)
  let c = I.join a b in
  I.equal (I.join a c) c && I.equal (I.join b c) c

let prop_meet_lower_bound (a, b) =
  let m = I.meet a b in
  I.leq m a && I.leq m b

let prop_widen_upper_bound (a, b) =
  let w = I.widen a b in
  I.leq a w && I.leq b w

let prop_widen_stabilizes (a, b) =
  (* one more widening step with an already-widened iterate is a
     no-op: the ascending chain is finite *)
  let w = I.widen a b in
  I.equal (I.widen a w) w

let prop_order_sanity (a, b) =
  I.leq a a
  && I.leq I.bot a
  && I.leq a I.top
  && I.leq (I.meet a b) (I.join a b)

(* ---- concrete soundness (x in a, y in b witness the ops) ---- *)

let prop_arith_sound ((x, a), (y, b)) =
  I.may_contain (I.add a b) (Int64.add x y)
  && I.may_contain (I.sub a b) (Int64.sub x y)
  && I.may_contain (I.neg a) (Int64.neg x)
  && I.may_contain (I.join a b) x
  && I.may_contain (I.join a b) y
  && ((not (I.may_contain b x)) || I.may_contain (I.meet a b) x)

let prop_cmp_sound ((x, a), (y, b)) =
  List.for_all
    (fun op ->
      match I.cmp op a b with
      | I.True -> concrete op x y
      | I.False -> not (concrete op x y)
      | I.Unknown -> true)
    ops

let prop_refine_sound ((x, a), (y, b)) =
  (* assuming "x op y" holds, the refined interval must keep x *)
  List.for_all
    (fun op ->
      (not (concrete op x y)) || I.may_contain (I.refine op a b) x)
    ops

let prop_truth_sound ((x, a), _) =
  match I.truth a with
  | I.True -> not (Int64.equal x 0L)
  | I.False -> Int64.equal x 0L
  | I.Unknown -> true

let prop_negate_duality ((_, a), (y, b)) =
  ignore y;
  List.for_all
    (fun op ->
      match (I.cmp op a b, I.cmp (I.negate op) a b) with
      | I.True, n -> n = I.False
      | I.False, n -> n = I.True
      | I.Unknown, n -> n = I.Unknown)
    ops

let prop_flip_symmetry (a, b) =
  List.for_all (fun op -> I.cmp op a b = I.cmp (I.flip op) b a) ops

(* ---- the relational component, on the guard it exists for ---- *)

let test_plen_relational () =
  let l = I.plen ~min:8L in
  (* v - L = 0 decides comparisons no direct interval could: L has no
     upper bound, yet L <= L is a tautology *)
  check Alcotest.bool "L le L" true (I.cmp "le" l l = I.True);
  check Alcotest.bool "L gt L" true (I.cmp "gt" l l = I.False);
  (* the BFD discard-guard shape: after refining len <= L, a second
     "len > L" is provably false for every packet length *)
  let len = I.refine "le" I.top (I.plen ~min:0L) in
  check Alcotest.bool "len gt L after refine" true
    (I.cmp "gt" len (I.plen ~min:0L) = I.False);
  check Alcotest.bool "refine kept feasibility" false (I.is_bot len)

(* ---- never-raise sweep: all 8 corpora, plus random IR ---- *)

let sa_codes = [ "SA007"; "SA008"; "SA009"; "SA010"; "SA011"; "SA012" ]

let test_corpora_never_raise_no_errors () =
  List.iter
    (fun (c : C.corpus) ->
      let run = C.run_of c in
      let funcs = run.P.codegen.P.functions in
      (* re-running the summary directly must not raise either *)
      List.iter
        (fun (f : Ir.func) ->
          let layout =
            List.assoc_opt f.Ir.fn_name run.P.codegen.P.struct_of_function
          in
          ignore (Absint.analyze ?layout f))
        funcs;
      List.iter
        (fun (d : D.t) ->
          if d.D.code = "SA000" then
            Alcotest.failf "%s: analysis check raised: %s" c.C.name d.D.text;
          if d.D.severity = D.Error && List.mem d.D.code sa_codes then
            Alcotest.failf "%s: unexpected %s error in %s: %s" c.C.name
              d.D.code d.D.fn_name d.D.text)
        run.P.diagnostics)
    C.corpora

let test_all_corpus_functions_proved () =
  List.iter
    (fun (c : C.corpus) ->
      let run = C.run_of c in
      let funcs = run.P.codegen.P.functions in
      let proved = A.proved_functions run.P.diagnostics funcs in
      check Alcotest.int
        (Printf.sprintf "%s: all functions SA007-proved" c.C.name)
        (List.length funcs) (List.length proved))
    C.corpora

(* random IR: the analyzer is total even on garbage (unknown ops,
   unbound params, fields outside the layout), and none of the checks
   fall back to the SA000 raise-guard *)
let field_pool = [ "type"; "code"; "checksum"; "identifier"; "data"; "bogus" ]
let param_pool = [ "x"; "current_time"; "payload_length"; "gateway" ]
let op_pool = ops @ [ "=="; "!="; "<" ] (* invalid spellings included *)

let rec gen_expr r depth =
  if depth = 0 || Q.int_below r 3 = 0 then
    match Q.int_below r 4 with
    | 0 -> Ir.Int (Q.gen_range r (-3) 70000)
    | 1 -> Ir.Param (Q.pick r param_pool)
    | 2 -> Ir.Field (Ir.Proto, Q.pick r field_pool)
    | _ -> Ir.Request_field (Ir.Proto, Q.pick r field_pool)
  else
    match Q.int_below r 4 with
    | 0 -> Ir.Cmp (Q.pick r op_pool, gen_expr r (depth - 1), gen_expr r (depth - 1))
    | 1 -> Ir.And (gen_expr r (depth - 1), gen_expr r (depth - 1))
    | 2 -> Ir.Not (gen_expr r (depth - 1))
    | _ -> Ir.Call ("f", [ gen_expr r (depth - 1) ])

let rec gen_stmt r depth =
  match Q.int_below r (if depth = 0 then 5 else 6) with
  | 0 ->
    Ir.Assign (Ir.Lfield (Ir.Proto, Q.pick r field_pool), gen_expr r 2)
  | 1 -> Ir.Assign (Ir.Lvar (Q.pick r [ "t"; "u" ]), gen_expr r 2)
  | 2 -> Ir.Do (gen_expr r 2)
  | 3 -> Ir.Discard
  | 4 -> Ir.Send "test message"
  | _ ->
    Ir.If
      ( gen_expr r 2,
        List.init (Q.int_below r 3) (fun _ -> gen_stmt r (depth - 1)),
        List.init (Q.int_below r 3) (fun _ -> gen_stmt r (depth - 1)) )

let arb_body =
  Q.make
    ~print:(fun body ->
      Fmt.to_to_string Ir.pp_func
        { Ir.fn_name = "gen"; protocol = "T"; message = "m"; role = Ir.Sender;
          body })
    (fun r -> List.init (Q.int_below r 6) (fun _ -> gen_stmt r 2))

let random_ir_layout =
  {
    Sage_rfc.Header_diagram.struct_name = "Test Message";
    fields =
      [
        { Sage_rfc.Header_diagram.name = "Type"; bits = 8; bit_offset = 0;
          variable = false };
        { name = "Code"; bits = 8; bit_offset = 8; variable = false };
        { name = "Checksum"; bits = 16; bit_offset = 16; variable = false };
        { name = "Data"; bits = 0; bit_offset = 32; variable = true };
      ];
  }

let prop_random_ir_total body =
  let f =
    { Ir.fn_name = "gen"; protocol = "T"; message = "m"; role = Ir.Sender;
      body }
  in
  let no_sa000 diags = List.for_all (fun d -> d.D.code <> "SA000") diags in
  no_sa000 (A.analyze_func ~layout:random_ir_layout f)
  && no_sa000 (A.analyze_func f)

(* ---- SA011: FSM models, wedges, and the seeded fixture ---- *)

let corpus name = List.find (fun c -> c.C.name = name) C.corpora
let bfd_funcs () = (C.run_of (corpus "bfd")).P.codegen.P.functions

let test_bfd_fsm_model_recovered () =
  let funcs = bfd_funcs () in
  match
    List.find_opt
      (fun m -> m.Fsm.var = "bfd.SessionState")
      (Fsm.models funcs)
  with
  | None -> Alcotest.fail "no FSM model recovered for bfd.SessionState"
  | Some m ->
    check Alcotest.bool "knows the Up state" true (List.mem 3L m.Fsm.states);
    check Alcotest.(list string) "wedge-free" []
      (List.map Int64.to_string (Fsm.wedges m))

let test_seeded_wedge_detected () =
  let funcs = Sage_chaos.Seeded_wedge.tamper_fsm (bfd_funcs ()) in
  (match
     List.find_opt
       (fun m -> m.Fsm.var = "bfd.SessionState")
       (Fsm.models funcs)
   with
  | None -> Alcotest.fail "tampering should not destroy the model"
  | Some m ->
    check Alcotest.(list string) "state 3 is now a wedge" [ "3" ]
      (List.map Int64.to_string (Fsm.wedges m)));
  let protocol = (List.hd funcs).Ir.protocol in
  match
    List.filter (fun d -> d.D.code = "SA011") (Fsm.check ~protocol funcs)
  with
  | [ d ] ->
    check Alcotest.bool "error severity" true (d.D.severity = D.Error);
    check Alcotest.bool "names the wedge" true (contains ~needle:"wedge" d.D.text)
  | ds -> Alcotest.failf "expected 1 SA011, got %d" (List.length ds)

let test_untampered_corpora_wedge_free () =
  List.iter
    (fun (c : C.corpus) ->
      let funcs = (C.run_of c).P.codegen.P.functions in
      match funcs with
      | [] -> ()
      | f :: _ ->
        check Alcotest.int
          (Printf.sprintf "%s: no SA011" c.C.name)
          0
          (List.length (Fsm.check ~protocol:f.Ir.protocol funcs)))
    C.corpora

(* ---- SA012: the seeded slot-divergence fixture ---- *)

let test_seeded_divergence_detected () =
  let run = C.run_of (corpus "icmp") in
  let target = Sage_backend.Seeded_divergence.default_target in
  let f =
    List.find
      (fun (f : Ir.func) -> f.Ir.fn_name = target)
      run.P.codegen.P.functions
  in
  let layout = List.assoc target run.P.codegen.P.struct_of_function in
  let sa012 diags = List.filter (fun d -> d.D.code = "SA012") diags in
  check Alcotest.int "clean function: no SA012" 0
    (List.length (sa012 (A.analyze_func ~layout f)));
  match sa012 (A.analyze_func ~layout ~divergence:target f) with
  | [ d ] ->
    check Alcotest.bool "error severity" true (d.D.severity = D.Error);
    check Alcotest.bool "shows both expressions" true
      (contains ~needle:"compiles to a different expression" d.D.text)
  | ds -> Alcotest.failf "expected 1 SA012, got %d" (List.length ds)

(* ---- SA009 dead arms never execute: static vs coverage ---- *)

let test_dead_arms_never_covered () =
  (* bgp is the corpus whose decided guards carry non-empty dead arms
     (the version-mismatch and hold-time error branches) *)
  let run = C.run_of (corpus "bgp") in
  let targets =
    List.filter_map
      (fun (f : Ir.func) ->
        Option.map
          (fun sd -> (f, sd))
          (List.assoc_opt f.Ir.fn_name run.P.codegen.P.struct_of_function))
      run.P.codegen.P.functions
  in
  let r =
    Engine.run ~seed:42 ~iters:800 ~protocol:run.P.spec.P.protocol targets
  in
  let checked = ref 0 in
  List.iter
    (fun ((f : Ir.func), layout) ->
      let summary = Absint.analyze ~layout f in
      List.iter
        (fun (fact : Absint.fact) ->
          match (fact.Absint.stmt, fact.Absint.cond) with
          | Ir.If (_, then_, else_), Some decided when fact.Absint.reachable ->
            let dead_base, dead_extent =
              match decided with
              | I.True -> (fact.Absint.id + 1 + Ir.extent then_, Ir.extent else_)
              | I.False -> (fact.Absint.id + 1, Ir.extent then_)
              | I.Unknown -> (0, 0)
            in
            for id = dead_base to dead_base + dead_extent - 1 do
              incr checked;
              check Alcotest.int
                (Printf.sprintf "%s stmt %d statically dead, never hit"
                   f.Ir.fn_name id)
                0
                (Coverage.hit_count r.Engine.coverage ~fn:f.Ir.fn_name ~id)
            done
          | _ -> ())
        summary.Absint.facts)
    targets;
  (* an empty sweep would mean this test checks nothing *)
  check Alcotest.bool "cross-checked at least one dead statement" true
    (!checked > 0)

(* ---- proved-function plumbing: fuzz cross-validation + exit codes ---- *)

let test_engine_proof_check_ok () =
  let run = C.run_of (corpus "icmp") in
  let funcs = run.P.codegen.P.functions in
  let proved = A.proved_functions run.P.diagnostics funcs in
  let targets =
    List.filter_map
      (fun (f : Ir.func) ->
        Option.map
          (fun sd -> (f, sd))
          (List.assoc_opt f.Ir.fn_name run.P.codegen.P.struct_of_function))
      funcs
  in
  let r =
    Engine.run ~seed:7 ~iters:400 ~protocol:run.P.spec.P.protocol ~proved
      targets
  in
  check Alcotest.int "no proof violations" 0
    (List.length r.Engine.proof_violations);
  let s = Engine.summary r in
  check Alcotest.bool "summary reports the proof set" true
    (contains ~needle:"SA007-proved" s);
  check Alcotest.bool "summary reports proof-check: ok" true
    (contains ~needle:"proof-check: ok" s)

let diag code severity =
  D.v ~code ~severity ~fn_name:"f" ~protocol:"T" "synthetic finding"

let test_exit_code_policies () =
  let err = diag "SA007" D.Error
  and warn = diag "SA008" D.Warning
  and info = diag "SA009" D.Info in
  let cases =
    [
      (A.Fail_never, [ err; warn; info ], 0);
      (A.Fail_error, [ warn; info ], 0);
      (A.Fail_error, [ err ], 1);
      (A.Fail_warning, [ info ], 0);
      (A.Fail_warning, [ warn ], 1);
      (A.Fail_warning, [ err ], 1);
    ]
  in
  List.iteri
    (fun i (fail_on, diags, expect) ->
      check Alcotest.int
        (Printf.sprintf "policy case %d" i)
        expect
        (A.exit_code_on ~fail_on diags))
    cases

let suite =
  [
    Q.test "join is an upper bound" arb_iv2 prop_join_upper_bound;
    Q.test "join absorbs lower elements" arb_iv2 prop_join_least_of_self;
    Q.test "meet is a lower bound" arb_iv2 prop_meet_lower_bound;
    Q.test "widen is an upper bound" arb_iv2 prop_widen_upper_bound;
    Q.test "widen stabilizes" arb_iv2 prop_widen_stabilizes;
    Q.test "order sanity" arb_iv2 prop_order_sanity;
    Q.test "arithmetic is sound on anchors" arb_anchored2 prop_arith_sound;
    Q.test "cmp decisions are sound" arb_anchored2 prop_cmp_sound;
    Q.test "refine keeps the witness" arb_anchored2 prop_refine_sound;
    Q.test "truth is sound" arb_anchored2 prop_truth_sound;
    Q.test "negate is a three-valued dual" arb_anchored2 prop_negate_duality;
    Q.test "flip is symmetric" arb_iv2 prop_flip_symmetry;
    Q.test ~count:300 "analyzer total on random IR" arb_body
      prop_random_ir_total;
    tc "relational payload-length reasoning" test_plen_relational;
    tc "8 corpora: no raise, no SA007-SA012 errors"
      test_corpora_never_raise_no_errors;
    tc "8 corpora: every function SA007-proved"
      test_all_corpus_functions_proved;
    tc "bfd FSM model recovered, wedge-free" test_bfd_fsm_model_recovered;
    tc "seeded wedge caught by SA011" test_seeded_wedge_detected;
    tc "untampered corpora raise no SA011" test_untampered_corpora_wedge_free;
    tc "seeded divergence caught by SA012" test_seeded_divergence_detected;
    tc "SA009 dead arms never covered dynamically"
      test_dead_arms_never_covered;
    tc "fuzz proof cross-check passes on icmp" test_engine_proof_check_ok;
    tc "exit-code policies" test_exit_code_policies;
  ]
