module Ir = Sage_codegen.Ir
module D = Diagnostic

let checks =
  [
    ("def-assign", Def_assign.check);
    ("dead-code", Dead_code.check);
    ("overflow", Overflow.check);
  ]

(* The analyzer must never take a run down: a check that raises on some
   exotic IR shape becomes an SA000 finding instead of an exception.
   Warning severity, so an analyzer bug does not fail --fail-on error on
   an otherwise-clean corpus — the finding text carries the exception. *)
let protect ~name ~fn_name ~protocol f =
  match f () with
  | diags -> diags
  | exception exn ->
    [
      D.v ~code:"SA000" ~severity:D.Warning ~fn_name ~protocol
        (Printf.sprintf "analyzer check %s failed: %s" name
           (Printexc.to_string exn));
    ]

let run_check (name, check) (ctx : Dataflow.ctx) =
  protect ~name ~fn_name:ctx.Dataflow.func.Ir.fn_name
    ~protocol:ctx.Dataflow.func.Ir.protocol
    (fun () -> check ctx)

(* the abstract-interpretation checks share one summary per function;
   building it is itself SA000-protected *)
let absint_checks =
  [
    ("absint-bounds", Bounds.check);
    ("absint-branches", Branches.check);
    ("absint-checksum-window", Checksum_window.check);
  ]

let analyze_func ?layout ?sentence_of_stmt ?divergence func =
  let ctx = Dataflow.ctx ?layout ?sentence_of_stmt func in
  let fn_name = func.Ir.fn_name and protocol = func.Ir.protocol in
  let legacy = List.concat_map (fun c -> run_check c ctx) checks in
  let semantic =
    match Absint.analyze ?layout func with
    | summary ->
      List.concat_map
        (fun (name, check) ->
          protect ~name ~fn_name ~protocol (fun () -> check ctx summary))
        absint_checks
    | exception exn ->
      [
        D.v ~code:"SA000" ~severity:D.Warning ~fn_name ~protocol
          (Printf.sprintf "abstract interpretation failed: %s"
             (Printexc.to_string exn));
      ]
  in
  let slots =
    protect ~name:"slot-consistency" ~fn_name ~protocol (fun () ->
        Slots.check ?divergence ctx)
  in
  D.sort (legacy @ semantic @ slots)

let analyze_program ?sentence_of_stmt ?divergence ~struct_of_function funcs =
  let per_func =
    List.concat_map
      (fun (f : Ir.func) ->
        analyze_func
          ?layout:(List.assoc_opt f.Ir.fn_name struct_of_function)
          ?sentence_of_stmt ?divergence f)
      funcs
  in
  let fsm =
    match funcs with
    | [] -> []
    | (f : Ir.func) :: _ ->
      protect ~name:"fsm-wedge" ~fn_name:f.Ir.fn_name
        ~protocol:f.Ir.protocol
        (fun () -> Fsm.check ~protocol:f.Ir.protocol funcs)
  in
  D.sort (per_func @ fsm)

(* ------------------------------------------------------------------ *)
(* Proof summary and exit policy.                                      *)
(* ------------------------------------------------------------------ *)

(* A function is SA007-proved when the bounds check emitted nothing
   for it: every packet access is then safe for every packet length —
   the set `analyze --prove` prints and `fuzz --check-proofs`
   cross-validates. *)
let proved_functions diags funcs =
  List.filter_map
    (fun (f : Ir.func) ->
      if Bounds.proved diags f.Ir.fn_name then Some f.Ir.fn_name else None)
    funcs

type fail_on = Fail_never | Fail_error | Fail_warning

let exit_code_on ~fail_on diags =
  match fail_on with
  | Fail_never -> 0
  | Fail_error -> if D.has_errors diags then 1 else 0
  | Fail_warning ->
    if D.has_errors diags || D.warnings diags > 0 then 1 else 0
