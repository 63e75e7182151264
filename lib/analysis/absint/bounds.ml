(* SA007: packet-access safety, proven for all packet lengths — the
   static counterpart of the fuzz never-raise oracle.  A function is
   *proved* when none of its reachable statements can make
   [Exec.eval_expr]/[eval_call] (or the compiled backend, which shares
   the failure surface) raise.  Every unprovable obligation is one
   Error, anchored to its statement id, so `sage analyze --prove` can
   both gate CI and hand the fuzz engine the proved set to
   cross-check.

   The obligations mirror [Exec]'s failure points one for one:
   unknown Proto/IP fields, request views outside the receiver role,
   unbound environment parameters, unknown framework functions or call
   shapes (including [message_from]'s byte-alignment requirement and
   [recompute_<f>]'s field lookup), and unknown comparison operators.
   The proof is relative to the harness environment contract
   ([Driver.env_of]): the parameters it always binds count as
   available, and [original_datagram] is a well-formed IPv4 datagram.

   SA008: value-range check on assignments to fixed-width fields — the
   abstract RHS range against the recovered field width.  Constant
   RHSes are SA005's (sharper) business and are skipped here. *)

module Ir = Sage_codegen.Ir
module Hd = Sage_rfc.Header_diagram
module I = Interval
module D = Diagnostic

let ip_fields = [ "src"; "dst"; "ttl"; "tos" ]
let cmp_ops = [ "eq"; "ne"; "gt"; "ge"; "lt"; "le" ]

let is_recompute fn =
  String.length fn > 10 && String.sub fn 0 10 = "recompute_"

(* ------------------------------------------------------------------ *)
(* SA007 obligations.                                                  *)
(* ------------------------------------------------------------------ *)

type octx = {
  d : Dataflow.ctx;
  summary : Absint.summary;
  emit : Diagnostic.t -> unit;
}

(* one obligation miss = one Error; [stmt_id]/[sentence] anchor it *)
let obligations ctx (fact : Absint.fact) exprs =
  let func = ctx.d.Dataflow.func in
  let emit ?field text =
    ctx.emit
      (D.v ?field ~stmt_id:fact.Absint.id
         ?sentence:(ctx.d.Dataflow.sentence_of_stmt fact.Absint.stmt)
         ~code:"SA007" ~severity:D.Error ~fn_name:func.Ir.fn_name
         ~protocol:func.Ir.protocol text)
  in
  let field_access ~request layer f =
    (if request then
       match func.Ir.role with
       | Ir.Receiver -> ()
       | Ir.Sender ->
         emit ~field:f
           "request-message access outside the receiver role: no received \
            message exists");
    match layer with
    | Ir.Proto ->
      (* "data" always resolves to the variable tail, layout or not *)
      if f <> "data" then (
        match Absint.classify_field ctx.summary.Absint.layout f with
        | Absint.Fixed _ | Absint.Variable _ -> ()
        | Absint.Unknown_field ->
          let why =
            match ctx.summary.Absint.layout with
            | None -> "no recovered header layout to resolve it against"
            | Some _ -> "not in the recovered header layout"
          in
          emit ~field:f
            (Printf.sprintf "access to unknown field %S: %s" f why))
    | Ir.Ip ->
      if not (List.mem f ip_fields) then
        emit ~field:f (Printf.sprintf "unknown IP header field %S" f)
    | Ir.State -> ()
  in
  let rec expr = function
    | Ir.Int _ | Ir.Str _ -> ()
    | Ir.Field (l, f) -> field_access ~request:false l f
    | Ir.Request_field (l, f) -> field_access ~request:true l f
    | Ir.Param p ->
      if
        not (List.mem p Ir.harness_params || Absenv.is_local fact.Absint.env p)
      then
        emit
          (Printf.sprintf
             "environment parameter %S is not in the harness contract and \
              not assigned on every path before this read"
             p)
    | Ir.Call (fn, args) -> call fn args
    | Ir.Not e -> expr e
    | Ir.Cmp (op, a, b) ->
      if not (List.mem op cmp_ops) then
        emit (Printf.sprintf "unknown comparison operator %S" op);
      expr a;
      expr b
    | Ir.And (a, b) | Ir.Or (a, b) ->
      expr a;
      expr b
  and call fn args =
    match fn, args with
    | "swap_ip_addresses", [] -> ()
    | "swap_fields", [ (Ir.Field _ as a); (Ir.Field _ as b) ] ->
      (* the builtin reads then writes both fields; the write fails on
         exactly the accesses the read obligation already covers *)
      expr a;
      expr b
    | "message_from", [ Ir.Field (Ir.Proto, f) ] -> (
      match Absint.classify_field ctx.summary.Absint.layout f with
      | Absint.Fixed fd when fd.Hd.bit_offset mod 8 = 0 -> ()
      | Absint.Fixed fd ->
        emit ~field:f
          (Printf.sprintf
             "message_from(%s): field starts at bit %d, not byte-aligned"
             f fd.Hd.bit_offset)
      | Absint.Variable _ | Absint.Unknown_field ->
        emit ~field:f
          (Printf.sprintf
             "message_from(%s): not a fixed field of the recovered layout" f))
    | "whole_message", _ ->
      (* ignores its arguments entirely (never evaluates them) *)
      ()
    | ("ones_complement_sum" | "complement16" | "first_64_bits"
      | "event_expire" | "event_occur" | "select_session"
      | "encapsulate_udp"), [ a ] -> expr a
    | ("recompute_checksum" | "recompute_cksum"), [] ->
      checksum_target "checksum"
    | ("concat" | "add" | "sub"), [ a; b ] ->
      expr a;
      expr b
    | "original_field", [ Ir.Str _ ] ->
      (* requires the original_datagram parameter, which the harness
         contract binds to a well-formed IPv4 datagram *)
      ()
    | ("session_found" | "transmit_procedure" | "timeout_procedure"), [] ->
      ()
    | fn, [] when is_recompute fn ->
      checksum_target (String.sub fn 10 (String.length fn - 10))
    | fn, args ->
      List.iter expr args;
      emit
        (Printf.sprintf "unknown framework function %S/%d" fn
           (List.length args))
  and checksum_target f =
    match Absint.classify_field ctx.summary.Absint.layout f with
    | Absint.Fixed _ -> ()
    | Absint.Variable _ | Absint.Unknown_field ->
      emit ~field:f
        (Printf.sprintf
           "checksum recomputation targets %S, not a fixed field of the \
            recovered layout"
           f)
  in
  let lvalue = function
    | Ir.Lfield (l, f) -> field_access ~request:false l f
    | Ir.Lvar _ -> ()
  in
  List.iter expr exprs;
  match fact.Absint.stmt with
  | Ir.Assign (lv, _) -> lvalue lv
  | Ir.If _ | Ir.Do _ | Ir.Discard | Ir.Send _ | Ir.Comment _ -> ()

(* the expressions a statement itself evaluates (branch bodies have
   their own facts) *)
let own_exprs = function
  | Ir.Assign (_, e) | Ir.Do e | Ir.If (e, _, _) -> [ e ]
  | Ir.Discard | Ir.Send _ | Ir.Comment _ -> []

(* ------------------------------------------------------------------ *)
(* SA008: abstract value ranges vs. field widths.                      *)
(* ------------------------------------------------------------------ *)

let check_range ctx (fact : Absint.fact) =
  match fact.Absint.stmt, fact.Absint.rhs with
  | Ir.Assign (Ir.Lfield (Ir.Proto, f), rhs_e), Some rhs
    when (match rhs_e with Ir.Int _ -> false | _ -> true) -> (
    match Absint.classify_field ctx.summary.Absint.layout f with
    | Absint.Fixed fd ->
      let func = ctx.d.Dataflow.func in
      let mask = Hd.mask_of_bits fd.Hd.bits in
      let emit severity text =
        ctx.emit
          (D.v ~field:fd.Hd.ident ~stmt_id:fact.Absint.id
             ?sentence:(ctx.d.Dataflow.sentence_of_stmt fact.Absint.stmt)
             ~code:"SA008" ~severity ~fn_name:func.Ir.fn_name
             ~protocol:func.Ir.protocol text)
      in
      let above_lo =
        match I.lower rhs with
        | Some l -> Int64.compare l mask > 0
        | None -> false
      in
      let below_hi =
        match I.upper rhs with
        | Some h -> Int64.compare h 0L < 0
        | None -> false
      in
      let may_above =
        match I.upper rhs with
        | Some h -> Int64.compare h mask > 0
        | None -> false
      in
      let may_below =
        match I.lower rhs with
        | Some l -> Int64.compare l 0L < 0
        | None -> false
      in
      if above_lo then
        emit D.Error
          (Printf.sprintf
             "assigned value is always at least %Ld, but the %d-bit field \
              holds at most %Ld: the wire value is certainly truncated"
             (Option.get (I.lower rhs))
             fd.Hd.bits mask)
      else if below_hi then
        emit D.Error
          (Printf.sprintf
             "assigned value is always negative (at most %Ld); the %d-bit \
              field write truncates it"
             (Option.get (I.upper rhs))
             fd.Hd.bits)
      else begin
        if may_above then
          emit D.Warning
            (Printf.sprintf
               "assigned value may reach %Ld, beyond the %d-bit field \
                maximum %Ld"
               (Option.get (I.upper rhs))
               fd.Hd.bits mask);
        if may_below then
          emit D.Warning
            (Printf.sprintf
               "assigned value may be negative (down to %Ld); the %d-bit \
                field write would truncate it"
               (Option.get (I.lower rhs))
               fd.Hd.bits)
      end
    | Absint.Variable _ | Absint.Unknown_field -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Entry point.                                                        *)
(* ------------------------------------------------------------------ *)

let check (d : Dataflow.ctx) (summary : Absint.summary) =
  let diags = ref [] in
  let ctx = { d; summary; emit = (fun dg -> diags := dg :: !diags) } in
  List.iter
    (fun (fact : Absint.fact) ->
      if fact.Absint.reachable then begin
        obligations ctx fact (own_exprs fact.Absint.stmt);
        check_range ctx fact
      end)
    summary.Absint.facts;
  List.rev !diags

(* A function is SA007-proved iff the check found no bounds Error in
   it: the contract `--prove` and the fuzz cross-check rely on. *)
let proved diags fn =
  not
    (List.exists
       (fun (d : D.t) -> d.D.code = "SA007" && d.D.fn_name = fn)
       diags)
