(* The abstract interpreter proper: a single structured pass over an
   [Ir.func] body computing, for every statement (keyed by its stable
   pre-order id, the same numbering coverage and the backends use), the
   abstract state on entry, branch-condition truth values, and
   assignment right-hand-side ranges.  The checks (SA007–SA010) are
   separate read-only passes over the resulting {!summary}.

   The IR is loop-free — [Ir.stmt] has no loop constructor — so the
   structured walk *is* the fixpoint: every program point is visited
   once with its final abstract state, and no widening is needed here
   (the {!Interval.widen} operator exists for the domain contract and
   is property-tested so a future IR with loops inherits a sound
   domain).

   Soundness caveat, stated once: the relational (v − payload_length)
   component is meaningful under the harness contract that
   [payload_length], when provided, equals the executed packet's byte
   length — which both the fuzz driver and the simulator's
   state-update path guarantee.  Everything the checks *prove* is
   relative to that contract plus well-formed environment parameters
   (e.g. [original_datagram] decodes as IPv4, as [Driver.env_of]
   supplies). *)

module Ir = Sage_codegen.Ir
module Hd = Sage_rfc.Header_diagram
module I = Interval
module E = Absenv

type fact = {
  id : int;  (** pre-order statement id, as in [Ir.numbered_stmts] *)
  stmt : Ir.stmt;
  reachable : bool;
      (** false: under a branch the abstract state proves dead, or
          after a [Discard] on every path *)
  cond : I.truth option;  (** [If] statements: truth of the condition *)
  rhs : I.t option;  (** [Assign] statements: RHS range, pre-masking *)
  env : E.t;  (** abstract state on entry (entry state if unreachable) *)
}

type summary = {
  func : Ir.func;
  layout : Hd.t option;
  entry : E.t;
  facts : fact list;  (** ascending id; one per statement, comments included *)
  exit_env : E.t option;  (** [None] when every path ends in [Discard] *)
}

type ctx = { layout : Hd.t option; entry : E.t; record : fact -> unit }

(* ------------------------------------------------------------------ *)
(* Layout helpers.                                                     *)
(* ------------------------------------------------------------------ *)

type field_kind = Fixed of Hd.field | Variable of Hd.field | Unknown_field

let classify_field layout f =
  match layout with
  | None -> Unknown_field
  | Some lay -> (
    match Hd.find_ident lay f with
    | Some fd when fd.Hd.variable -> Variable fd
    | Some fd -> Fixed fd
    | None -> Unknown_field)

(* ------------------------------------------------------------------ *)
(* Expression evaluation.                                              *)
(* ------------------------------------------------------------------ *)

let bool01 = I.of_range 0L 1L
let cksum16 = I.of_range 0L 0xffffL

let of_truth = function
  | I.True -> I.const 1L
  | I.False -> I.const 0L
  | I.Unknown -> bool01

(* [eval ctx env e] returns the environment after [e]'s side effects
   (the builtins [swap_fields] and [encapsulate_udp] write cells) and
   an interval for the value's *int view* — [Runtime.int_of_value],
   i.e. the byte length for bytes values.  All call abstractions below
   are justified against [Exec.eval_call]. *)
let rec eval ctx env (e : Ir.expr) : E.t * I.t =
  match e with
  | Ir.Int n -> (env, I.const (Int64.of_int n))
  | Ir.Str s -> (env, I.const (Int64.of_int (String.length s)))
  | Ir.Field (l, f) -> (env, E.get env (E.Cur (l, f)))
  | Ir.Request_field (l, f) -> (env, E.get env (E.Req (l, f)))
  | Ir.Param p -> (env, E.get env (E.Par p))
  | Ir.Call (fn, args) -> eval_call ctx env fn args
  | Ir.Not e ->
    let env, v = eval ctx env e in
    (env, of_truth (match I.truth v with
      | I.True -> I.False
      | I.False -> I.True
      | I.Unknown -> I.Unknown))
  | Ir.Cmp (op, a, b) ->
    let env, va = eval ctx env a in
    let env, vb = eval ctx env b in
    (env, of_truth (I.cmp op va vb))
  | Ir.And (a, b) ->
    (* [Exec] short-circuits, so [b]'s effects may not happen: join the
       post-[b] environment with the pre-[b] one *)
    let enva, va = eval ctx env a in
    let envb, vb = eval ctx enva b in
    let t =
      match I.truth va, I.truth vb with
      | I.False, _ | _, I.False -> I.False
      | I.True, I.True -> I.True
      | _ -> I.Unknown
    in
    (E.join enva envb, of_truth t)
  | Ir.Or (a, b) ->
    let enva, va = eval ctx env a in
    let envb, vb = eval ctx enva b in
    let t =
      match I.truth va, I.truth vb with
      | I.True, _ | _, I.True -> I.True
      | I.False, I.False -> I.False
      | _ -> I.Unknown
    in
    (E.join enva envb, of_truth t)

and eval_call ctx env fn args =
  let eval_args env args =
    List.fold_left
      (fun (env, acc) a ->
        let env, v = eval ctx env a in
        (env, v :: acc))
      (env, []) args
  in
  match fn, args with
  | "swap_fields", [ Ir.Field (l1, f1); Ir.Field (l2, f2) ] ->
    let c1 = E.Cur (l1, f1) and c2 = E.Cur (l2, f2) in
    let v1 = E.get env c1 and v2 = E.get env c2 in
    (E.set (E.set env c1 v2) c2 v1, I.const 0L)
  | "encapsulate_udp", [ port ] ->
    let env, p = eval ctx env port in
    (E.add_local (E.set env (E.Par "udp_dst_port") p) "udp_dst_port",
     I.const 0L)
  | ("swap_ip_addresses" | "transmit_procedure" | "timeout_procedure"), [] ->
    (env, I.const 0L)
  | ("ones_complement_sum" | "complement16"), [ a ] ->
    let env, _ = eval ctx env a in
    (env, cksum16)
  | "message_from", [ Ir.Field (Ir.Proto, _) ] ->
    (* bytes from the field's offset to the end of the message *)
    (env, I.v ~lo:0L ())
  | "whole_message", args ->
    let env, _ = eval_args env args in
    let lo =
      match ctx.layout with
      | Some lay -> Int64.of_int lay.Hd.fixed_bytes
      | None -> 0L
    in
    (env, I.v ~lo ())
  | "concat", [ a; b ] ->
    let env, _ = eval ctx env a in
    let env, _ = eval ctx env b in
    (env, I.v ~lo:0L ())
  | "first_64_bits", [ a ] ->
    let env, _ = eval ctx env a in
    (env, I.of_range 0L 8L)
  | "add", [ a; b ] ->
    let env, va = eval ctx env a in
    let env, vb = eval ctx env b in
    (env, I.add va vb)
  | "sub", [ a; b ] ->
    let env, va = eval ctx env a in
    let env, vb = eval ctx env b in
    (env, I.sub va vb)
  | "event_expire", [ a ] ->
    (* 1 iff the timer counted down to zero *)
    let env, v = eval ctx env a in
    (env, of_truth (match I.truth v with
      | I.True -> I.False
      | I.False -> I.True
      | I.Unknown -> I.Unknown))
  | "event_occur", [ a ] ->
    let env, v = eval ctx env a in
    (env, of_truth (I.truth v))
  | ("session_found" | "select_session"), _ ->
    let env, _ = eval_args env args in
    (env, bool01)
  | fn, args when String.length fn > 10 && String.sub fn 0 10 = "recompute_" ->
    let env, _ = eval_args env args in
    (env, cksum16)
  | _, args ->
    (* unknown shapes raise at run time (an SA007 obligation); the
       value abstraction just stays sound *)
    let env, _ = eval_args env args in
    (env, I.top)

let value ctx env e = snd (eval ctx env e)

(* ------------------------------------------------------------------ *)
(* Condition refinement.                                               *)
(* ------------------------------------------------------------------ *)

let cell_of_expr = function
  | Ir.Field (l, f) -> Some (E.Cur (l, f))
  | Ir.Request_field (l, f) -> Some (E.Req (l, f))
  | Ir.Param p -> Some (E.Par p)
  | Ir.Int _ | Ir.Str _ | Ir.Call _ | Ir.Not _ | Ir.Cmp _ | Ir.And _
  | Ir.Or _ -> None

let refine_cell env e v' =
  match cell_of_expr e with Some c -> E.set env c v' | None -> env

(* [refine_cond ctx env e assumed] tightens [env] under the assumption
   that condition [e] evaluated to [assumed].  Only cell-reading
   operands refine; a failed conjunction (or satisfied disjunction)
   does not say which side caused it, so those directions refine
   nothing. *)
let rec refine_cond ctx env e assumed =
  match e with
  | Ir.Cmp (op, a, b) ->
    let op = if assumed then op else I.negate op in
    let va = value ctx env a and vb = value ctx env b in
    let env = refine_cell env a (I.refine op va vb) in
    refine_cell env b (I.refine (I.flip op) vb va)
  | Ir.Not e -> refine_cond ctx env e (not assumed)
  | Ir.And (a, b) when assumed ->
    refine_cond ctx (refine_cond ctx env a true) b true
  | Ir.Or (a, b) when not assumed ->
    refine_cond ctx (refine_cond ctx env a false) b false
  | (Ir.Field _ | Ir.Request_field _ | Ir.Param _) as e ->
    let v = value ctx env e in
    let v' =
      if assumed then I.refine "ne" v (I.const 0L) else I.meet v (I.const 0L)
    in
    refine_cell env e v'
  | Ir.Int _ | Ir.Str _ | Ir.Call _ | Ir.And _ | Ir.Or _ -> env

(* ------------------------------------------------------------------ *)
(* The structured walk.                                                *)
(* ------------------------------------------------------------------ *)

(* Abstract effect of [Assign]: fixed Proto fields store masked values
   ([Packet_view.set] truncates to the field width), so a provably
   in-range RHS keeps its relational precision and anything else lands
   in [0, mask]; variable fields store a byte length; IP fields go
   through lossy int conversions, so Top; State and locals store the
   raw int64. *)
let assign ctx env lv v =
  match lv with
  | Ir.Lfield (Ir.Proto, f) -> (
    let c = E.Cur (Ir.Proto, f) in
    match classify_field ctx.layout f with
    | Fixed fd ->
      let mask = Hd.mask_of_bits fd.Hd.bits in
      let stored = if I.within v ~min:0L ~max:mask then v else I.of_range 0L mask in
      E.set env c stored
    | Variable _ | Unknown_field -> E.set env c (I.v ~lo:0L ()))
  | Ir.Lfield (Ir.Ip, f) -> E.set env (E.Cur (Ir.Ip, f)) I.top
  | Ir.Lfield (Ir.State, f) -> E.set env (E.Cur (Ir.State, f)) v
  | Ir.Lvar p -> E.add_local (E.set env (E.Par p) v) p

(* Walk [stmts] whose first statement has id [base] under optional
   abstract state [env] ([None] = unreachable); returns the state after
   the last statement.  Every statement gets exactly one fact. *)
let rec walk ctx env ~base stmts =
  match stmts with
  | [] -> env
  | stmt :: rest ->
    let env = step ctx env ~id:base stmt in
    walk ctx env ~base:(base + Ir.stmt_extent stmt) rest

and step ctx env ~id stmt =
  let record ?cond ?rhs pre =
    ctx.record
      {
        id;
        stmt;
        reachable = Option.is_some env;
        cond;
        rhs;
        env = Option.value ~default:ctx.entry pre;
      }
  in
  match env with
  | None ->
    (* unreachable: record the subtree as such, propagate nothing *)
    record None;
    (match stmt with
     | Ir.If (_, then_, else_) ->
       ignore (walk ctx None ~base:(id + 1) then_);
       ignore (walk ctx None ~base:(id + 1 + Ir.extent then_) else_)
     | Ir.Assign _ | Ir.Do _ | Ir.Discard | Ir.Send _ | Ir.Comment _ -> ());
    None
  | Some env0 -> (
    match stmt with
    | Ir.Assign (lv, e) ->
      let env1, v = eval ctx env0 e in
      record ~rhs:v (Some env0);
      Some (assign ctx env1 lv v)
    | Ir.If (c, then_, else_) ->
      let env1, v = eval ctx env0 c in
      let t = I.truth v in
      record ~cond:t (Some env0);
      let env_then =
        match t with
        | I.False -> None
        | I.True | I.Unknown -> Some (refine_cond ctx env1 c true)
      in
      let env_else =
        match t with
        | I.True -> None
        | I.False | I.Unknown -> Some (refine_cond ctx env1 c false)
      in
      let out_t = walk ctx env_then ~base:(id + 1) then_ in
      let out_e = walk ctx env_else ~base:(id + 1 + Ir.extent then_) else_ in
      (match out_t, out_e with
       | Some a, Some b -> Some (E.join a b)
       | Some a, None -> Some a
       | None, Some b -> Some b
       | None, None -> None)
    | Ir.Do e ->
      let env1, _ = eval ctx env0 e in
      record (Some env0);
      Some env1
    | Ir.Discard ->
      record (Some env0);
      None
    | Ir.Send _ | Ir.Comment _ ->
      record (Some env0);
      Some env0)

let analyze ?layout (func : Ir.func) : summary =
  let entry = E.entry ?layout func in
  let facts = ref [] in
  let ctx = { layout; entry; record = (fun f -> facts := f :: !facts) } in
  let exit_env = walk ctx (Some entry) ~base:0 func.Ir.body in
  {
    func;
    layout;
    entry;
    facts = List.sort (fun a b -> compare a.id b.id) !facts;
    exit_env;
  }
