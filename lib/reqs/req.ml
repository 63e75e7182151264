(* Executable requirements mined from RFC 2119 sentences (ROADMAP open
   item 5; Gordon, "Towards Property-Based Tests in Natural Language").

   A [t] is one MUST/SHOULD sentence from a corpus document, carrying a
   stable id (RQ001... in document order), its provenance (message
   section, field, source sentence) and — when the logical form lowers
   to a shape we know how to observe — a [rule]: a guard over the
   *input* (parsed packet fields, initial session state, initial IP
   header, environment parameters) plus an obligation over the
   execution [Backend.outcome].  Requirements whose LF does not lower
   stay mined-but-unchecked with a [note] explaining why; they still
   appear in reports and counters.

   Guard soundness: [outcome.read_field] reads the *pristine* parsed
   view (backends mutate a copy), so a guard over protocol fields sees
   exactly the bytes that arrived.  State/IP/param reads evaluate
   against the initial environment.  A generated function that itself
   assigns a location the guard reads could legitimately diverge from
   the guard's check-time value — such functions are excluded from the
   requirement's anchor set at compile time (see [writes_guard_reads]),
   keeping the oracle free of false positives by construction. *)

module Ir = Sage_codegen.Ir
module Backend = Sage_backend.Backend
module Rt = Sage_interp.Runtime
module Checksum = Sage_net.Checksum

type level = Must | Must_not | Should

let level_name = function
  | Must -> "MUST"
  | Must_not -> "MUST NOT"
  | Should -> "SHOULD"

(* What the requirement obliges, given its guard holds on the input.
   Every obligation is phrased over the observable [Backend.outcome]. *)
type obligation =
  | Must_discard  (** guard ⇒ the function discards *)
  | Must_not_send  (** guard ⇒ discarded or nothing was sent *)
  | Must_send  (** guard ∧ not discarded ⇒ at least one send *)
  | Must_call of string  (** guard ∧ not discarded ⇒ procedure invoked *)
  | Must_clear_state of string
      (** guard ∧ not discarded ⇒ final state variable is zero *)
  | Checksum_valid
      (** not discarded ∧ function assigns the checksum ⇒ the produced
          message verifies under the reference Internet checksum *)

let obligation_name = function
  | Must_discard -> "must-discard"
  | Must_not_send -> "must-not-send"
  | Must_send -> "must-send"
  | Must_call f -> "must-call " ^ f
  | Must_clear_state v -> "must-clear " ^ v
  | Checksum_valid -> "checksum-valid"

type rule = { guard : Ir.expr option; obligation : obligation }

type t = {
  id : string;  (** RQ001... — stable, document order *)
  protocol : string;
  sentence : string;  (** the source sentence, verbatim *)
  message : string option;  (** message section it occurred in *)
  field : string option;  (** field description it occurred in *)
  level : level;
  fns : string list;  (** generated functions the check applies to *)
  rule : rule option;  (** [None]: mined but not checkable *)
  note : string;  (** why unsupported, or compile caveats *)
}

let checkable r = r.rule <> None && r.fns <> []

(* ------------------------------------------------------------------ *)
(* Guard evaluation over the initial environment and parsed input.     *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let rec eval_expr ~(env : Backend.env) ~(o : Backend.outcome) (e : Ir.expr) :
    (int64, string) result =
  match e with
  | Ir.Int n -> Ok (Int64.of_int n)
  | Ir.Str s -> Error (Printf.sprintf "string %S in guard" s)
  | Ir.Field (Ir.Proto, f) -> o.Backend.read_field f
  | Ir.Field (Ir.State, v) ->
    Ok (Option.value ~default:0L (List.assoc_opt v env.Backend.state))
  | Ir.Field (Ir.Ip, f) ->
    (match f with
     | "ttl" -> Ok (Int64.of_int env.Backend.ip.Backend.ttl)
     | "tos" -> Ok (Int64.of_int env.Backend.ip.Backend.tos)
     | _ -> Error (Printf.sprintf "IP field %s not evaluable in guard" f))
  | Ir.Request_field _ -> Error "request field in guard"
  | Ir.Param p ->
    (match List.assoc_opt p env.Backend.params with
     | Some v -> Ok (Rt.int_of_value v)
     | None -> Error (Printf.sprintf "parameter %s unbound" p))
  | Ir.Call (f, _) -> Error (Printf.sprintf "call to %s in guard" f)
  | Ir.Not a ->
    let* x = eval_expr ~env ~o a in
    Ok (if x = 0L then 1L else 0L)
  | Ir.Cmp (op, a, b) ->
    let* x = eval_expr ~env ~o a in
    let* y = eval_expr ~env ~o b in
    let holds =
      match op with
      | "eq" -> x = y
      | "ne" -> x <> y
      | "lt" -> x < y
      | "le" -> x <= y
      | "gt" -> x > y
      | "ge" -> x >= y
      | other -> ignore other; false
    in
    Ok (if holds then 1L else 0L)
  | Ir.And (a, b) ->
    let* x = eval_expr ~env ~o a in
    if x = 0L then Ok 0L else eval_expr ~env ~o b
  | Ir.Or (a, b) ->
    let* x = eval_expr ~env ~o a in
    if x <> 0L then Ok 1L else eval_expr ~env ~o b

(* [None] when the guard cannot be evaluated for this input (missing
   parameter, field outside the layout): the check is skipped — a
   requirement oracle must never report a violation it cannot ground. *)
let guard_holds ~env ~o = function
  | None -> Some true
  | Some g ->
    (match eval_expr ~env ~o g with
     | Ok v -> Some (v <> 0L)
     | Error _ -> None)

(* Protocols whose generated checksum covers the whole message (the
   fuzz checksum oracle's list): only there does the reference
   whole-message verify apply. *)
let whole_message_checksum = [ "ICMP"; "IGMP"; "TCP" ]

(* Check one requirement against one execution.  [None] = satisfied
   (or vacuous / unevaluable); [Some detail] = violated.  Runtime
   errors are the never-raise oracle's finding, not ours. *)
let check ~(env : Backend.env) ~(o : Backend.outcome) (r : t) :
    string option =
  match r.rule with
  | None -> None
  | Some _ when o.Backend.error <> None -> None
  | Some { guard; obligation } ->
    let violated detail =
      Some
        (Printf.sprintf "%s (%s) violated: %s — %S" r.id
           (obligation_name obligation) detail r.sentence)
    in
    (match obligation with
     | Must_discard ->
       (match guard_holds ~env ~o guard with
        | Some true when not o.Backend.discarded ->
          violated "expected the function to discard, it completed"
        | _ -> None)
     | Must_not_send ->
       (match guard_holds ~env ~o guard with
        | Some true
          when (not o.Backend.discarded) && o.Backend.sent <> [] ->
          violated
            (Printf.sprintf "expected no transmission, sent [%s]"
               (String.concat "; " o.Backend.sent))
        | _ -> None)
     | Must_send ->
       (match guard_holds ~env ~o guard with
        | Some true
          when (not o.Backend.discarded) && o.Backend.sent = [] ->
          violated "expected a transmission, none was sent"
        | _ -> None)
     | Must_call f ->
       (match guard_holds ~env ~o guard with
        | Some true
          when (not o.Backend.discarded)
               && not (List.mem f o.Backend.called) ->
          violated (Printf.sprintf "expected a call to %s" f)
        | _ -> None)
     | Must_clear_state v ->
       (match guard_holds ~env ~o guard with
        | Some true when not o.Backend.discarded ->
          let final =
            Option.value ~default:0L
              (List.assoc_opt v (Lazy.force o.Backend.final_state))
          in
          if final <> 0L then
            violated (Printf.sprintf "expected %s = 0, final value %Ld" v final)
          else None
        | _ -> None)
     | Checksum_valid ->
       if
         o.Backend.assigns_checksum
         && (not o.Backend.discarded)
         && List.mem r.protocol whole_message_checksum
         && not (Checksum.verify o.Backend.output)
       then
         violated
           (Printf.sprintf "produced message fails checksum verification: [%s]"
              (Sage_net.Bytes_util.hex o.Backend.output))
       else None)

(* First violated requirement, in id order: a deterministic single
   verdict per (function, packet, env), like the other oracles. *)
let first_violation ~env ~o reqs =
  List.find_map
    (fun r ->
      match check ~env ~o r with
      | Some detail -> Some (r, detail)
      | None -> None)
    reqs

let pp ppf r =
  Fmt.pf ppf "%s [%s] %s%s%s" r.id (level_name r.level)
    (match r.rule with
     | Some { obligation; _ } -> obligation_name obligation
     | None -> "unchecked")
    (match r.fns with
     | [] -> ""
     | fns -> " on " ^ String.concat ", " fns)
    (if r.note = "" then "" else " (" ^ r.note ^ ")")
