(* The seeded fixtures: one planted defect per oracle.  Zero fuzz,
   chaos, proof, requirement and bench findings count as evidence only
   because each oracle has a fixture here that it must catch.

   Each fixture tampers with its own layers — the generated IR, the
   compiled side of a backend load, a chaos workload, a bench sample —
   and every tamper function is the identity for the other fixtures, so
   a verb applies the functions of its layers whichever fixture it was
   given. *)

module Ir = Sage_codegen.Ir
module Backend = Sage_backend.Backend
module Episode = Sage_chaos.Episode
module Workload = Sage_chaos.Workload
module History = Sage_bench.History

type t = Bug | Divergence | Violation | Wedge | Regression

let all = [ Bug; Divergence; Violation; Wedge; Regression ]

let name = function
  | Bug -> "bug"
  | Divergence -> "divergence"
  | Violation -> "violation"
  | Wedge -> "wedge"
  | Regression -> "regression"

let verbs = function
  | Bug | Divergence | Violation -> [ "fuzz" ]
  | Wedge -> [ "analyze"; "chaos" ]
  | Regression -> [ "bench" ]

let doc = function
  | Bug ->
    "replaces the computed checksum of icmp_echo_reply_receiver (icmp \
     corpus) with a constant; the checksum oracle must report exactly one \
     finding."
  | Divergence ->
    "runs that broken checksum on the compiled backend only, the \
     interpreter running the IR as generated; the backend-agreement \
     oracle must report exactly one finding."
  | Violation ->
    "deletes the guarded discards of \
     bfd_reception_of_bfd_control_packets_sender (bfd corpus); the \
     requirement oracle must report exactly one finding, with its RQ id, \
     source sentence and a shrunk witness packet.  Implies \
     $(b,--check-reqs)."
  | Wedge ->
    "makes recovery impossible: $(b,analyze) deletes the BFD \
     session-recovery transitions from the generated IR (bfd corpus), so \
     SA011 must report a wedge state and $(b,--prove) exit 1; $(b,chaos) \
     kills every restart handler after its first crash, so the schedules \
     with a crash episode must fail and shrink to a minimal one."
  | Regression ->
    "slows one measured key 3x before the gate ($(b,winnow) when \
     selected, else the first key), which must report it REGRESSED; the \
     history file is never changed.  Implies $(b,--check)."

(* ------------------------------------------------------------------ *)
(* Generated-IR tampers.                                               *)
(* ------------------------------------------------------------------ *)

let echo_reply = "icmp_echo_reply_receiver"
let bfd_receive = "bfd_reception_of_bfd_control_packets_sender"

(* bug: the computed checksum becomes a constant; the [checksum = 0]
   zeroing assignment stays *)
let rec break_checksum stmts =
  List.map
    (function
      | Ir.Assign ((Ir.Lfield (Ir.Proto, "checksum") as lv), Ir.Call _) ->
        Ir.Assign (lv, Ir.Int 0x1234)
      | Ir.If (c, then_, else_) ->
        Ir.If (c, break_checksum then_, break_checksum else_)
      | s -> s)
    stmts

(* violation: the guards stay and only the discards under them go, so
   the function still never raises, round-trips and agrees across
   backends — only the requirement oracle can object *)
let rec drop_guarded_discards stmts =
  let drop branch =
    List.filter (fun s -> s <> Ir.Discard) (drop_guarded_discards branch)
  in
  List.map
    (function
      | Ir.If (c, then_, else_) -> Ir.If (c, drop then_, drop else_)
      | s -> s)
    stmts

(* wedge: every transition of bfd.SessionState into Down (1), the state
   that recovers a stale session, goes with its innermost guard, so Up
   loses its only out-edges *)
let is_recovery = function
  | Ir.Assign (Ir.Lfield (Ir.State, "bfd.SessionState"), Ir.Int 1) -> true
  | _ -> false

let rec drop_recovery stmts =
  List.filter_map
    (function
      | Ir.If (c, then_, else_) ->
        if List.exists is_recovery then_ || List.exists is_recovery else_
        then None
        else Some (Ir.If (c, drop_recovery then_, drop_recovery else_))
      | s when is_recovery s -> None
      | s -> Some s)
    stmts

(* the function the fixture's tampered side runs *)
let tamper t (f : Ir.func) =
  let edit g = { f with Ir.body = g f.Ir.body } in
  match t with
  | (Bug | Divergence) when f.Ir.fn_name = echo_reply -> edit break_checksum
  | Violation when f.Ir.fn_name = bfd_receive -> edit drop_guarded_discards
  | Wedge -> edit drop_recovery
  | _ -> f

let rewrite t funcs =
  match t with
  | Divergence -> funcs (* only [load]'s compiled side runs the tamper *)
  | _ -> List.map (tamper t) funcs

let load t choice ~layout (f : Ir.func) =
  match (t, choice) with
  | Divergence, Backend.Compiled ->
    { (Backend.load choice ~layout (tamper t f)) with Backend.func = f }
  | _ -> Backend.load choice ~layout f

(* ------------------------------------------------------------------ *)
(* Workload and sample tampers.                                        *)
(* ------------------------------------------------------------------ *)

let arm t (w : Workload.t) =
  match t with
  | Wedge ->
    let crashed = ref false in
    {
      w with
      Workload.name = w.Workload.name ^ "+wedge";
      crash =
        (fun () ->
          crashed := true;
          w.Workload.crash ());
      restart = (fun () -> if not !crashed then w.Workload.restart ());
    }
  | _ -> w

let slow t current =
  match (t, current) with
  | Regression, (first, _) :: _ ->
    let key = if List.mem_assoc "winnow" current then "winnow" else first in
    List.map
      (fun (k, (s : History.sample)) ->
        if k = key then (k, { s with History.ns = s.History.ns *. 3. })
        else (k, s))
      current
  | _ -> current

(* ------------------------------------------------------------------ *)
(* Vacuous runs.                                                       *)
(* ------------------------------------------------------------------ *)

let vacuous_ir t funcs =
  let corpus =
    match t with
    | Bug | Divergence -> Some "icmp"
    | Violation | Wedge -> Some "bfd"
    | Regression -> None
  in
  match corpus with
  | Some c when List.for_all (fun f -> tamper t f = f) funcs ->
    Some (Printf.sprintf "the %s corpus (-p %s)" c c)
  | _ -> None

let vacuous_chaos t schedules =
  let crashes =
    List.exists (function Episode.Crash_restart _ -> true | _ -> false)
  in
  if t = Wedge && not (List.exists crashes schedules) then
    Some "a schedule with a crash episode (--schedule outage or blackout)"
  else None
