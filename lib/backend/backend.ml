(* The backend façade: the one module everything downstream opens.
   Re-exports the contract types ([include Intf] preserves type
   identity), packages either implementation behind a uniform [loaded]
   value, and provides the outcome comparator the backend-agreement
   oracle and differential test suite are built on. *)

include Intf

module Bytes_util = Sage_net.Bytes_util

(* A function prepared for execution on one backend, with enough
   metadata hanging off it for drivers and oracles. *)
type loaded = {
  choice : choice;
  func : Ir.func;
  layout : Hd.t;
  assigns_checksum : bool;
  exec : exec_fn;
}

let load choice ~layout (func : Ir.func) =
  let exec =
    match choice with
    | Interp ->
      let p = Interp_backend.load ~layout func in
      Interp_backend.exec p
    | Compiled ->
      let p = Compiled.load ~layout func in
      Compiled.exec p
  in
  { choice; func; layout; assigns_checksum = assigns_checksum func; exec }

(* First observable difference between two outcomes of the same
   function on the same packet, or [None] if they agree.  The detail
   string names both sides by backend so findings read unambiguously. *)
let diff (a : outcome) (b : outcome) =
  let an = choice_name a.backend and bn = choice_name b.backend in
  let mismatch what pa pb =
    Some (Printf.sprintf "%s: %s %s, %s %s" what an pa bn pb)
  in
  if a.discarded <> b.discarded then
    mismatch "discard decision" (string_of_bool a.discarded)
      (string_of_bool b.discarded)
  else if a.error <> b.error then
    let pp = function None -> "no error" | Some e -> Printf.sprintf "%S" e in
    mismatch "runtime error" (pp a.error) (pp b.error)
  else if not (Bytes.equal a.output b.output) then
    mismatch "output message"
      (Printf.sprintf "[%s]" (Bytes_util.hex a.output))
      (Printf.sprintf "[%s]" (Bytes_util.hex b.output))
  else if not (Bytes.equal a.reserialized b.reserialized) then
    mismatch "reserialized view"
      (Printf.sprintf "[%s]" (Bytes_util.hex a.reserialized))
      (Printf.sprintf "[%s]" (Bytes_util.hex b.reserialized))
  else if a.sent <> b.sent then
    let pp l = String.concat "," (List.rev l) in
    mismatch "sent messages" (pp a.sent) (pp b.sent)
  else if a.called <> b.called then
    let pp l = String.concat "," (List.rev l) in
    mismatch "called procedures" (pp a.called) (pp b.called)
  else if
    Addr.compare a.ip.Rt.src b.ip.Rt.src <> 0
    || Addr.compare a.ip.Rt.dst b.ip.Rt.dst <> 0
    || a.ip.Rt.ttl <> b.ip.Rt.ttl
    || a.ip.Rt.tos <> b.ip.Rt.tos
  then
    let pp (ip : Rt.ip_info) =
      Printf.sprintf "%s->%s ttl=%d tos=%d" (Addr.to_string ip.Rt.src)
        (Addr.to_string ip.Rt.dst) ip.Rt.ttl ip.Rt.tos
    in
    mismatch "final IP header" (pp a.ip) (pp b.ip)
  else if Lazy.force a.final_state <> Lazy.force b.final_state then
    let pp st =
      String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%Ld" k v) st)
    in
    mismatch "final state"
      (pp (Lazy.force a.final_state))
      (pp (Lazy.force b.final_state))
  else None
