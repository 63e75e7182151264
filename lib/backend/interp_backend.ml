(* The tree-walk interpreter behind the backend interface: one
   [Runtime.t] per execution over hashtable-backed packet views —
   exactly the semantics `lib/interp/exec.ml` has always had, now
   reachable through [Intf.S] so it can be swapped for (and
   differentially tested against) the compiled backend. *)

module Rt = Sage_interp.Runtime
module Pv = Sage_interp.Packet_view
module Exec = Sage_interp.Exec
module Ir = Sage_codegen.Ir
module Hd = Sage_rfc.Header_diagram

type prog = { func : Ir.func; layout : Hd.t; assigns_checksum : bool }

let name = "interp"

let load ~layout func =
  { func; layout; assigns_checksum = Intf.assigns_checksum func }

let exec t ?coverage ?trace ~(env : Intf.env) packet =
  match Pv.deserialize t.layout packet with
  | Error e -> Error e
  | Ok view ->
    let proto = Pv.copy view in
    let ip = Intf.ip_info_of_spec env.Intf.ip in
    let request, request_ip =
      match env.Intf.request_ip with
      | Some spec -> (Some (Pv.copy view), Some (Intf.ip_info_of_spec spec))
      | None -> (None, None)
    in
    let rt =
      Rt.create ?coverage ?trace ?request ?request_ip ~params:env.Intf.params
        ~state:env.Intf.state ~proto ~ip ()
    in
    let error =
      match Exec.run_func rt t.func with
      | () -> None
      | exception Exec.Runtime_error e -> Some e
    in
    Ok
      {
        Intf.backend = Intf.Interp;
        discarded = rt.Rt.discarded;
        error;
        output = Pv.serialize proto;
        reserialized = Pv.serialize view;
        sent = rt.Rt.sent_messages;
        called = rt.Rt.called;
        ip = rt.Rt.ip;
        read_field = (fun field -> Pv.get view field);
        final_state =
          lazy
            (Hashtbl.fold (fun k v acc -> (k, v) :: acc) rt.Rt.state []
            |> List.sort compare);
        assigns_checksum = t.assigns_checksum;
      }
