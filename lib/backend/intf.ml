(* The backend-agnostic execution contract: what one run of a generated
   function over one candidate packet consumes (the environment) and
   yields (the outcome).  Both execution backends — the tree-walk
   interpreter and the closure compiler — implement [S]; everything
   downstream (fuzz driver, oracles, generated stack) speaks only these
   types, so backends are interchangeable and differentially testable. *)

module Hd = Sage_rfc.Header_diagram
module Ir = Sage_codegen.Ir
module Rt = Sage_interp.Runtime
module Coverage = Sage_interp.Coverage
module Trace = Sage_trace.Trace
module Addr = Sage_net.Addr

type choice = Interp | Compiled

let choice_name = function Interp -> "interp" | Compiled -> "compiled"
let other = function Interp -> Compiled | Compiled -> Interp

(* Initial IP header fields underneath the protocol message.  Immutable
   spec: each execution materializes its own mutable [Rt.ip_info], so a
   differential pair never shares (and cross-contaminates) one. *)
type ip_spec = { src : Addr.t; dst : Addr.t; ttl : int; tos : int }

let ip_info_of_spec (s : ip_spec) =
  Rt.ip_info ~ttl:s.ttl ~tos:s.tos ~src:s.src ~dst:s.dst ()

(* Everything outside the packet a generated function may read.  A
   request view (the received message, for receiver-shaped functions)
   is attached exactly when [request_ip] is provided. *)
type env = {
  params : (string * Rt.value) list;
  state : (string * int64) list;
  ip : ip_spec;
  request_ip : ip_spec option;
}

(* The observable result of one execution — self-contained: reading it
   after the backend has executed another packet is safe. *)
type outcome = {
  backend : choice;
  discarded : bool;
  error : string option;  (** runtime error, if the function raised *)
  output : bytes;  (** the outgoing message after execution *)
  reserialized : bytes;  (** the untouched parsed view, re-serialized *)
  sent : string list;  (** [Send] messages, most recent first *)
  called : string list;  (** framework procedures invoked *)
  ip : Rt.ip_info;  (** final outgoing IP fields *)
  read_field : string -> (int64, string) result;
      (** a fixed field of the parsed view, [Packet_view.get] semantics *)
  final_state : (string * int64) list Lazy.t;
      (** env-provided plus written state variables, sorted by name *)
  assigns_checksum : bool;
      (** the function writes the protocol checksum field *)
}

type exec_fn =
  ?coverage:Coverage.t ->
  ?trace:Trace.t ->
  env:env ->
  bytes ->
  (outcome, string) result
(** [Error _] is a structural reject — the packet is shorter than the
    layout's fixed header, nothing was executed. *)

(* The single Ir -> backend interface both implementations satisfy. *)
module type S = sig
  type prog

  val name : string

  val load : layout:Hd.t -> Ir.func -> prog
  (** Prepare [Ir.func] for repeated execution against [layout]. *)

  val exec : prog -> exec_fn
end

let assigns_checksum (f : Ir.func) =
  List.mem (Ir.Proto, "checksum") (Ir.assigned_fields f.Ir.body)
