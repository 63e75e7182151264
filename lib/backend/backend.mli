(** Execution backends for generated IR.

    One [Ir.func -> exec] interface with two implementations: the
    tree-walk interpreter ({!Interp_backend}) and a closure compiler
    ({!Compiled}) that resolves fields to slot indices and builtins to
    precomputed byte ranges at load time.  The compiled backend is the
    production executor (the generated stack, [sage fuzz]); the
    interpreter is the semantic reference it is checked against.
    Downstream code — fuzz driver, oracles, generated stack, CLI —
    speaks only the types here, so the backends are interchangeable,
    and {!diff} makes every execution differentially testable. *)

module Hd = Sage_rfc.Header_diagram
module Ir = Sage_codegen.Ir
module Rt = Sage_interp.Runtime
module Coverage = Sage_interp.Coverage
module Trace = Sage_trace.Trace
module Addr = Sage_net.Addr

(** Which implementation runs the IR. *)
type choice = Intf.choice = Interp | Compiled

val choice_name : choice -> string
val other : choice -> choice

(** Initial IP header fields underneath the protocol message. *)
type ip_spec = Intf.ip_spec = {
  src : Addr.t;
  dst : Addr.t;
  ttl : int;
  tos : int;
}

val ip_info_of_spec : ip_spec -> Rt.ip_info

(** Everything outside the packet a generated function may read.  A
    request view (the received message) is attached exactly when
    [request_ip] is provided. *)
type env = Intf.env = {
  params : (string * Rt.value) list;
  state : (string * int64) list;
  ip : ip_spec;
  request_ip : ip_spec option;
}

(** The observable result of one execution — self-contained: reading it
    after the backend has executed another packet is safe. *)
type outcome = Intf.outcome = {
  backend : choice;
  discarded : bool;
  error : string option;
  output : bytes;
  reserialized : bytes;
  sent : string list;
  called : string list;
  ip : Rt.ip_info;
  read_field : string -> (int64, string) result;
  final_state : (string * int64) list Lazy.t;
  assigns_checksum : bool;
}

type exec_fn =
  ?coverage:Coverage.t ->
  ?trace:Trace.t ->
  env:env ->
  bytes ->
  (outcome, string) result
(** [Error _] is a structural reject — the packet is shorter than the
    layout's fixed header, nothing was executed. *)

module type S = Intf.S

val assigns_checksum : Ir.func -> bool

(** A function prepared for execution on one backend. *)
type loaded = {
  choice : choice;
  func : Ir.func;
  layout : Hd.t;
  assigns_checksum : bool;
  exec : exec_fn;
}

val load : choice -> layout:Hd.t -> Ir.func -> loaded

val diff : outcome -> outcome -> string option
(** First observable difference between two outcomes of the same
    function on the same packet — discard decision, error, output
    bytes, reserialized view, sends, calls, final IP header, final
    state — or [None] if the backends agree. *)
