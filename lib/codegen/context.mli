(** Context dictionaries for code generation (paper §5.2, Table 4).

    A logical form alone cannot be compiled: in [@Is('type', 3)] the
    meaning of "type" depends on where the sentence occurred.  SAGE builds
    a {e dynamic} context per sentence from the document structure
    (protocol, message section, field, role) and consults a {e pre-defined
    static} context for cross-protocol and OS-level terms ("source
    address" is an IP header field; "one's complement sum" is a framework
    function).  Resolution searches the dynamic context first, then the
    static one. *)

type dynamic = {
  protocol : string;            (** e.g. "ICMP" *)
  message : string;             (** e.g. "Destination Unreachable Message" *)
  field : string option;        (** the field whose description this is *)
  role : Ir.role option;        (** sender/receiver when determined *)
  struct_def : Sage_rfc.Header_diagram.t option;
      (** the message's header layout, for resolving field terms *)
}

val dynamic :
  ?field:string ->
  ?role:Ir.role ->
  ?struct_def:Sage_rfc.Header_diagram.t ->
  protocol:string ->
  message:string ->
  unit ->
  dynamic

type resolution =
  | Proto_field of string       (** field of this protocol's header *)
  | Ip_field of string          (** field of the IP header (static framework) *)
  | State_var of string         (** a protocol state variable (BFD, NTP) *)
  | Framework_fn of string      (** a static-framework function *)
  | Env_param of string         (** an environment value (clock, gateway...) *)
  | Message of string           (** a message name *)
  | Value of int

val resolve : dynamic -> string -> resolution option
(** Resolve a (lower-cased) term: first against the message's own header
    fields, then the static dictionary.  Unresolvable terms make the
    sentence a code-generation failure, feeding the iterative discovery of
    non-actionable sentences (§5.2). *)

val strip_determiner : string -> string
(** Drop one leading ["the "], ["a "] or ["an "], when more follows. *)

val pp_resolution : Format.formatter -> resolution -> unit

val pp : Format.formatter -> dynamic -> unit
(** Renders like Table 4:
    [{"protocol": "ICMP", "message": "...", "field": "...", "role": ""}] *)
