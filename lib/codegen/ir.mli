(** The imperative intermediate representation emitted by the code
    generator (paper §5).

    Logical forms are functional; executable protocol code is imperative.
    The generator lowers each LF to statements over this IR, which has two
    consumers: the C pretty-printer ({!C_printer}, producing code like
    Table 4's [hdr->type = 3;]) and the interpreter ({!Sage_interp}),
    which executes the same IR against byte-accurate packet layouts so
    the generated protocol can be tested for interoperation. *)

type layer =
  | Proto        (** the protocol's own header (e.g. ICMP) *)
  | Ip           (** the IP header beneath (static-framework access) *)
  | State        (** protocol state variables (BFD/NTP sessions) *)

type expr =
  | Int of int
  | Str of string
      (** a string argument to a framework call (e.g. a field name the
          framework resolves at run time) *)
  | Field of layer * string
      (** read a header field / state variable of the {e outgoing} message
          (or the session) *)
  | Request_field of layer * string
      (** read a field of the {e received} message (receiver role) *)
  | Param of string
      (** an environment-supplied value (e.g. the redirect gateway
          address, the local clock) resolved by the static framework *)
  | Call of string * expr list
      (** invoke a static-framework function, e.g.
          [Call ("icmp_checksum", [...])] *)
  | Not of expr
  | Cmp of string * expr * expr  (** "eq" | "ne" | "gt" | "ge" | "lt" | "le" *)
  | And of expr * expr
  | Or of expr * expr

type lvalue =
  | Lfield of layer * string
  | Lvar of string

type stmt =
  | Assign of lvalue * expr
  | If of expr * stmt list * stmt list
  | Do of expr                     (** call for effect *)
  | Discard                        (** drop the packet, stop *)
  | Send of string                 (** emit the message under construction *)
  | Comment of string              (** non-actionable text carried along *)

type role = Sender | Receiver

type func = {
  fn_name : string;      (** unique: protocol, message, role (§5.2) *)
  protocol : string;
  message : string;
  role : role;
  body : stmt list;
}

val role_name : role -> string

val harness_params : string list
(** The {!Param} names every fuzz execution binds: those of
    [Sage_fuzz.Driver.env_of], plus the [payload_length] that
    [Driver.backend_env] adds.  SA007 proves a parameter read safe
    exactly when it names one of these. *)

val pp_expr : Format.formatter -> expr -> unit
val pp_lvalue : Format.formatter -> lvalue -> unit
val pp_stmt : Format.formatter -> stmt -> unit
val pp_func : Format.formatter -> func -> unit

val equal_stmt : stmt -> stmt -> bool

val fold_stmts : ('a -> stmt -> 'a) -> 'a -> stmt list -> 'a
(** Pre-order fold over every statement, recursing into both branches of
    each [If] (a statement is visited before its branch bodies).  The
    single traversal shared by the assembler and the static analyzer. *)

val iter_stmts : (stmt -> unit) -> stmt list -> unit
(** [fold_stmts] specialised to side effects. *)

val stmt_extent : stmt -> int
(** Size of the subtree a statement roots in the pre-order numbering: 1
    for leaves, [1 + extent then_ + extent else_] for an [If]. *)

val extent : stmt list -> int
(** Sum of [stmt_extent] over a statement list. *)

val numbered_stmts : stmt list -> (int * stmt) list
(** Every statement paired with its stable pre-order id (depth-first,
    [If] before its branches).  Purely shape-derived: the interpreter's
    coverage instrumentation and the fuzzer's coverage maps key counters
    by these ids, so they must agree across runs and processes. *)

val assigned_fields : stmt list -> (layer * string) list
(** All header fields written by the statements — including inside [If]
    branches — in first-write order, duplicates removed (used by the
    assembler's ordering pass, the static analyzer and tests). *)
