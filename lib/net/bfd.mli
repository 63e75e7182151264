(** BFD (RFC 5880): the Mandatory Section of a control packet (§4.1) and
    the protocol state (§6.8.1) whose management sentences SAGE parses in
    §6.4. *)

type session_state = AdminDown | Down | Init | Up

val state_code : session_state -> int
val state_of_code : int -> (session_state, string) result
val state_name : session_state -> string

type packet = {
  version : int;               (** 1 *)
  diag : int;                  (** 5 bits *)
  state : session_state;       (** "Sta", 2 bits *)
  poll : bool;                 (** P *)
  final : bool;                (** F *)
  control_plane_independent : bool;  (** C *)
  authentication_present : bool;     (** A *)
  demand : bool;               (** D *)
  multipoint : bool;           (** M, must be zero *)
  detect_mult : int;
  my_discriminator : int32;
  your_discriminator : int32;
  desired_min_tx : int32;      (** microseconds *)
  required_min_rx : int32;
  required_min_echo_rx : int32;
}

val default_packet : packet

val encode : packet -> bytes
(** 24 bytes (no authentication section). *)

val decode : bytes -> (packet, Decode_error.t) result
(** Enforces RFC 5880 §6.8.6 reception validation that is purely
    syntactic: version, length, Multipoint bit.  Fails with a typed
    {!Decode_error.t}; never raises. *)

(** Protocol state of one session (RFC 5880 §6.8.1 state variables, the
    "state management dictionary" of §6.4). *)
type session = {
  mutable session_state : session_state;          (** bfd.SessionState *)
  mutable remote_session_state : session_state;   (** bfd.RemoteSessionState *)
  mutable local_discr : int32;                    (** bfd.LocalDiscr *)
  mutable remote_discr : int32;                   (** bfd.RemoteDiscr *)
  mutable local_diag : int;                       (** bfd.LocalDiag *)
  mutable desired_min_tx : int32;                 (** bfd.DesiredMinTxInterval *)
  mutable required_min_rx : int32;                (** bfd.RequiredMinRxInterval *)
  mutable remote_min_rx : int32;                  (** bfd.RemoteMinRxInterval *)
  mutable demand_mode : bool;                     (** bfd.DemandMode *)
  mutable remote_demand_mode : bool;              (** bfd.RemoteDemandMode *)
  mutable detect_mult : int;                      (** bfd.DetectMult *)
  mutable auth_type : int;                        (** bfd.AuthType *)
  mutable periodic_tx_enabled : bool;
      (** whether the periodic transmission of control packets is active
          (ceased when Demand mode is active on both ends, §6.8.6) *)
}

val new_session : local_discr:int32 -> session

val get_var : session -> string -> (int32, string) result
(** Read a state variable by its RFC name (e.g. "bfd.SessionState");
    booleans read as 0/1, states as their 2-bit code. *)

val set_var : session -> string -> int32 -> (unit, string) result

val receive_control_packet : session -> packet -> [ `Ok | `Discard of string ]
(** The hand-written reference implementation of the §6.8.6 reception
    rules, used to cross-check SAGE-generated state-management code. *)

val pp_packet : Format.formatter -> packet -> unit
val equal_packet : packet -> packet -> bool
