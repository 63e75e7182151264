(** NTP version 1 (RFC 1059, Appendix B) packet format, encapsulated in
    UDP port 123 (Appendix A) — the two appendices SAGE parses in §6.3. *)

type t = {
  leap_indicator : int;    (** 2 bits *)
  status : int;            (** 6 bits (RFC 1059 keeps version implicit) *)
  stratum : int;           (** 8 bits *)
  poll : int;              (** signed 8 bits: log2 of poll interval *)
  precision : int;         (** signed 8 bits *)
  sync_distance : int32;   (** estimated roundtrip delay, fixed point *)
  drift_rate : int32;      (** estimated drift rate, fixed point *)
  reference_clock_id : int32;
  reference_timestamp : int64;  (** 64-bit NTP timestamps *)
  originate_timestamp : int64;
  receive_timestamp : int64;
  transmit_timestamp : int64;
}

val ntp_port : int
(** 123 *)

val default : t
(** All-zero packet with sane leap/status. *)

val encode : t -> bytes
(** 48 bytes. *)

val decode : bytes -> (t, Decode_error.t) result
(** Fails with [Truncated] on fewer than 48 bytes; never raises. *)

val timestamp_of_seconds : float -> int64
(** Seconds since the NTP era (1900-01-01) to 32.32 fixed-point. *)

val seconds_of_timestamp : int64 -> float

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
