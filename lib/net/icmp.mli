(** ICMP messages (RFC 792): the eight message classes the paper's
    evaluation covers (§6.1 footnote 5), with byte-accurate encode/decode.
    This hand-written codec is the {e independent} reference used to verify
    SAGE-generated code: it was written against the RFC (and Linux
    behaviour), not against the generator. *)

type message =
  | Echo of echo                    (** type 8 *)
  | Echo_reply of echo              (** type 0 *)
  | Destination_unreachable of error_payload  (** type 3 *)
  | Source_quench of error_payload  (** type 4 *)
  | Redirect of redirect            (** type 5 *)
  | Time_exceeded of error_payload  (** type 11 *)
  | Parameter_problem of param_problem (** type 12 *)
  | Timestamp of timestamp          (** type 13 *)
  | Timestamp_reply of timestamp    (** type 14 *)
  | Information_request of info     (** type 15 *)
  | Information_reply of info       (** type 16 *)

and echo = {
  echo_code : int;        (** 0 *)
  identifier : int;
  sequence : int;
  payload : bytes;
}

and error_payload = {
  err_code : int;
  original : bytes;       (** internet header + first 64 bits of original data *)
}

and redirect = {
  red_code : int;
  gateway : Addr.t;
  red_original : bytes;
}

and param_problem = {
  pp_code : int;
  pointer : int;          (** octet where the error was detected *)
  pp_original : bytes;
}

and timestamp = {
  ts_code : int;
  ts_identifier : int;
  ts_sequence : int;
  originate : int32;      (** ms since midnight UT *)
  receive : int32;
  transmit : int32;
}

and info = {
  info_code : int;
  info_identifier : int;
  info_sequence : int;
}

val type_of : message -> int
val code_of : message -> int

val type_echo_reply : int
val type_destination_unreachable : int
val type_source_quench : int
val type_redirect : int
val type_echo : int
val type_time_exceeded : int
val type_parameter_problem : int
val type_timestamp : int
val type_information_request : int

val encode : message -> bytes
(** Serialize with the ICMP checksum computed over the entire ICMP message
    (type through end of data) — the interpretation that interoperates
    with Linux (§2.1). *)

val decode : bytes -> (message, Decode_error.t) result
(** Parse an ICMP message.  Fails (with a typed {!Decode_error.t}, never
    an exception) on truncation or unknown type; does not reject a bad
    checksum (use [checksum_ok] or [decode_verified]). *)

val decode_verified : bytes -> (message, Decode_error.t) result
(** [decode] plus checksum verification over the whole message; a
    non-verifying message fails with [Bad_checksum "ICMP"]. *)

val checksum_ok : bytes -> bool

val original_datagram_excerpt : bytes -> bytes
(** [original_datagram_excerpt dgram] is the internet header plus the
    first 64 bits (8 bytes) of the datagram's data — the excerpt error
    messages quote (RFC 792's sentence {e B}). *)

val pp : Format.formatter -> message -> unit
val equal : message -> message -> bool
