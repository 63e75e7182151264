(** Pcap capture files (the libpcap format), used by the §6.2 packet-
    capture experiment: generated packets are stored in a pcap buffer and
    then verified with the {!Tcpdump} decoder. *)

type capture

type record = {
  ts_sec : int32;
  ts_usec : int32;
  incl_len : int;  (** captured bytes *)
  orig_len : int;  (** original wire length *)
  data : bytes;
}

val create : ?snaplen:int -> unit -> capture
(** An in-memory capture with linktype RAW (101, bare IP datagrams). *)

val add_packet : capture -> ?ts_sec:int32 -> ?ts_usec:int32 -> bytes -> unit
(** Append one packet record.  Packets longer than the snap length are
    truncated in the capture (with the original length recorded), exactly
    as a real capture would — this is how tcpdump-style truncation
    warnings arise. *)

val packet_count : capture -> int

val to_bytes : capture -> bytes
(** Serialize: global header then records. *)

val write_file : capture -> string -> unit

val of_bytes : bytes -> (record list, string) result
(** Parse a capture back into records. *)

val magic : int32
(** 0xa1b2c3d4 *)
