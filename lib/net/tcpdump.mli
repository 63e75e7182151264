(** A tcpdump-style decoder and verifier.

    The paper's first end-to-end experiment (§6.2) stores each generated
    packet in a pcap file and checks that tcpdump "can read packet
    contents correctly without warnings or errors".  This module plays
    tcpdump's role: it decodes raw IP datagrams (IP → ICMP/IGMP/UDP →
    NTP/BFD), renders a one-line description per packet, and accumulates
    warnings for anything suspicious — truncation, bad checksums, bad
    lengths, unknown types.  It shares no code with the generator or the
    interpreter beyond the byte accessors. *)

type verdict = {
  description : string;    (** tcpdump-like one-liner *)
  warnings : string list;  (** empty = clean *)
}

val inspect_datagram : bytes -> verdict
(** Decode one raw IP datagram. *)

val inspect_capture : Pcap.record list -> verdict list

val inspect_capture_bytes : bytes -> (verdict list, string) result
(** Parse a serialized pcap capture and inspect every record. *)

val clean : verdict -> bool
(** No warnings. *)
