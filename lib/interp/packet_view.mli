(** A mutable view of one packet header, laid out exactly as the RFC's
    ASCII-art diagram specifies.

    The interpreter executes generated code against these views; when a
    function finishes, [serialize] bit-packs the fields (big-endian,
    network order) into wire bytes.  Because the layout comes from the
    diagram the pre-processor parsed — not from the hand-written reference
    codecs in [lib/net] — interoperation between generated code and the
    reference stack is a meaningful check. *)

type t

val create : Sage_rfc.Header_diagram.t -> t
(** All fixed fields zero, empty variable data. *)

val struct_def : t -> Sage_rfc.Header_diagram.t

val get : t -> string -> (int64, string) result
(** Read a fixed-width field by its C identifier (or diagram label). *)

val set : t -> string -> int64 -> (unit, string) result
(** Write a fixed-width field; the value is truncated to the field width. *)

val get_data : t -> bytes
(** The variable-length trailing field (empty if the layout has none). *)

val set_data : t -> bytes -> unit

val copy : t -> t

val serialize : t -> bytes
(** Fixed fields bit-packed in offset order, then the variable data. *)

val serialize_from : t -> string -> (bytes, string) result
(** [serialize_from v field] serializes starting at [field]'s bit offset —
    the checksum-range primitive ("the ICMP message starting with the
    ICMP Type").  Fails if the field is unknown or not byte-aligned. *)

val deserialize : Sage_rfc.Header_diagram.t -> bytes -> (t, string) result
(** Parse wire bytes into a view; trailing bytes beyond the fixed fields
    become the variable data. *)

val fixed_bytes : Sage_rfc.Header_diagram.t -> int
(** Size of the fixed part in bytes (total fixed bits / 8). *)

val fixed_fields :
  Sage_rfc.Header_diagram.t -> Sage_rfc.Header_diagram.field list
(** The fixed-width fields of the layout, in offset order — the set a
    generated function must account for, and the set the static analyzer
    compares definite assignments against. *)

val mask_of_bits : int -> int64
(** [mask_of_bits bits] is the largest value a [bits]-wide field can
    hold ([2^bits - 1], or all-ones for [bits >= 64]) — the same mask
    {!set} truncates writes with, reused by the overflow check. *)

val is_variable_field : t -> string -> bool
(** Whether the named field is the layout's variable-length trailing
    field (e.g. "Internet Header + 64 bits of Original Data Datagram") —
    reads and writes of it go through [get_data]/[set_data]. *)

val pp : Format.formatter -> t -> unit
