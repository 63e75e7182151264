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

val is_variable_field : t -> string -> bool
(** Whether the named field is the layout's variable-length trailing
    field (e.g. "Internet Header + 64 bits of Original Data Datagram") —
    reads and writes of it go through [get_data]/[set_data]. *)

val pp : Format.formatter -> t -> unit
