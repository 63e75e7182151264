(** ASCII-art packet header diagrams (paper §3, "extracting structural and
    non-textual elements").  RFCs draw headers as

    {v
     0                   1                   2                   3
     0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |     Type      |     Code      |          Checksum             |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    v}

    where each bit occupies two character columns.  The parser recovers
    field names and bit widths and emits a C struct for code generation. *)

type field = private {
  name : string;        (** as written, e.g. "Type" *)
  ident : string;
      (** [c_identifier name], e.g. "type": the key every per-field
          lookup compares against *)
  bits : int;           (** width in bits; rows are 32 bits wide *)
  bit_offset : int;     (** offset from the start of the header, in bits *)
  variable : bool;      (** a trailing data field of unspecified length *)
  slot : int;
      (** a fixed field's storage slot: fields with equal [ident]s share
          one, and slots are numbered [0 .. nslots - 1] in order of first
          occurrence; [-1] for a variable field *)
}

type t = private {
  struct_name : string;
  fields : field list;  (** every field, in layout order *)
  fixed : field array;  (** the fixed-width fields, in layout order *)
  nslots : int;  (** distinct slots among [fixed] *)
  fixed_bytes : int;  (** the bits of [fixed], rounded up to whole bytes *)
}
(** The header geometry every consumer reads — the interpreter's packet
    view, the compiled backend's slot arrays, the fuzzer's generator and
    the static analyzer — resolved once, when the diagram is built. *)

val v : name:string -> (string * int * bool) list -> t
(** [v ~name cells] lays out the cells [(label, bits, variable)] back to
    back from bit 0 and resolves each field's identifier and slot, the
    fixed fields and the fixed size.  The only way to build a {!t}. *)

val mask_of_bits : int -> int64
(** The largest value a [bits]-wide field holds: [2^bits - 1], or all
    ones for [bits >= 64]. *)

val parse : name:string -> string -> (t, string) result
(** Parse the diagram text (the art lines, possibly with the bit-ruler
    lines above).  Fields spanning several 32-bit rows (e.g. 64-bit
    timestamps drawn across two rows with the same label, or a full-row
    label repeated) are merged when consecutive rows carry the same
    label.  A cell whose label mentions "data", "..." or "etc" parses as
    a variable-length field when it is open-ended (["| Data ..."]) or no
    fixed-width cell follows it. *)

val total_bits : t -> int
(** Sum of fixed-width field bits. *)

val find_ident : t -> string -> field option
(** The first field whose [ident] is [c_identifier query]; the query is
    normalised once, not once per field. *)

val to_c_struct : t -> string
(** Render as a C struct with [uint8_t]/[uint16_t]/[uint32_t]/[uint64_t]
    members and bitfields for sub-byte members, the way SAGE's code
    generator declares packet headers. *)

val c_identifier : string -> string
(** Normalize a field label into a C identifier ("Sequence Number" →
    ["sequence_number"]). *)

val is_c_identifier : string -> bool
(** Whether [c_identifier s = s], checked without allocating: [s] is
    non-empty lower-case letters, digits and single inner underscores. *)

val pp : Format.formatter -> t -> unit

(** {1 Line classifiers} (shared with the document pre-processor) *)

val is_separator : string -> bool
(** A [+-+-+] row. *)

val is_content : string -> bool
(** A [| ... |] row. *)

val is_ruler : string -> bool
(** A bit-number ruler row (digits and spaces only). *)
