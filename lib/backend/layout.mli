(** Bit packing over a header diagram's fixed fields, for slot-array
    execution: a field's value lives in [slots.(field.slot)], with the
    geometry {!Sage_rfc.Header_diagram} resolved when the diagram was
    built.  Packing and unpacking are bit-for-bit compatible with
    {!Sage_interp.Packet_view.serialize}/[deserialize] (asserted by the
    backend differential test suite). *)

module Hd = Sage_rfc.Header_diagram

val read : Hd.t -> bytes -> int64 array -> unit
(** Decode the fixed fields into a slot array of length [nslots].  The
    caller must have checked [Bytes.length >= fixed_bytes]. *)

val pack : Hd.t -> int64 array -> data:bytes -> bytes
(** Serialize: fixed fields then the variable tail, like
    [Packet_view.serialize]. *)

val pack_fields :
  ?zero_slot:int -> fields:Hd.field array -> nbytes:int -> int64 array ->
  data:bytes -> bytes
(** Pack an arbitrary field subset with offsets taken relative to the
    first packed field — the [Packet_view.serialize_from] convention.
    [zero_slot] substitutes zero for one slot (checksum computation). *)

val pack_fields_into :
  ?zero_slot:int -> fields:Hd.field array -> nbytes:int -> int64 array ->
  data:bytes -> bytes -> int
(** [pack_fields] into a caller-owned scratch buffer, returning the
    packed length — for byte images that are summed and dropped, so the
    hot path skips the allocation.  The buffer must be at least
    [nbytes + length data] long; its packed prefix is zeroed first. *)

val write_bits : bytes -> bit_off:int -> bits:int -> int64 -> unit
val read_bits : bytes -> bit_off:int -> bits:int -> int64
