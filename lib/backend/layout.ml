(* Bit packing over a header diagram's fixed fields.  Each field's
   value lives in [slots.(f.slot)]; the diagram resolved slots, offsets
   and the fixed size when it was built, so the packet hot path never
   walks field lists or normalizes names.

   Byte packing replicates [Packet_view.serialize]/[deserialize]
   exactly — big-endian, absolute bit offsets on decode, offsets
   relative to the first packed field on encode — with a fast path for
   byte-aligned fields and the same bit loop otherwise. *)

module Hd = Sage_rfc.Header_diagram

(* Write [bits] bits of [v], big-endian, at [bit_off] into [buf].
   Byte-aligned fields overwrite whole bytes; the unaligned path only
   ORs one-bits in, so it assumes a zeroed destination (all packing
   below starts from a fresh zero buffer).

   Fields of 32 bits or fewer — all but the 64-bit NTP timestamps —
   take a native-int path: without flambda every [Int64] intermediate
   is a heap box, and bit packing runs several times per fuzz
   execution. *)
let write_bits buf ~bit_off ~bits v =
  if bits <= 32 then begin
    (* only the low [bits] bits are consumed, so truncating the box to
       a 63-bit native int loses nothing *)
    let v = Int64.to_int v in
    if bit_off land 7 = 0 && bits land 7 = 0 then begin
      let base = bit_off lsr 3 and n = bits lsr 3 in
      for k = 0 to n - 1 do
        Bytes.set buf (base + k)
          (Char.chr ((v lsr ((n - 1 - k) * 8)) land 0xff))
      done
    end
    else
      for i = 0 to bits - 1 do
        if (v lsr (bits - 1 - i)) land 1 = 1 then begin
          let pos = bit_off + i in
          let byte = pos lsr 3 and in_byte = pos land 7 in
          Bytes.set buf byte
            (Char.chr (Char.code (Bytes.get buf byte) lor (0x80 lsr in_byte)))
        end
      done
  end
  else if bit_off land 7 = 0 && bits land 7 = 0 then begin
    let base = bit_off lsr 3 and n = bits lsr 3 in
    for k = 0 to n - 1 do
      Bytes.set buf (base + k)
        (Char.chr
           (Int64.to_int
              (Int64.logand
                 (Int64.shift_right_logical v ((n - 1 - k) * 8))
                 0xffL)))
    done
  end
  else
    for i = 0 to bits - 1 do
      let bit =
        Int64.to_int
          (Int64.logand (Int64.shift_right_logical v (bits - 1 - i)) 1L)
      in
      if bit = 1 then begin
        let pos = bit_off + i in
        let byte = pos lsr 3 and in_byte = pos land 7 in
        Bytes.set buf byte
          (Char.chr (Char.code (Bytes.get buf byte) lor (0x80 lsr in_byte)))
      end
    done

let read_bits b ~bit_off ~bits =
  if bits <= 32 then begin
    (* native accumulation, one box for the result *)
    let v = ref 0 in
    if bit_off land 7 = 0 && bits land 7 = 0 then begin
      let base = bit_off lsr 3 and n = bits lsr 3 in
      for k = 0 to n - 1 do
        v := (!v lsl 8) lor Char.code (Bytes.get b (base + k))
      done
    end
    else
      for i = 0 to bits - 1 do
        let pos = bit_off + i in
        let byte = pos lsr 3 and in_byte = pos land 7 in
        v := (!v lsl 1) lor ((Char.code (Bytes.get b byte) lsr (7 - in_byte)) land 1)
      done;
    Int64.of_int !v
  end
  else if bit_off land 7 = 0 && bits land 7 = 0 then begin
    let base = bit_off lsr 3 and n = bits lsr 3 in
    let v = ref 0L in
    for k = 0 to n - 1 do
      v :=
        Int64.logor (Int64.shift_left !v 8)
          (Int64.of_int (Char.code (Bytes.get b (base + k))))
    done;
    !v
  end
  else begin
    let v = ref 0L in
    for i = 0 to bits - 1 do
      let pos = bit_off + i in
      let byte = pos lsr 3 and in_byte = pos land 7 in
      let bit = (Char.code (Bytes.get b byte) lsr (7 - in_byte)) land 1 in
      v := Int64.logor (Int64.shift_left !v 1) (Int64.of_int bit)
    done;
    !v
  end

(* Decode the fixed fields of [b] into [slots] (length [nslots]).  The
   caller has checked [Bytes.length b >= fixed_bytes].  Later fields
   sharing a slot overwrite earlier ones, like Hashtbl.replace did. *)
let read (layout : Hd.t) b slots =
  let fields = layout.Hd.fixed in
  for i = 0 to Array.length fields - 1 do
    let f = Array.unsafe_get fields i in
    slots.(f.Hd.slot) <- read_bits b ~bit_off:f.Hd.bit_offset ~bits:f.Hd.bits
  done

(* Pack a field subset: offsets relative to the first packed field, the
   same convention as [Packet_view.pack_fields].  [zero_slot] substitutes
   zero for one slot (the checksum-computation primitives). *)
let pack_fields ?(zero_slot = -1) ~(fields : Hd.field array) ~nbytes slots
    ~data =
  let base_off =
    match Array.length fields with 0 -> 0 | _ -> fields.(0).Hd.bit_offset
  in
  let dlen = Bytes.length data in
  let out = Bytes.make (nbytes + dlen) '\000' in
  for i = 0 to Array.length fields - 1 do
    let f = Array.unsafe_get fields i in
    let v = if f.Hd.slot = zero_slot then 0L else slots.(f.Hd.slot) in
    write_bits out ~bit_off:(f.Hd.bit_offset - base_off) ~bits:f.Hd.bits v
  done;
  if dlen > 0 then Bytes.blit data 0 out nbytes dlen;
  out

let pack (layout : Hd.t) slots ~data =
  pack_fields ~fields:layout.Hd.fixed ~nbytes:layout.Hd.fixed_bytes slots ~data

(* [pack_fields] into a caller-owned scratch buffer — for byte images
   that are consumed immediately (checksum sums) and never retained, so
   the hot path skips the allocation.  Zeroes the packed prefix first
   (the unaligned bit path only ORs one-bits in) and returns the packed
   length; [buf] must be at least [nbytes + length data] long. *)
let pack_fields_into ?(zero_slot = -1) ~(fields : Hd.field array) ~nbytes
    slots ~data buf =
  let base_off =
    match Array.length fields with 0 -> 0 | _ -> fields.(0).Hd.bit_offset
  in
  let dlen = Bytes.length data in
  let len = nbytes + dlen in
  Bytes.fill buf 0 len '\000';
  for i = 0 to Array.length fields - 1 do
    let f = Array.unsafe_get fields i in
    let v = if f.Hd.slot = zero_slot then 0L else slots.(f.Hd.slot) in
    write_bits buf ~bit_off:(f.Hd.bit_offset - base_off) ~bits:f.Hd.bits v
  done;
  if dlen > 0 then Bytes.blit data 0 buf nbytes dlen;
  len
