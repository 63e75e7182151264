(* Grammar-based packet generation: the recovered message layout (the
   header diagram the pre-processor parsed) is exactly the grammar a
   protocol fuzzer needs.  Generated packets are structurally valid —
   every fixed field present, field values boundary-biased — and the
   mutators are layout-aware: truncation lands on field byte boundaries
   and checksum corruption targets the recovered checksum field. *)

module Hd = Sage_rfc.Header_diagram
module L = Sage_backend.Layout

(* Boundary-biased field value: zero, one, all-ones, the sign bit and
   its neighbourhood are each over-represented relative to uniform —
   the values RFC prose tends to single out ("must be zero", "nonzero",
   the highest code point). *)
let field_value rng ~bits =
  let ones = Hd.mask_of_bits bits in
  match Rng.int_below rng 8 with
  | 0 -> 0L
  | 1 -> 1L
  | 2 -> ones
  | 3 -> Int64.sub ones 1L
  | 4 when bits >= 2 -> Int64.shift_left 1L (bits - 1)
  | _ -> Int64.logand (Rng.next_int64 rng) ones

(* [hdr], sometimes followed by a random variable-length tail *)
let with_tail rng hdr =
  match Rng.int_below rng 4 with
  | 0 | 1 -> hdr
  | _ ->
    let n = Rng.range rng 1 24 and base = Bytes.length hdr in
    let b = Bytes.extend hdr 0 n in
    (* four tail bytes per generator advance, not one per byte *)
    let i = ref 0 in
    while !i < n do
      let w = Rng.bits32 rng in
      let stop = min n (!i + 4) in
      let k = ref 0 in
      while !i < stop do
        Bytes.unsafe_set b (base + !i)
          (Char.unsafe_chr ((w lsr (!k * 8)) land 0xff));
        incr i;
        incr k
      done
    done;
    b

(* A structurally valid packet for the layout: fixed header fully
   present, boundary-biased values, sometimes a variable-length tail.
   Values are drawn in layout-field order and packed big-endian exactly
   as [L.pack] packs a slot array, so a given RNG state yields
   byte-identical packets (asserted by the backend test suite). *)
let packet rng (layout : Hd.t) =
  let fixed = layout.Hd.fixed in
  if layout.Hd.nslots = Array.length fixed then begin
    (* a slot per field (every shipped layout): pack each value as it
       is drawn, with no slot array to allocate per packet *)
    let hdr = Bytes.make layout.Hd.fixed_bytes '\000' in
    let base = if Array.length fixed = 0 then 0 else fixed.(0).Hd.bit_offset in
    for i = 0 to Array.length fixed - 1 do
      let f = fixed.(i) in
      L.write_bits hdr ~bit_off:(f.Hd.bit_offset - base) ~bits:f.Hd.bits
        (field_value rng ~bits:f.Hd.bits)
    done;
    with_tail rng hdr
  end
  else begin
    (* fields sharing a slot all carry its last draw *)
    let slots = Array.make layout.Hd.nslots 0L in
    Array.iter
      (fun (f : Hd.field) -> slots.(f.Hd.slot) <- field_value rng ~bits:f.Hd.bits)
      fixed;
    with_tail rng (L.pack layout slots ~data:Bytes.empty)
  end

(* A fixed field starting on a byte boundary: an interesting truncation
   point. *)
let boundary (f : Hd.field) = f.Hd.bit_offset mod 8 = 0

let field_boundaries (layout : Hd.t) =
  List.filter_map
    (fun f -> if boundary f then Some (f.Hd.bit_offset / 8) else None)
    (Array.to_list layout.Hd.fixed)

(* The boundaries below byte [len]: counted, and the [k]th of them —
   a truncation picks one without building the list. *)
let cut_below len (f : Hd.field) = boundary f && f.Hd.bit_offset / 8 < len

let rec count_cuts (fixed : Hd.field array) len i =
  if i = Array.length fixed then 0
  else Bool.to_int (cut_below len fixed.(i)) + count_cuts fixed len (i + 1)

let rec nth_cut (fixed : Hd.field array) len i k =
  let f = fixed.(i) in
  if not (cut_below len f) then nth_cut fixed len (i + 1) k
  else if k = 0 then f.Hd.bit_offset / 8
  else nth_cut fixed len (i + 1) (k - 1)

let checksum_byte (layout : Hd.t) =
  Array.find_map
    (fun (f : Hd.field) ->
      if String.equal f.Hd.ident "checksum" then Some (f.Hd.bit_offset / 8)
      else None)
    layout.Hd.fixed

(* One seeded mutation of [b].  All mutants of a non-empty input are
   non-empty except field-boundary truncation at offset 0. *)
let mutate rng (layout : Hd.t) b =
  let b = Bytes.copy b in
  let len = Bytes.length b in
  if len = 0 then packet rng layout
  else
    match Rng.int_below rng 6 with
    | 0 ->
      (* single bit flip *)
      let i = Rng.int_below rng len in
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int_below rng 8)));
      b
    | 1 ->
      (* rewrite one byte to a boundary value *)
      let i = Rng.int_below rng len in
      Bytes.set b i (Char.chr (Rng.pick rng [ 0x00; 0x01; 0x7f; 0x80; 0xfe; 0xff ]));
      b
    | 2 ->
      (* field-boundary truncation *)
      let fixed = layout.Hd.fixed in
      let cut =
        match count_cuts fixed len 0 with
        | 0 -> Rng.int_below rng len
        | n -> nth_cut fixed len 0 (Rng.int_below rng n)
      in
      Bytes.sub b 0 cut
    | 3 ->
      (* checksum corruption: step the recovered checksum field (or the
         last byte when the layout has none) so near-valid packets with
         a just-wrong checksum are common *)
      let i =
        match checksum_byte layout with
        | Some o when o + 1 < len -> o + 1
        | _ -> len - 1
      in
      Bytes.set b i (Char.chr ((Char.code (Bytes.get b i) + 1) land 0xff));
      b
    | 4 ->
      (* append a small tail *)
      Bytes.cat b (Bytes.init (Rng.range rng 1 8) (fun _ -> Char.chr (Rng.int_below rng 256)))
    | _ ->
      (* splice a freshly generated packet's prefix over this one *)
      let fresh = packet rng layout in
      let n = min (Bytes.length fresh) len in
      let k = if n = 0 then 0 else Rng.int_below rng (n + 1) in
      Bytes.blit fresh 0 b 0 k;
      b

(* Greedy shrinking candidates: strictly simpler packets, best first —
   the same halving/minus-one/zeroing ladder as qcheck_lite's bytes. *)
let shrink_candidates b =
  let n = Bytes.length b in
  if n = 0 then []
  else
    let cands =
      (if n >= 2 then [ Bytes.sub b 0 (n / 2) ] else [])
      @ [ Bytes.sub b 0 (n - 1) ]
      @ (if Bytes.exists (fun c -> c <> '\000') b then [ Bytes.make n '\000' ] else [])
      @ (let zeroed = ref [] in
         for i = n - 1 downto 0 do
           if Bytes.get b i <> '\000' then begin
             let c = Bytes.copy b in
             Bytes.set c i '\000';
             zeroed := c :: !zeroed
           end
         done;
         !zeroed)
    in
    List.filter (fun c -> c <> b) cands
