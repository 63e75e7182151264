module Hd = Sage_rfc.Header_diagram

type t = {
  layout : Hd.t;
  values : (string, int64) Hashtbl.t;  (* keyed by C identifier *)
  mutable data : bytes;
}

let create layout =
  let values = Hashtbl.create 16 in
  Array.iter
    (fun (f : Hd.field) -> Hashtbl.replace values (Hd.c_identifier f.name) 0L)
    layout.Hd.fixed;
  { layout; values; data = Bytes.empty }

let struct_def v = v.layout

let find_field v name =
  let ident = Hd.c_identifier name in
  List.find_opt
    (fun (f : Hd.field) -> Hd.c_identifier f.name = ident)
    v.layout.Hd.fields

let get v name =
  match find_field v name with
  | Some f when not f.variable ->
    Ok (Option.value ~default:0L (Hashtbl.find_opt v.values (Hd.c_identifier f.name)))
  | Some _ -> Error (Printf.sprintf "field %S is variable-length" name)
  | None -> Error (Printf.sprintf "no field %S in struct %s" name v.layout.Hd.struct_name)

let set v name value =
  match find_field v name with
  | Some f when not f.variable ->
    Hashtbl.replace v.values (Hd.c_identifier f.name)
      (Int64.logand value (Hd.mask_of_bits f.bits));
    Ok ()
  | Some _ -> Error (Printf.sprintf "field %S is variable-length" name)
  | None -> Error (Printf.sprintf "no field %S in struct %s" name v.layout.Hd.struct_name)

let get_data v = v.data
let set_data v b = v.data <- b

let copy v =
  { layout = v.layout; values = Hashtbl.copy v.values; data = Bytes.copy v.data }

(* Big-endian bit packing. *)
let pack_fields v fields total_bits =
  let nbytes = (total_bits + 7) / 8 in
  let out = Bytes.make nbytes '\000' in
  let write_bits ~bit_off ~bits value =
    for i = 0 to bits - 1 do
      let bit =
        Int64.to_int (Int64.logand (Int64.shift_right_logical value (bits - 1 - i)) 1L)
      in
      if bit = 1 then begin
        let pos = bit_off + i in
        let byte = pos / 8 and in_byte = pos mod 8 in
        Bytes.set out byte
          (Char.chr (Char.code (Bytes.get out byte) lor (0x80 lsr in_byte)))
      end
    done
  in
  let base_off =
    match fields with [] -> 0 | (f : Hd.field) :: _ -> f.bit_offset
  in
  List.iter
    (fun (f : Hd.field) ->
      let value =
        Option.value ~default:0L (Hashtbl.find_opt v.values (Hd.c_identifier f.name))
      in
      write_bits ~bit_off:(f.bit_offset - base_off) ~bits:f.bits value)
    fields;
  out

let serialize v =
  let fields = Array.to_list v.layout.Hd.fixed in
  let total_bits = List.fold_left (fun acc (f : Hd.field) -> acc + f.bits) 0 fields in
  Bytes.cat (pack_fields v fields total_bits) v.data

let serialize_from v name =
  match find_field v name with
  | None -> Error (Printf.sprintf "no field %S" name)
  | Some start ->
    if start.Hd.bit_offset mod 8 <> 0 then
      Error (Printf.sprintf "field %S is not byte-aligned" name)
    else
      let fields =
        List.filter
          (fun (f : Hd.field) ->
            (not f.variable) && f.bit_offset >= start.Hd.bit_offset)
          v.layout.Hd.fields
      in
      let total_bits =
        List.fold_left (fun acc (f : Hd.field) -> acc + f.bits) 0 fields
      in
      Ok (Bytes.cat (pack_fields v fields total_bits) v.data)

let deserialize layout b =
  let nbytes = layout.Hd.fixed_bytes in
  if Bytes.length b < nbytes then
    Error
      (Printf.sprintf "short packet: %d bytes, struct %s needs %d"
         (Bytes.length b) layout.Hd.struct_name nbytes)
  else begin
    let v = create layout in
    let read_bits ~bit_off ~bits =
      let value = ref 0L in
      for i = 0 to bits - 1 do
        let pos = bit_off + i in
        let byte = pos / 8 and in_byte = pos mod 8 in
        let bit = (Char.code (Bytes.get b byte) lsr (7 - in_byte)) land 1 in
        value := Int64.logor (Int64.shift_left !value 1) (Int64.of_int bit)
      done;
      !value
    in
    Array.iter
      (fun (f : Hd.field) ->
        Hashtbl.replace v.values (Hd.c_identifier f.name)
          (read_bits ~bit_off:f.bit_offset ~bits:f.bits))
      layout.Hd.fixed;
    v.data <- Bytes.sub b nbytes (Bytes.length b - nbytes);
    Ok v
  end

let is_variable_field v name =
  match find_field v name with Some f -> f.Hd.variable | None -> false

let pp ppf v =
  Fmt.pf ppf "@[<v>%s:@," v.layout.Hd.struct_name;
  List.iter
    (fun (f : Hd.field) ->
      if not f.variable then
        Fmt.pf ppf "  %-24s %Ld@,"
          (Hd.c_identifier f.name)
          (Option.value ~default:0L (Hashtbl.find_opt v.values (Hd.c_identifier f.name))))
    v.layout.Hd.fields;
  if Bytes.length v.data > 0 then
    Fmt.pf ppf "  %-24s %d bytes@," "data" (Bytes.length v.data);
  Fmt.pf ppf "@]"
