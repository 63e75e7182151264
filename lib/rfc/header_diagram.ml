type field = {
  name : string;
  ident : string;
  bits : int;
  bit_offset : int;
  variable : bool;
  slot : int;
}

type t = {
  struct_name : string;
  fields : field list;
  fixed : field array;
  nslots : int;
  fixed_bytes : int;
}

let is_separator line =
  let line = String.trim line in
  String.length line > 0
  && String.for_all (fun c -> c = '+' || c = '-' || c = ' ') line
  && String.contains line '+'

let is_content line =
  let line = String.trim line in
  (* a closed row "| ... |" or an open-ended trailing-data row "| Data ..." *)
  String.length line > 1 && line.[0] = '|'

let is_ruler line =
  let line = String.trim line in
  String.length line > 0
  && String.for_all (fun c -> (c >= '0' && c <= '9') || c = ' ') line

(* Split a content row "|  Type  |  Code  |  Checksum  |" into
   (label, width_in_bits, open_ended) cells.  Bit width = character span
   / 2, because the art gives each bit two columns ("-+"). *)
let parse_row line =
  let line = String.trim line in
  let n = String.length line in
  let cells = ref [] in
  let start = ref 1 in
  for i = 1 to n - 1 do
    if line.[i] = '|' then begin
      let content = String.sub line !start (i - !start) in
      let span = i - !start + 1 in
      cells := (String.trim content, span / 2, false) :: !cells;
      start := i + 1
    end
  done;
  (* an open-ended trailing cell ("|  Data ...") has no fixed width *)
  if !start < n then begin
    let content = String.trim (String.sub line !start (n - !start)) in
    if content <> "" then cells := (content, 0, true) :: !cells
  end;
  List.rev !cells

let looks_variable label =
  let low = String.lowercase_ascii label in
  let contains needle =
    let ln = String.length needle and ll = String.length low in
    let rec go i = i + ln <= ll && (String.sub low i ln = needle || go (i + 1)) in
    go 0
  in
  contains "data" || contains "..." || contains "etc"

let c_identifier label =
  let b = Buffer.create (String.length label) in
  String.iter
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then Buffer.add_char b c
      else if c >= 'A' && c <= 'Z' then Buffer.add_char b (Char.lowercase_ascii c)
      else if c = ' ' || c = '-' || c = '_' || c = '.' then Buffer.add_char b '_'
      else ())
    label;
  (* collapse runs of underscores and trim *)
  let s = Buffer.contents b in
  let out = Buffer.create (String.length s) in
  let prev_underscore = ref true in
  String.iter
    (fun c ->
      if c = '_' then begin
        if not !prev_underscore then Buffer.add_char out '_';
        prev_underscore := true
      end
      else begin
        Buffer.add_char out c;
        prev_underscore := false
      end)
    s;
  let s = Buffer.contents out in
  let s =
    if String.length s > 0 && s.[String.length s - 1] = '_' then
      String.sub s 0 (String.length s - 1)
    else s
  in
  if s = "" then "field" else s

let rec identifier_from s i =
  i = String.length s
  || (match s.[i] with
      | 'a' .. 'z' | '0' .. '9' -> true
      | '_' -> i > 0 && i < String.length s - 1 && s.[i - 1] <> '_'
      | _ -> false)
     && identifier_from s (i + 1)

let is_c_identifier s = s <> "" && identifier_from s 0

let mask_of_bits bits =
  if bits >= 64 then -1L else Int64.sub (Int64.shift_left 1L bits) 1L

(* Slot sharing follows identifiers, the key the interpreter's packet
   view stores values under: two fixed fields whose labels normalise
   alike are one storage cell, and a read sees the last write. *)
let v ~name cells =
  let slots = Hashtbl.create 16 in
  let fields, _ =
    List.fold_left
      (fun (acc, bit_offset) (label, bits, variable) ->
        let ident = c_identifier label in
        let slot =
          if variable then -1
          else
            match Hashtbl.find_opt slots ident with
            | Some s -> s
            | None ->
              let s = Hashtbl.length slots in
              Hashtbl.add slots ident s;
              s
        in
        ( { name = label; ident; bits; bit_offset; variable; slot } :: acc,
          bit_offset + bits ))
      ([], 0) cells
  in
  let fields = List.rev fields in
  let fixed = Array.of_list (List.filter (fun f -> not f.variable) fields) in
  let fixed_bits = Array.fold_left (fun acc f -> acc + f.bits) 0 fixed in
  {
    struct_name = name;
    fields;
    fixed;
    nslots = Hashtbl.length slots;
    fixed_bytes = (fixed_bits + 7) / 8;
  }

let parse ~name text =
  let lines = String.split_on_char '\n' text in
  let rows =
    List.filter_map
      (fun line ->
        if is_content line && not (is_ruler line) then Some (parse_row line)
        else None)
      lines
  in
  if rows = [] then Error "no diagram content rows found"
  else begin
    (* merge consecutive cells that repeat the same label (64-bit fields
       drawn across two rows, or continuation rows labeled "+"), newest
       first *)
    let merged =
      List.fold_left
        (fun acc (label, bits, open_ended) ->
          match acc with
          | (prev, prev_bits, prev_open) :: rest
            when String.equal (String.lowercase_ascii prev)
                   (String.lowercase_ascii label)
                 && not (looks_variable prev) ->
            (prev, prev_bits + bits, prev_open) :: rest
          | _ -> (label, bits, open_ended) :: acc)
        [] (List.concat rows)
    in
    (* from the last cell back: a data-like cell is the variable tail
       only when it is open-ended or nothing fixed-width follows it *)
    let cells, _ =
      List.fold_left
        (fun (cells, fixed_follows) (label, bits, open_ended) ->
          let variable =
            looks_variable label && (open_ended || not fixed_follows)
          in
          ((label, bits, variable) :: cells, fixed_follows || not variable))
        ([], false) merged
    in
    if cells = [] then Error "diagram rows contained no cells"
    else Ok (v ~name cells)
  end

let total_bits t = Array.fold_left (fun acc f -> acc + f.bits) 0 t.fixed

let find_ident t query =
  let ident = c_identifier query in
  List.find_opt (fun f -> String.equal f.ident ident) t.fields

let c_type_of_bits bits =
  if bits <= 8 then "uint8_t"
  else if bits <= 16 then "uint16_t"
  else if bits <= 32 then "uint32_t"
  else "uint64_t"

let to_c_struct t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "struct %s {\n" (c_identifier t.struct_name));
  List.iter
    (fun f ->
      if f.variable then
        Buffer.add_string buf (Printf.sprintf "    uint8_t %s[];\n" f.ident)
      else if f.bits mod 8 = 0 && (f.bits <= 32 || f.bits = 64) then
        Buffer.add_string buf
          (Printf.sprintf "    %s %s;\n" (c_type_of_bits f.bits) f.ident)
      else
        Buffer.add_string buf
          (Printf.sprintf "    %s %s : %d;\n" (c_type_of_bits f.bits) f.ident f.bits))
    t.fields;
  Buffer.add_string buf "};";
  Buffer.contents buf

let pp ppf t =
  Fmt.pf ppf "@[<v>struct %s:@," t.struct_name;
  List.iter
    (fun f ->
      Fmt.pf ppf "  %-28s %s@," f.name
        (if f.variable then "variable" else Printf.sprintf "%d bits @ %d" f.bits f.bit_offset))
    t.fields;
  Fmt.pf ppf "@]"
