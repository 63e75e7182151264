type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

(* ---- writing ---- *)

let hex = "0123456789abcdef"

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when c < ' ' ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf hex.[Char.code c lsr 4];
        Buffer.add_char buf hex.[Char.code c land 15]
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Integers below 2^53 are exact in a float and print as written; any
   other finite number needs 17 significant digits to read back equal. *)
let add_number buf f =
  if Float.is_integer f && Float.abs f < 0x1p53 then
    Buffer.add_string buf (string_of_int (int_of_float f))
  else if Float.is_finite f then Printf.bprintf buf "%.17g" f
  else invalid_arg "Json.add_value: non-finite number"

let add_seq buf first last add items =
  Buffer.add_char buf first;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf ", ";
      add x)
    items;
  Buffer.add_char buf last

let rec add_value buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num f -> add_number buf f
  | Str s -> add_string buf s
  | Arr items -> add_seq buf '[' ']' (add_value buf) items
  | Obj members -> add_seq buf '{' '}' (add_member buf) members

and add_member buf (k, v) =
  add_string buf k;
  Buffer.add_string buf ": ";
  add_value buf v

let to_string v =
  let buf = Buffer.create 64 in
  add_value buf v;
  Buffer.contents buf

let add_envelope buf header name items =
  Buffer.add_string buf "{\n";
  List.iter
    (fun m ->
      Buffer.add_string buf "  ";
      add_member buf m;
      Buffer.add_string buf ",\n")
    header;
  Buffer.add_string buf "  ";
  add_string buf name;
  Buffer.add_string buf ": [";
  List.iteri
    (fun i v ->
      Buffer.add_string buf (if i = 0 then "\n    " else ",\n    ");
      add_value buf v)
    items;
  if items <> [] then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "]\n}\n"

(* ---- reading ---- *)

exception Bad of int * string

let is_digit c = c >= '0' && c <= '9'

let hex_digit = function
  | '0' .. '9' as c -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' as c -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' as c -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let unescape = function
  | ('"' | '\\' | '/') as c -> Some c
  | 'b' -> Some '\b'
  | 'f' -> Some '\012'
  | 'n' -> Some '\n'
  | 'r' -> Some '\r'
  | 't' -> Some '\t'
  | _ -> None

let is_high u = u >= 0xD800 && u <= 0xDBFF
let is_low u = u >= 0xDC00 && u <= 0xDFFF

let parse src =
  let n = String.length src in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %C, found %C" c c')
    | None -> fail (Printf.sprintf "expected %C, found end of input" c)
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let keyword kw v =
    String.iter expect kw;
    v
  in
  let rec digits () =
    match peek () with
    | Some c when is_digit c ->
      advance ();
      digits ()
    | _ -> ()
  in
  let digits1 what =
    match peek () with Some c when is_digit c -> digits () | _ -> fail what
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    if peek () = Some '0' then advance () else digits1 "bad number";
    if peek () = Some '.' then begin
      advance ();
      digits1 "digit required after decimal point"
    end;
    if peek () = Some 'e' || peek () = Some 'E' then begin
      advance ();
      if peek () = Some '+' || peek () = Some '-' then advance ();
      digits1 "digit required in exponent"
    end;
    Num (float_of_string (String.sub src start (!pos - start)))
  in
  (* the value of the four hex digits at [i], if there are four *)
  let hex4 i =
    let rec go i k acc =
      if k = 0 then Some acc
      else if i >= n then None
      else
        match hex_digit src.[i] with
        | Some d -> go (i + 1) (k - 1) ((acc lsl 4) lor d)
        | None -> None
    in
    go i 4 0
  in
  (* Just past "\u": one code point, reading the second half of a
     surrogate pair too.  A lone surrogate is U+FFFD. *)
  let code_point () =
    let u = match hex4 !pos with Some u -> u | None -> fail "bad \\u escape" in
    pos := !pos + 4;
    let next_escape =
      if !pos + 1 < n && src.[!pos] = '\\' && src.[!pos + 1] = 'u' then
        hex4 (!pos + 2)
      else None
    in
    match next_escape with
    | Some lo when is_high u && is_low lo ->
      pos := !pos + 6;
      0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
    | _ -> if is_high u || is_low u then 0xFFFD else u
  in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match Option.bind (peek ()) unescape with
         | Some c ->
           advance ();
           Buffer.add_char buf c
         | None when peek () = Some 'u' ->
           advance ();
           Buffer.add_utf_8_uchar buf (Uchar.of_int (code_point ()))
         | None -> fail "bad escape");
        go ()
      | Some c when c < ' ' -> fail "raw control character in string"
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  (* on an opening bracket: [item]s separated by commas up to [close] *)
  let items close item =
    advance ();
    skip_ws ();
    if peek () = Some close then begin
      advance ();
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          go acc
        | Some c when c = close ->
          advance ();
          List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> Obj (items '}' member)
    | Some '[' -> Arr (items ']' value)
    | Some '"' -> Str (string ())
    | Some 't' -> keyword "true" (Bool true)
    | Some 'f' -> keyword "false" (Bool false)
    | Some 'n' -> keyword "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
    | None -> fail "unexpected end of input"
  and member () =
    skip_ws ();
    let k = string () in
    skip_ws ();
    expect ':';
    (k, value ())
  in
  match
    let v = value () in
    skip_ws ();
    if !pos < n then fail "trailing characters after the value";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) -> Error (Printf.sprintf "%s at offset %d" msg at)
