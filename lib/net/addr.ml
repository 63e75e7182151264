type t = int32

let of_int32 x = x
let to_int32 x = x

let of_octets a b c d =
  if List.exists (fun x -> x < 0 || x > 255) [ a; b; c; d ] then
    invalid_arg "Addr.of_octets";
  let ( << ) = Int32.shift_left and ( ||| ) = Int32.logor in
  (Int32.of_int a << 24) ||| (Int32.of_int b << 16) ||| (Int32.of_int c << 8)
  ||| Int32.of_int d

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
    (match List.map int_of_string_opt [ a; b; c; d ] with
     | [ Some a; Some b; Some c; Some d ]
       when List.for_all (fun x -> x >= 0 && x <= 255) [ a; b; c; d ] ->
       Ok (of_octets a b c d)
     | _ -> Error (Printf.sprintf "invalid IPv4 address %S" s))
  | _ -> Error (Printf.sprintf "invalid IPv4 address %S" s)

let of_string_exn s =
  match of_string s with Ok a -> a | Error e -> invalid_arg e

let octet x i = Int32.to_int (Int32.logand (Int32.shift_right_logical x (24 - (8 * i))) 0xffl)

let to_string x =
  Printf.sprintf "%d.%d.%d.%d" (octet x 0) (octet x 1) (octet x 2) (octet x 3)

let pp ppf x = Format.pp_print_string ppf (to_string x)
let equal = Int32.equal
let compare = Int32.compare
let broadcast = 0xffffffffl
let any = 0l
let is_multicast x = octet x 0 >= 224 && octet x 0 <= 239

type prefix = { base : t; bits : int }

let mask bits =
  if bits = 0 then 0l
  else Int32.shift_left (-1l) (32 - bits)

let prefix base bits =
  if bits < 0 || bits > 32 then invalid_arg "Addr.prefix";
  { base = Int32.logand base (mask bits); bits }

let prefix_of_string s =
  match String.index_opt s '/' with
  | None -> Error (Printf.sprintf "missing '/' in prefix %S" s)
  | Some i ->
    let addr_s = String.sub s 0 i in
    let bits_s = String.sub s (i + 1) (String.length s - i - 1) in
    (match of_string addr_s, int_of_string_opt bits_s with
     | Ok a, Some bits when bits >= 0 && bits <= 32 -> Ok (prefix a bits)
     | Ok _, _ -> Error (Printf.sprintf "bad prefix length in %S" s)
     | Error e, _ -> Error e)

let prefix_of_string_exn s =
  match prefix_of_string s with Ok p -> p | Error e -> invalid_arg e

let mem addr p = Int32.equal (Int32.logand addr (mask p.bits)) p.base
