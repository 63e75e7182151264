type atom = N | NP | S | PP

type t = Atom of atom | Fwd of t * t | Bwd of t * t | Conj of string

let n = Atom N
let np = Atom NP
let s = Atom S
let fwd x y = Fwd (x, y)

let rec equal a b =
  match a, b with
  | Atom x, Atom y -> x = y
  | Fwd (x1, y1), Fwd (x2, y2) | Bwd (x1, y1), Bwd (x2, y2) ->
    equal x1 x2 && equal y1 y2
  | Conj c1, Conj c2 -> String.equal c1 c2
  | (Atom _ | Fwd _ | Bwd _ | Conj _), _ -> false

let rec compare a b =
  let tag = function Atom _ -> 0 | Fwd _ -> 1 | Bwd _ -> 2 | Conj _ -> 3 in
  match a, b with
  | Atom x, Atom y -> Stdlib.compare x y
  | Fwd (x1, y1), Fwd (x2, y2) | Bwd (x1, y1), Bwd (x2, y2) ->
    let c = compare x1 x2 in
    if c <> 0 then c else compare y1 y2
  | Conj c1, Conj c2 -> String.compare c1 c2
  | _ -> Stdlib.compare (tag a) (tag b)

let rec arity = function
  | Atom _ | Conj _ -> 0
  | Fwd (x, _) | Bwd (x, _) -> 1 + arity x

let atom_to_string = function N -> "N" | NP -> "NP" | S -> "S" | PP -> "PP"

let rec pp ppf = function
  | Atom a -> Fmt.pf ppf "%s" (atom_to_string a)
  | Fwd (x, y) -> Fmt.pf ppf "%a/%a" pp_arg x pp_arg y
  | Bwd (x, y) -> Fmt.pf ppf "%a\\%a" pp_arg x pp_arg y
  | Conj c -> Fmt.pf ppf "conj[%s]" c

and pp_arg ppf c =
  match c with
  | Atom _ | Conj _ -> pp ppf c
  | Fwd _ | Bwd _ -> Fmt.pf ppf "(%a)" pp c

let to_string c = Fmt.str "%a" pp c

let of_string input =
  let len = String.length input in
  let pos = ref 0 in
  let peek () = if !pos < len then Some input.[!pos] else None in
  let error msg = Error (Printf.sprintf "%s at %d in %S" msg !pos input) in
  let rec parse_cat () =
    match parse_atom_or_paren () with
    | Error e -> Error e
    | Ok left -> parse_slashes left
  and parse_slashes left =
    match peek () with
    | Some '/' ->
      incr pos;
      (match parse_atom_or_paren () with
       | Error e -> Error e
       | Ok right -> parse_slashes (Fwd (left, right)))
    | Some '\\' ->
      incr pos;
      (match parse_atom_or_paren () with
       | Error e -> Error e
       | Ok right -> parse_slashes (Bwd (left, right)))
    | _ -> Ok left
  and parse_atom_or_paren () =
    match peek () with
    | Some '(' ->
      incr pos;
      (match parse_cat () with
       | Error e -> Error e
       | Ok c ->
         if peek () = Some ')' then begin incr pos; Ok c end
         else error "expected ')'")
    | Some c when c = 'N' || c = 'S' || c = 'P' ->
      if !pos + 1 < len && input.[!pos] = 'N' && input.[!pos + 1] = 'P' then begin
        pos := !pos + 2; Ok (Atom NP)
      end
      else if !pos + 1 < len && input.[!pos] = 'P' && input.[!pos + 1] = 'P' then begin
        pos := !pos + 2; Ok (Atom PP)
      end
      else if input.[!pos] = 'N' then begin incr pos; Ok (Atom N) end
      else if input.[!pos] = 'S' then begin incr pos; Ok (Atom S) end
      else error "unknown atom"
    | _ -> error "expected category"
  in
  match parse_cat () with
  | Error e -> Error e
  | Ok c -> if !pos = len then Ok c else error "trailing input"
