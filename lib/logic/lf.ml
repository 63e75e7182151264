type t =
  | Term of string
  | Num of int
  | Str of string
  | Var of string
  | Pred of string * t list

let p_is = "@Is"
let p_and = "@And"
let p_or = "@Or"
let p_not = "@Not"
let p_if = "@If"
let p_of = "@Of"
let p_in = "@In"
let p_action = "@Action"
let p_compute = "@Compute"
let p_num = "@Num"
let p_cmp = "@Cmp"
let p_may = "@May"
let p_must = "@Must"
let p_adv_before = "@AdvBefore"
let p_adv_comment = "@AdvComment"
let p_seq = "@Seq"
let p_set = "@Set"
let p_send = "@Send"
let p_discard = "@Discard"
let p_select = "@Select"
let p_reverse = "@Reverse"
let p_update = "@Update"
let p_call = "@Call"
let p_field = "@Field"

let term s = Term s
let num n = Num n
let str s = Str s
let pred name args = Pred (name, args)
let is_ a b = Pred (p_is, [ a; b ])
let and_ a b = Pred (p_and, [ a; b ])
let or_ a b = Pred (p_or, [ a; b ])
let if_ c e = Pred (p_if, [ c; e ])
let of_ a b = Pred (p_of, [ a; b ])
let action name args = Pred (p_action, Str name :: args)

let rec equal a b =
  match a, b with
  | Term x, Term y | Str x, Str y | Var x, Var y -> String.equal x y
  | Num x, Num y -> Int.equal x y
  | Pred (n1, a1), Pred (n2, a2) ->
    String.equal n1 n2
    && List.length a1 = List.length a2
    && List.for_all2 equal a1 a2
  | (Term _ | Num _ | Str _ | Var _ | Pred _), _ -> false

let rec compare a b =
  let tag = function
    | Term _ -> 0 | Num _ -> 1 | Str _ -> 2 | Var _ -> 3 | Pred _ -> 4
  in
  match a, b with
  | Term x, Term y | Str x, Str y | Var x, Var y -> String.compare x y
  | Num x, Num y -> Int.compare x y
  | Pred (n1, a1), Pred (n2, a2) ->
    let c = String.compare n1 n2 in
    if c <> 0 then c else compare_list a1 a2
  | _ -> Int.compare (tag a) (tag b)

and compare_list l1 l2 =
  match l1, l2 with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys ->
    let c = compare x y in
    if c <> 0 then c else compare_list xs ys

let rec size = function
  | Term _ | Num _ | Str _ | Var _ -> 1
  | Pred (_, args) -> 1 + List.fold_left (fun acc a -> acc + size a) 0 args

let rec depth = function
  | Term _ | Num _ | Str _ | Var _ -> 1
  | Pred (_, args) ->
    1 + List.fold_left (fun acc a -> max acc (depth a)) 0 args

let head = function Pred (n, _) -> Some n | Term _ | Num _ | Str _ | Var _ -> None

let rec predicates = function
  | Term _ | Num _ | Str _ | Var _ -> []
  | Pred (n, args) -> n :: List.concat_map predicates args

let rec leaves = function
  | (Term _ | Num _ | Str _ | Var _) as leaf -> [ leaf ]
  | Pred (_, args) -> List.concat_map leaves args

(* pre-order, stopping at the first hit; no list and no closure per node *)
let rec exists p lf =
  p lf
  || (match lf with
      | Pred (_, args) -> exists_in p args
      | Term _ | Num _ | Str _ | Var _ -> false)

and exists_in p = function
  | [] -> false
  | a :: rest -> exists p a || exists_in p rest

let rec map f = function
  | (Term _ | Num _ | Str _ | Var _) as leaf -> f leaf
  | Pred (n, args) -> f (Pred (n, List.map (map f) args))

let mem_pred name lf =
  exists (function Pred (n, _) -> String.equal n name | _ -> false) lf

let escape_term s =
  if String.exists (fun c -> c = '\'' || c = '\\') s then begin
    let buf = Buffer.create (String.length s + 4) in
    String.iter
      (fun c ->
        if c = '\'' || c = '\\' then Buffer.add_char buf '\\';
        Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end
  else s

let rec pp ppf = function
  | Term s -> Fmt.pf ppf "'%s'" (escape_term s)
  | Num n -> Fmt.pf ppf "%d" n
  | Str s -> Fmt.pf ppf "%S" s
  | Var v -> Fmt.pf ppf "$%s" v
  | Pred (n, args) -> Fmt.pf ppf "%s(%a)" n Fmt.(list ~sep:(any ", ") pp) args

let to_string lf = Fmt.str "%a" pp lf

(* A small recursive-descent parser for the [pp] notation.  Used by tests
   and by the corpus annotation files, where expected LFs are written as
   strings. *)
let of_string input =
  let len = String.length input in
  let pos = ref 0 in
  let peek () = if !pos < len then Some input.[!pos] else None in
  let advance () = incr pos in
  let error msg = Error (Printf.sprintf "%s at offset %d in %S" msg !pos input) in
  let skip_ws () =
    while !pos < len && (input.[!pos] = ' ' || input.[!pos] = '\n' || input.[!pos] = '\t') do
      advance ()
    done
  in
  let is_word_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '-' || c = '.' || c = '@'
  in
  let read_while p =
    let start = !pos in
    while !pos < len && p input.[!pos] do advance () done;
    String.sub input start (!pos - start)
  in
  let read_quoted quote =
    advance ();
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> Error "unterminated quote"
      | Some c when c = quote -> advance (); Ok (Buffer.contents buf)
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some c -> Buffer.add_char buf c; advance (); go ()
         | None -> Error "dangling escape")
      | Some c -> Buffer.add_char buf c; advance (); go ()
    in
    go ()
  in
  let rec parse_form () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '\'' ->
      (match read_quoted '\'' with Ok s -> Ok (Term s) | Error e -> Error e)
    | Some '"' ->
      (match read_quoted '"' with Ok s -> Ok (Str s) | Error e -> Error e)
    | Some '$' ->
      advance ();
      let v = read_while is_word_char in
      if v = "" then error "empty variable name" else Ok (Var v)
    | Some c when c = '-' || (c >= '0' && c <= '9') ->
      let s = read_while (fun c -> c = '-' || (c >= '0' && c <= '9')) in
      (match int_of_string_opt s with
       | Some n -> Ok (Num n)
       | None -> error "malformed number")
    | Some c when is_word_char c ->
      let word = read_while is_word_char in
      skip_ws ();
      if peek () = Some '(' then begin
        advance ();
        let rec args acc =
          skip_ws ();
          match peek () with
          | Some ')' -> advance (); Ok (List.rev acc)
          | _ ->
            (match parse_form () with
             | Error e -> Error e
             | Ok a ->
               skip_ws ();
               (match peek () with
                | Some ',' -> advance (); args (a :: acc)
                | Some ')' -> advance (); Ok (List.rev (a :: acc))
                | _ -> error "expected ',' or ')'"))
        in
        match args [] with
        | Error e -> Error e
        | Ok arglist -> Ok (Pred (word, arglist))
      end
      else Ok (Term word)
    | Some c -> error (Printf.sprintf "unexpected character %C" c)
  in
  match parse_form () with
  | Error e -> Error e
  | Ok lf ->
    skip_ws ();
    if !pos = len then Ok lf else error "trailing garbage"

let canonicalize ~commutative ~associative lf =
  (* Flatten chains of the same associative predicate into one variadic
     node, then sort children of commutative predicates, so that trees that
     differ only in grouping/order compare equal. *)
  let rec go lf =
    match lf with
    | Term _ | Num _ | Str _ | Var _ -> lf
    | Pred (n, args) ->
      let args = List.map go args in
      let args =
        if associative n then
          List.concat_map
            (function
              | Pred (n', args') when String.equal n' n -> args'
              | other -> [ other ])
            args
        else args
      in
      let args = if commutative n then List.sort compare args else args in
      Pred (n, args)
  in
  go lf

let default_associative n =
  n = p_and || n = p_or || n = p_of || n = p_seq

let isomorphic ~commutative a b =
  let canon = canonicalize ~commutative ~associative:default_associative in
  equal (canon a) (canon b)

let dedup lfs =
  let rec go seen = function
    | [] -> []
    | lf :: rest ->
      if List.exists (equal lf) seen then go seen rest
      else lf :: go (lf :: seen) rest
  in
  go [] lfs
