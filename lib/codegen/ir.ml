type layer = Proto | Ip | State

type expr =
  | Int of int
  | Str of string
  | Field of layer * string
  | Request_field of layer * string
  | Param of string
  | Call of string * expr list
  | Not of expr
  | Cmp of string * expr * expr
  | And of expr * expr
  | Or of expr * expr

type lvalue = Lfield of layer * string | Lvar of string

type stmt =
  | Assign of lvalue * expr
  | If of expr * stmt list * stmt list
  | Do of expr
  | Discard
  | Send of string
  | Comment of string

type role = Sender | Receiver

type func = {
  fn_name : string;
  protocol : string;
  message : string;
  role : role;
  body : stmt list;
}

let role_name = function Sender -> "sender" | Receiver -> "receiver"

let harness_params =
  [
    "current_time"; "error_pointer"; "gateway_address"; "all_hosts_group";
    "host_group"; "interface_address"; "remote_system"; "event_ManualStart";
    "event_ManualStop"; "original_datagram"; "original_datagram_data";
    "internet_header"; "payload_length";
  ]

let layer_prefix = function Proto -> "hdr" | Ip -> "ip" | State -> "state"

let rec pp_expr ppf = function
  | Int n -> Fmt.pf ppf "%d" n
  | Str s -> Fmt.pf ppf "%S" s
  | Field (l, f) -> Fmt.pf ppf "%s->%s" (layer_prefix l) f
  | Request_field (l, f) -> Fmt.pf ppf "req_%s->%s" (layer_prefix l) f
  | Param p -> Fmt.pf ppf "env.%s" p
  | Call (f, args) -> Fmt.pf ppf "%s(%a)" f Fmt.(list ~sep:(any ", ") pp_expr) args
  | Not e -> Fmt.pf ppf "!(%a)" pp_expr e
  | Cmp (op, a, b) ->
    let sym =
      match op with
      | "eq" -> "==" | "ne" -> "!=" | "gt" -> ">" | "ge" -> ">="
      | "lt" -> "<" | "le" -> "<=" | other -> other
    in
    Fmt.pf ppf "%a %s %a" pp_cmp_operand a sym pp_cmp_operand b
  | And (a, b) -> Fmt.pf ppf "(%a && %a)" pp_expr a pp_expr b
  | Or (a, b) -> Fmt.pf ppf "(%a || %a)" pp_expr a pp_expr b

(* A comparison nested inside a comparison must keep its own parentheses:
   C's left-associative relational chain would regroup [a == (b == c)]
   printed bare as [(a == b) == c].  [And]/[Or]/[Not] always print their
   own parentheses, so only [Cmp] operands need the guard. *)
and pp_cmp_operand ppf e =
  match e with
  | Cmp _ -> Fmt.pf ppf "(%a)" pp_expr e
  | _ -> pp_expr ppf e

let pp_lvalue ppf = function
  | Lfield (l, f) -> Fmt.pf ppf "%s->%s" (layer_prefix l) f
  | Lvar v -> Fmt.pf ppf "%s" v

let rec pp_stmt ppf = function
  | Assign (lv, e) -> Fmt.pf ppf "%a = %a;" pp_lvalue lv pp_expr e
  | If (c, then_, []) ->
    Fmt.pf ppf "@[<v 4>if (%a) {@,%a@]@,}" pp_expr c
      Fmt.(list ~sep:cut pp_stmt) then_
  | If (c, then_, else_) ->
    Fmt.pf ppf "@[<v 4>if (%a) {@,%a@]@,@[<v 4>} else {@,%a@]@,}" pp_expr c
      Fmt.(list ~sep:cut pp_stmt) then_
      Fmt.(list ~sep:cut pp_stmt) else_
  | Do e -> Fmt.pf ppf "%a;" pp_expr e
  | Discard -> Fmt.pf ppf "return DISCARD;"
  | Send msg -> Fmt.pf ppf "send_packet(); /* %s */" msg
  | Comment c -> Fmt.pf ppf "/* %s */" c

let pp_func ppf f =
  Fmt.pf ppf "@[<v 4>void %s(void) {@,%a@]@,}" f.fn_name
    Fmt.(list ~sep:cut pp_stmt) f.body

let rec equal_expr a b =
  match a, b with
  | Int x, Int y -> x = y
  | Str x, Str y -> String.equal x y
  | Field (l1, f1), Field (l2, f2) | Request_field (l1, f1), Request_field (l2, f2)
    -> l1 = l2 && String.equal f1 f2
  | Param p, Param q -> String.equal p q
  | Call (f, xs), Call (g, ys) ->
    String.equal f g && List.length xs = List.length ys
    && List.for_all2 equal_expr xs ys
  | Not x, Not y -> equal_expr x y
  | Cmp (o1, a1, b1), Cmp (o2, a2, b2) ->
    String.equal o1 o2 && equal_expr a1 a2 && equal_expr b1 b2
  | And (a1, b1), And (a2, b2) | Or (a1, b1), Or (a2, b2) ->
    equal_expr a1 a2 && equal_expr b1 b2
  | _ -> false

let rec equal_stmt a b =
  match a, b with
  | Assign (l1, e1), Assign (l2, e2) -> l1 = l2 && equal_expr e1 e2
  | If (c1, t1, e1), If (c2, t2, e2) ->
    equal_expr c1 c2
    && List.length t1 = List.length t2 && List.for_all2 equal_stmt t1 t2
    && List.length e1 = List.length e2 && List.for_all2 equal_stmt e1 e2
  | Do e1, Do e2 -> equal_expr e1 e2
  | Discard, Discard -> true
  | Send m1, Send m2 -> String.equal m1 m2
  | Comment c1, Comment c2 -> String.equal c1 c2
  | _ -> false

let rec fold_stmts f acc stmts = List.fold_left (fold_stmt f) acc stmts

and fold_stmt f acc s =
  let acc = f acc s in
  match s with
  | If (_, then_, else_) -> fold_stmts f (fold_stmts f acc then_) else_
  | Assign _ | Do _ | Discard | Send _ | Comment _ -> acc

let iter_stmts f stmts = fold_stmts (fun () s -> f s) () stmts

(* Stable pre-order statement ids: a statement's id is its pre-order
   position in the function body, and [stmt_extent] is the size of the
   subtree it roots, so a statement at id [base] is followed by its
   then-branch at [base + 1] and its else-branch at
   [base + 1 + extent then_].  The numbering depends only on the IR
   shape, never on execution, which makes coverage counters keyed by
   (function, id) comparable across runs. *)
let rec stmt_extent = function
  | If (_, then_, else_) -> 1 + extent then_ + extent else_
  | Assign _ | Do _ | Discard | Send _ | Comment _ -> 1

and extent stmts = List.fold_left (fun acc s -> acc + stmt_extent s) 0 stmts

(* Every statement paired with its pre-order id, depth-first. *)
let numbered_stmts stmts =
  let rec go base acc = function
    | [] -> (base, acc)
    | s :: rest ->
      let acc = (base, s) :: acc in
      let acc =
        match s with
        | If (_, then_, else_) ->
          let _, acc = go (base + 1) acc then_ in
          let _, acc = go (base + 1 + extent then_) acc else_ in
          acc
        | Assign _ | Do _ | Discard | Send _ | Comment _ -> acc
      in
      go (base + stmt_extent s) acc rest
  in
  List.rev (snd (go 0 [] stmts))

let assigned_fields stmts =
  List.rev
    (fold_stmts
       (fun seen s ->
         match s with
         | Assign (Lfield (l, f), _) when not (List.mem (l, f) seen) ->
           (l, f) :: seen
         | _ -> seen)
       [] stmts)
