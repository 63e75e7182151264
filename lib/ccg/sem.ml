module Lform = Sage_logic.Lf

type t =
  | Var of string
  | Lam of string * t
  | App of t * t
  | Lf of Lform.t
  | Pred of string * t list

let var x = Var x
let lam x b = Lam (x, b)
let lam2 x y b = Lam (x, Lam (y, b))
let app f a = App (f, a)
let lf l = Lf l
let pred n args = Pred (n, args)
let term s = Lf (Lform.term s)
let num n = Lf (Lform.num n)

let rec equal a b =
  match a, b with
  | Var x, Var y -> String.equal x y
  | Lam (x, bx), Lam (y, by) ->
    (* alpha-equivalence via renaming y to x in by *)
    if String.equal x y then equal bx by
    else equal bx (rename y x by)
  | App (f1, a1), App (f2, a2) -> equal f1 f2 && equal a1 a2
  | Lf l1, Lf l2 -> Lform.equal l1 l2
  | Pred (n1, a1), Pred (n2, a2) ->
    String.equal n1 n2
    && List.length a1 = List.length a2
    && List.for_all2 equal a1 a2
  | (Var _ | Lam _ | App _ | Lf _ | Pred _), _ -> false

and rename old_name new_name t =
  match t with
  | Var x -> if String.equal x old_name then Var new_name else t
  | Lam (x, b) ->
    if String.equal x old_name then t else Lam (x, rename old_name new_name b)
  | App (f, a) -> App (rename old_name new_name f, rename old_name new_name a)
  | Lf _ -> t
  | Pred (n, args) -> Pred (n, List.map (rename old_name new_name) args)

let rec free_vars = function
  | Var x -> [ x ]
  | Lam (x, b) -> List.filter (fun v -> not (String.equal v x)) (free_vars b)
  | App (f, a) -> free_vars f @ free_vars a
  | Lf _ -> []
  | Pred (_, args) -> List.concat_map free_vars args

(* [List.mem y (free_vars t)] without building the list *)
let rec occurs_free y = function
  | Var x -> String.equal x y
  | Lam (x, b) -> (not (String.equal x y)) && occurs_free y b
  | App (f, a) -> occurs_free y f || occurs_free y a
  | Lf _ -> false
  | Pred (_, args) -> occurs_free_in y args

and occurs_free_in y = function
  | [] -> false
  | a :: rest -> occurs_free y a || occurs_free_in y rest

(* atomic: parses run concurrently across domains (lib/sched), and a
   duplicated "fresh" name could silently capture a variable.  Fresh
   numbering never reaches a logical form (lambda-bound names are gone
   after beta reduction), so parallel runs stay deterministic. *)
let fresh_counter = Atomic.make 0

let fresh_name base =
  Printf.sprintf "%s_%d" base (Atomic.fetch_and_add fresh_counter 1 + 1)

let budget = 10_000

type fuel = { mutable left : int }

let step fuel =
  if fuel.left <= 0 then failwith "Sem.beta_reduce: reduction budget exceeded";
  fuel.left <- fuel.left - 1

(* [norm] returns the normal form of [t], and [t] itself when that is
   [t]: children are normalised first, so an application meets two
   normal forms and is a redex only when its head is a [Lam]. *)
let rec norm fuel t =
  step fuel;
  match t with
  | Var _ | Lf _ -> t
  | Lam (x, b) ->
    let b' = norm fuel b in
    if b' == b then t else Lam (x, b')
  | Pred (n, args) ->
    let args' = norm_list fuel args in
    if args' == args then t else Pred (n, args')
  | App (f, a) ->
    let f' = norm fuel f in
    let a' = norm fuel a in
    (match f' with
     | Lam (x, b) -> hsubst fuel x a' b
     | _ -> if f' == f && a' == a then t else App (f', a'))

and norm_list fuel = function
  | [] -> []
  | a :: rest as l ->
    let a' = norm fuel a in
    let rest' = norm_list fuel rest in
    if a' == a && rest' == rest then l else a' :: rest'

(* Hereditary substitution: for normal [v] and [body], the normal form
   of [body\[x := v\]].  A substitution creates a redex only where [x]
   heads an application, so that is the one place it reduces, as it
   builds the application.  A binder is renamed when it occurs free in
   [v], whether or not [x] occurs below it. *)
and hsubst fuel x v body =
  step fuel;
  match body with
  | Var y -> if String.equal y x then v else body
  | Lf _ -> body
  | Lam (y, b) ->
    if String.equal y x then body
    else if occurs_free y v then begin
      let y' = fresh_name y in
      Lam (y', hsubst fuel x v (rename y y' b))
    end
    else
      let b' = hsubst fuel x v b in
      if b' == b then body else Lam (y, b')
  | Pred (n, args) ->
    let args' = hsubst_list fuel x v args in
    if args' == args then body else Pred (n, args')
  | App (f, a) ->
    let f' = hsubst fuel x v f in
    let a' = hsubst fuel x v a in
    (match f' with
     | Lam (y, b) -> hsubst fuel y a' b
     | _ -> if f' == f && a' == a then body else App (f', a'))

and hsubst_list fuel x v = function
  | [] -> []
  | a :: rest as l ->
    let a' = hsubst fuel x v a in
    let rest' = hsubst_list fuel x v rest in
    if a' == a && rest' == rest then l else a' :: rest'

(* The steps [norm] would have left after walking [t], or -1 if [t]
   holds a redex or the budget runs out first: a normal term comes back
   without allocating even the fuel. *)
let rec scan left t =
  if left <= 0 then -1
  else
    match t with
    | Var _ | Lf _ -> left - 1
    | Lam (_, b) -> scan (left - 1) b
    | App (Lam _, _) -> -1
    | App (f, a) ->
      let left = scan (left - 1) f in
      if left < 0 then left else scan left a
    | Pred (_, args) -> scan_list (left - 1) args

and scan_list left = function
  | [] -> left
  | a :: rest ->
    let left = scan left a in
    if left < 0 then left else scan_list left rest

let beta_reduce t = if scan budget t >= 0 then t else norm { left = budget } t

let rec to_lf t =
  match t with
  | Lf l -> Some l
  | Pred (n, args) ->
    let rec convert acc = function
      | [] -> Some (List.rev acc)
      | a :: rest ->
        (match to_lf a with
         | Some l -> convert (l :: acc) rest
         | None -> None)
    in
    (match convert [] args with
     | Some ls -> Some (Lform.pred n ls)
     | None -> None)
  | Var _ | Lam _ | App _ -> None

let rec pp ppf = function
  | Var x -> Fmt.pf ppf "%s" x
  | Lam (x, b) -> Fmt.pf ppf "\\%s.%a" x pp b
  | App (f, a) -> Fmt.pf ppf "(%a %a)" pp f pp a
  | Lf l -> Lform.pp ppf l
  | Pred (n, args) -> Fmt.pf ppf "%s(%a)" n Fmt.(list ~sep:comma pp) args

let to_string t = Fmt.str "%a" pp t
