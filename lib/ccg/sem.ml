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

(* atomic: parses run concurrently across domains (lib/sched), and a
   duplicated "fresh" name could silently capture a variable.  Fresh
   numbering never reaches a logical form (lambda-bound names are gone
   after beta reduction), so parallel runs stay deterministic. *)
let fresh_counter = Atomic.make 0

let fresh_name base =
  Printf.sprintf "%s_%d" base (Atomic.fetch_and_add fresh_counter 1 + 1)

let rec subst x v body =
  match body with
  | Var y -> if String.equal y x then v else body
  | Lam (y, b) ->
    if String.equal y x then body
    else if List.mem y (free_vars v) then begin
      let y' = fresh_name y in
      Lam (y', subst x v (rename y y' b))
    end
    else Lam (y, subst x v b)
  | App (f, a) -> App (subst x v f, subst x v a)
  | Lf _ -> body
  | Pred (n, args) -> Pred (n, List.map (subst x v) args)

let beta_reduce t =
  let budget = ref 10_000 in
  let rec go t =
    if !budget <= 0 then failwith "Sem.beta_reduce: reduction budget exceeded";
    decr budget;
    match t with
    | Var _ | Lf _ -> t
    | Lam (x, b) -> Lam (x, go b)
    | Pred (n, args) -> Pred (n, List.map go args)
    | App (f, a) ->
      (match go f with
       | Lam (x, b) -> go (subst x (go a) b)
       | f' -> App (f', go a))
  in
  go t

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
