(* The reference model for [Sage_ccg.Sem.beta_reduce]: the reducer the
   library used before hereditary substitution, kept as an oracle.
   [subst] copies every node of the body, and [beta_reduce] walks each
   redex's result once more after substituting into it.  Both reducers
   rename the same binders; only the numbering of fresh names differs. *)

open Sage_ccg.Sem

let rec rename old_name new_name t =
  match t with
  | Var x -> if String.equal x old_name then Var new_name else t
  | Lam (x, b) ->
    if String.equal x old_name then t else Lam (x, rename old_name new_name b)
  | App (f, a) -> App (rename old_name new_name f, rename old_name new_name a)
  | Lf _ -> t
  | Pred (n, args) -> Pred (n, List.map (rename old_name new_name) args)

(* the test runner is one domain, so a plain counter is enough *)
let fresh_counter = ref 0

let fresh_name base =
  incr fresh_counter;
  Printf.sprintf "%s_%d" base !fresh_counter

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
    if !budget <= 0 then failwith "Sem_model.beta_reduce: reduction budget exceeded";
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
