(* Property tests for the CCG semantic layer (lib/ccg/sem.ml): random
   lambda terms exercise capture-avoiding substitution and beta
   reduction well beyond the tiny terms real derivations build.  The
   substitution properties run on the reference model (sem_model.ml),
   against which the library's reducer is then checked. *)

module Sem = Sage_ccg.Sem
module Q = Qcheck_lite

(* ------------------------------------------------------------------ *)
(* Random lambda terms.                                                *)
(* ------------------------------------------------------------------ *)

let var_pool = [ "x"; "y"; "z"; "w"; "v" ]
let pred_pool = [ "Is"; "Set"; "IfThen"; "Copy" ]
let atom_pool = [ "Echo"; "Reply"; "Checksum"; "Zero" ]

let gen_leaf r =
  match Q.int_below r 4 with
  | 0 | 1 -> Sem.var (Q.pick r var_pool)
  | 2 -> Sem.term (Q.pick r atom_pool)
  | _ -> Sem.num (Q.int_below r 16)

let rec gen_term depth r =
  if depth <= 0 then gen_leaf r
  else
    match Q.int_below r 8 with
    | 0 | 1 -> Sem.lam (Q.pick r var_pool) (gen_term (depth - 1) r)
    | 2 | 3 -> Sem.app (gen_term (depth - 1) r) (gen_term (depth - 1) r)
    | 4 ->
      Sem.pred (Q.pick r pred_pool)
        (List.init (1 + Q.int_below r 2) (fun _ -> gen_term (depth - 1) r))
    | _ -> gen_leaf r

(* shrink to immediate subterms first (the biggest simplification),
   then shrink within subterms *)
let rec shrink_term t =
  match t with
  | Sem.Var _ | Sem.Lf _ -> []
  | Sem.Lam (x, b) -> (b :: List.map (fun b' -> Sem.Lam (x, b')) (shrink_term b))
  | Sem.App (f, a) ->
    [ f; a ]
    @ List.map (fun f' -> Sem.App (f', a)) (shrink_term f)
    @ List.map (fun a' -> Sem.App (f, a')) (shrink_term a)
  | Sem.Pred (p, args) ->
    args
    @ List.concat
        (List.mapi
           (fun i a ->
             List.map
               (fun a' -> Sem.Pred (p, List.mapi (fun j x -> if i = j then a' else x) args))
               (shrink_term a))
           args)

let term_arb =
  Q.make ~shrink:shrink_term ~print:Sem.to_string (fun r ->
      gen_term (1 + Q.int_below r 4) r)

(* a term paired with a substitution target and replacement *)
let subst_case =
  Q.make
    ~print:(fun (x, v, t) ->
      Printf.sprintf "[%s := %s] %s" x (Sem.to_string v) (Sem.to_string t))
    (fun r ->
      let x = Q.pick r var_pool in
      let v = gen_term (Q.int_below r 3) r in
      let t = gen_term (1 + Q.int_below r 3) r in
      (x, v, t))

let sorted_fv t = List.sort_uniq compare (Sem.free_vars t)
let mem_fv x t = List.mem x (Sem.free_vars t)

(* ------------------------------------------------------------------ *)
(* Properties.                                                         *)
(* ------------------------------------------------------------------ *)

(* FV(t[x := v]) ⊆ (FV(t) \ {x}) ∪ FV(v): substitution never invents a
   free variable and never lets [v]'s free variables be captured by a
   binder in [t] (capture would *remove* them from the result). *)
let prop_subst_fv_bound (x, v, t) =
  let result_fv = sorted_fv (Sem_model.subst x v t) in
  let allowed = List.filter (fun y -> y <> x) (sorted_fv t) @ sorted_fv v in
  List.for_all (fun y -> List.mem y allowed) result_fv

(* the flip side of capture-avoidance: if [v]'s free variables occur in
   the result's allowed set and [x] is free in [t], they must survive *)
let prop_subst_preserves_v_fv (x, v, t) =
  if not (mem_fv x t) then true
  else
    let result_fv = sorted_fv (Sem_model.subst x v t) in
    List.for_all (fun y -> List.mem y result_fv) (sorted_fv v)

(* substituting for a variable that is not free is (alpha-)identity *)
let prop_subst_absent_is_identity (x, v, t) =
  if mem_fv x t then true else Sem.equal (Sem_model.subst x v t) t

(* x is gone after substitution (unless v itself mentions it) *)
let prop_subst_eliminates (x, v, t) =
  if mem_fv x v then true else not (mem_fv x (Sem_model.subst x v t))

(* beta_reduce is idempotent: reducing a normal form is the identity.
   The reducer is budgeted and raises [Failure] on pathological random
   terms — those cases are vacuously true (real derivations never hit
   the budget; test_ccg covers that separately). *)
let prop_beta_idempotent t =
  match Sem.beta_reduce t with
  | exception Failure _ -> true
  | nf -> Sem.equal (Sem.beta_reduce nf) nf

(* reduction never invents free variables *)
let prop_beta_fv_shrinks t =
  match Sem.beta_reduce t with
  | exception Failure _ -> true
  | nf ->
    let before = sorted_fv t in
    List.for_all (fun y -> List.mem y before) (sorted_fv nf)

(* alpha-equivalence: λx.b ≡ λz.b[x := z] for fresh z, both as terms
   (Sem.equal implements alpha-equivalence) and under application *)
let fresh_z = "zz_fresh"

let prop_alpha_rename_equal t =
  let x = "x" in
  let body = t in
  if mem_fv fresh_z body then true
  else
    let renamed = Sem.Lam (fresh_z, Sem_model.subst x (Sem.var fresh_z) body) in
    Sem.equal (Sem.Lam (x, body)) renamed

let prop_alpha_rename_apply t =
  let x = "x" in
  if mem_fv fresh_z t then true
  else
    let original = Sem.app (Sem.lam x t) (Sem.term "Arg") in
    let renamed =
      Sem.app (Sem.Lam (fresh_z, Sem_model.subst x (Sem.var fresh_z) t)) (Sem.term "Arg")
    in
    match (Sem.beta_reduce original, Sem.beta_reduce renamed) with
    | exception Failure _ -> true
    | nf1, nf2 -> Sem.equal nf1 nf2

(* The fresh names [<base>_<n>] a reducer invents, renamed by first
   occurrence in pre-order to [<root>'<renames>'<k>], so that two
   results compare by structure whatever their counters read. *)
let canonical_fresh t =
  let names = Hashtbl.create 8 in
  let rec root name renames =
    match String.rindex_opt name '_' with
    | Some i
      when i > 0
           && i < String.length name - 1
           && String.for_all
                (fun c -> c >= '0' && c <= '9')
                (String.sub name (i + 1) (String.length name - i - 1)) ->
      root (String.sub name 0 i) (renames + 1)
    | _ -> (name, renames)
  in
  let canon name =
    match root name 0 with
    | _, 0 -> name
    | base, renames ->
      (match Hashtbl.find_opt names name with
       | Some c -> c
       | None ->
         let c = Printf.sprintf "%s'%d'%d" base renames (Hashtbl.length names) in
         Hashtbl.add names name c;
         c)
  in
  let rec go = function
    | Sem.Var x -> Sem.Var (canon x)
    | Sem.Lam (x, b) ->
      let x = canon x in
      Sem.Lam (x, go b)
    | Sem.App (f, a) ->
      let f = go f in
      Sem.App (f, go a)
    | Sem.Lf _ as t -> t
    | Sem.Pred (n, args) -> Sem.Pred (n, List.map go args)
  in
  go t

(* the library's reducer agrees with the model whenever both finish:
   the same normal form, with the same binders renamed at the same
   places *)
let prop_beta_matches_model t =
  match (Sem.beta_reduce t, Sem_model.beta_reduce t) with
  | exception Failure _ -> true
  | nf, model -> Sem.equal nf model && canonical_fresh nf = canonical_fresh model

let deep_term_arb =
  Q.make ~shrink:shrink_term ~print:Sem.to_string (fun r ->
      gen_term (1 + Q.int_below r 11) r)

let suite =
  [
    Q.test "subst: FV(t[x:=v]) within (FV t \\ x) + FV v" subst_case prop_subst_fv_bound;
    Q.test "subst: v's free vars survive when x is free" subst_case
      prop_subst_preserves_v_fv;
    Q.test "subst: identity when x not free" subst_case prop_subst_absent_is_identity;
    Q.test "subst: eliminates x" subst_case prop_subst_eliminates;
    Q.test "beta_reduce: idempotent on normal forms" term_arb prop_beta_idempotent;
    Q.test "beta_reduce: no new free vars" term_arb prop_beta_fv_shrinks;
    Q.test "alpha: renamed binder is Sem.equal" term_arb prop_alpha_rename_equal;
    Q.test "alpha: renamed redex reduces identically" term_arb prop_alpha_rename_apply;
    Q.test ~count:2000 "beta_reduce: agrees with the reference model" deep_term_arb
      prop_beta_matches_model;
  ]
