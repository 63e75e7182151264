module Lf = Sage_logic.Lf

type stage = { label : string; family : Checks.family; remaining : int }

type trace = { base : int; stages : stage list; survivors : Lf.t list }

let filter_family checks family lfs =
  let applicable = List.filter (fun c -> c.Checks.family = family) checks in
  List.filter
    (fun lf -> not (List.exists (fun c -> c.Checks.violates lf) applicable))
    lfs

let winnow ?(extra_checks = []) lfs =
  let checks = Checks.all_filters @ extra_checks in
  let base = List.length lfs in
  (* "conditionals must be well-formed": merge the test/assignment
     readings of a condition before filtering *)
  let lfs = Lf.dedup (List.map Checks.normalize_condition lfs) in
  let stage_results = ref [] in
  let record label family lfs =
    stage_results :=
      { label; family; remaining = List.length lfs } :: !stage_results;
    lfs
  in
  (* Distributed variants are identified against the base candidate set:
     a reading that is the distribution of any base candidate is never
     selected ("SAGE always selects the non-distributive version"), even
     if its grouped counterpart is later removed by another check. *)
  let base_distributed =
    let survivors, _ = Checks.select_non_distributive lfs in
    List.filter (fun lf -> not (List.exists (Lf.equal lf) survivors)) lfs
  in
  let lfs = record "Type" Checks.Type_check (filter_family checks Checks.Type_check lfs) in
  let lfs = record "ArgOrd" Checks.Arg_order (filter_family checks Checks.Arg_order lfs) in
  let lfs =
    record "PredOrd" Checks.Pred_order (filter_family checks Checks.Pred_order lfs)
  in
  let lfs =
    let survivors =
      List.filter
        (fun lf -> not (List.exists (Lf.equal lf) base_distributed))
        lfs
    in
    let survivors = if survivors = [] then lfs else survivors in
    record "Distrib" Checks.Distributivity survivors
  in
  let lfs =
    let survivors, _merged = Checks.merge_isomorphic lfs in
    record "Assoc" Checks.Associativity survivors
  in
  { base; stages = List.rev !stage_results; survivors = lfs }

let apply_single_family family lfs =
  let lfs = Lf.dedup (List.map Checks.normalize_condition lfs) in
  let n = List.length lfs in
  match family with
  | Checks.Distributivity ->
    let _, removed = Checks.select_non_distributive lfs in
    removed
  | Checks.Associativity ->
    let _, merged = Checks.merge_isomorphic lfs in
    merged
  | f ->
    n - List.length (filter_family Checks.all_filters f lfs)

let is_ambiguous trace = List.length trace.survivors > 1

let stage_counts trace =
  ("Base", trace.base)
  :: List.map (fun s -> (s.label, s.remaining)) trace.stages
