module Ir = Sage_codegen.Ir
module Hd = Sage_rfc.Header_diagram

type ctx = {
  func : Ir.func;
  layout : Hd.t option;
  sentence_of_stmt : Ir.stmt -> string option;
}

let ctx ?layout ?(sentence_of_stmt = fun _ -> None) func =
  { func; layout; sentence_of_stmt }

(* ------------------------------------------------------------------ *)
(* Expression reads.                                                   *)
(* ------------------------------------------------------------------ *)

type reads = {
  fields : (Ir.layer * string) list;   (* Field reads (outgoing message) *)
  params : string list;                (* Param / local-variable reads *)
  has_call : bool;
      (* a framework call may read any field or variable at run time
         (e.g. recompute_checksum); treat it as a read barrier *)
}

let no_reads = { fields = []; params = []; has_call = false }

let rec expr_reads acc = function
  | Ir.Int _ | Ir.Str _ -> acc
  | Ir.Field (l, f) -> { acc with fields = (l, f) :: acc.fields }
  | Ir.Request_field _ -> acc
  | Ir.Param p -> { acc with params = p :: acc.params }
  | Ir.Call (_, args) ->
    List.fold_left expr_reads { acc with has_call = true } args
  | Ir.Not e -> expr_reads acc e
  | Ir.Cmp (_, a, b) | Ir.And (a, b) | Ir.Or (a, b) ->
    expr_reads (expr_reads acc a) b

let reads_of_expr e = expr_reads no_reads e

let reads_lvalue r = function
  | Ir.Lfield (l, f) -> r.has_call || List.mem (l, f) r.fields
  | Ir.Lvar v -> r.has_call || List.mem v r.params

(* Visit every expression of every statement (conditions included),
   recursing into If branches. *)
let iter_exprs f stmts =
  Ir.iter_stmts
    (function
      | Ir.Assign (_, e) | Ir.Do e | Ir.If (e, _, _) -> f e
      | Ir.Discard | Ir.Send _ | Ir.Comment _ -> ())
    stmts

(* ------------------------------------------------------------------ *)
(* Definite assignment.                                                *)
(* ------------------------------------------------------------------ *)

(* [flow ~on_expr assigned stmts] walks [stmts] in execution order
   tracking the set of lvalues assigned on {e every} path so far.
   [on_expr] sees each evaluated expression with the definite set at
   that point (the use-before-def hook).  Returns the definite set at
   the end and whether the statements diverge (every path ends in
   [Discard]).  After an [If], the definite set is the intersection of
   the branch outcomes; a diverging branch contributes nothing (its
   fields need not be assigned — the packet is dropped).  Statements
   after a top-level [Discard] are unreachable and not flowed (the
   dead-code check reports them separately). *)
let flow ?(on_expr = fun ~assigned:_ _ -> ()) assigned stmts =
  let add lv set = if List.mem lv set then set else lv :: set in
  let rec go assigned stmts =
    List.fold_left
      (fun (assigned, diverged) s ->
        if diverged then (assigned, diverged)
        else
          match s with
          | Ir.Assign (lv, e) ->
            on_expr ~assigned e;
            (add lv assigned, false)
          | Ir.Do e ->
            on_expr ~assigned e;
            (assigned, false)
          | Ir.If (c, then_, else_) ->
            on_expr ~assigned c;
            let at, dt = go assigned then_ in
            let ae, de = go assigned else_ in
            if dt && de then (assigned, true)
            else if dt then (ae, false)
            else if de then (at, false)
            else (List.filter (fun lv -> List.mem lv ae) at, false)
          | Ir.Discard -> (assigned, true)
          | Ir.Send _ | Ir.Comment _ -> (assigned, false))
      (assigned, false) stmts
  in
  go assigned stmts

let assigned_anywhere stmts =
  List.rev
    (Ir.fold_stmts
       (fun acc s ->
         match s with
         | Ir.Assign (lv, _) when not (List.mem lv acc) -> lv :: acc
         | _ -> acc)
       [] stmts)

(* ------------------------------------------------------------------ *)
(* Field-name helpers.                                                 *)
(* ------------------------------------------------------------------ *)

let is_checksum_field f =
  let f = String.lowercase_ascii (Hd.c_identifier f) in
  let needle = "checksum" in
  let n = String.length f and m = String.length needle in
  let rec at i = i + m <= n && (String.sub f i m = needle || at (i + 1)) in
  at 0

(* Does [text] mention [name] (a diagram label like "Sequence Number"
   or its identifier)?  Matching is case-insensitive with underscores
   treated as spaces, and the whole name must appear as a word
   sequence: one-letter flag fields ("A", "F") must not match every
   sentence containing that letter. *)
let mentions ~name text =
  let is_word c =
    (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
  in
  let norm s =
    String.lowercase_ascii
      (String.map (function '_' -> ' ' | c -> c) s)
  in
  let hay = norm text and needle = norm name in
  let n = String.length hay and m = String.length needle in
  (* one-letter names (BFD/TCP flag bits) would match English articles;
     no provenance is better than wrong provenance *)
  m > 1
  &&
  let boundary i = i < 0 || i >= n || not (is_word hay.[i]) in
  let rec at i =
    i + m <= n
    && ((String.sub hay i m = needle && boundary (i - 1) && boundary (i + m))
        || at (i + 1))
  in
  at 0
