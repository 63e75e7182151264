(* SA010: checksum-window soundness.  The fused checksum primitives
   compute over a *window* of the outgoing message: [message_from(f)]
   from [f]'s byte offset to the end, [whole_message]/[recompute_*]
   over everything.  A header field the function writes at an offset
   *before* the window start is silently excluded from the checksum —
   the receiver would verify a sum that never saw the bytes — so each
   such field is an Error.

   Only the final (highest statement id, reachable) checksum
   assignment defines the window: the early advice-derived zeroing
   ([hdr->checksum = 0]) is part of the computation itself, and SA006
   already polices writes *after* the final store. *)

module Ir = Sage_codegen.Ir
module Hd = Sage_rfc.Header_diagram
module D = Diagnostic

type window =
  | Whole  (** covers the entire message *)
  | From of Hd.field  (** covers from this field's bit offset onwards *)
  | Opaque  (** the chain is not a recognized checksum computation *)

(* the window of a checksum RHS: scan the call chain for the serialize
   primitive that feeds it *)
let window_of layout rhs =
  let found = ref Opaque in
  let widen w =
    match !found, w with
    | Whole, _ | _, Whole -> found := Whole
    | From a, From b ->
      found := From (if b.Hd.bit_offset < a.Hd.bit_offset then b else a)
    | Opaque, w -> found := w
    | w, Opaque -> found := w
  in
  let rec walk = function
    | Ir.Call (("whole_message" | "recompute_checksum" | "recompute_cksum"), _)
      -> widen Whole
    | Ir.Call (fn, []) when Bounds.is_recompute fn -> widen Whole
    | Ir.Call ("message_from", [ Ir.Field (Ir.Proto, f) ]) -> (
      match Absint.classify_field layout f with
      | Absint.Fixed fd -> widen (From fd)
      | Absint.Variable _ | Absint.Unknown_field -> widen Opaque)
    | Ir.Call (_, args) -> List.iter walk args
    | Ir.Not e -> walk e
    | Ir.Cmp (_, a, b) | Ir.And (a, b) | Ir.Or (a, b) ->
      walk a;
      walk b
    | Ir.Int _ | Ir.Str _ | Ir.Field _ | Ir.Request_field _ | Ir.Param _ ->
      ()
  in
  walk rhs;
  !found

let check (d : Dataflow.ctx) (summary : Absint.summary) =
  let func = d.Dataflow.func in
  let layout = summary.Absint.layout in
  (* the final reachable checksum store with a computed (Call) RHS *)
  let final =
    List.fold_left
      (fun acc (fact : Absint.fact) ->
        match fact.Absint.stmt with
        | Ir.Assign (Ir.Lfield (Ir.Proto, cf), (Ir.Call _ as rhs))
          when fact.Absint.reachable && Dataflow.is_checksum_field cf ->
          Some (fact, cf, rhs)
        | _ -> acc)
      None summary.Absint.facts
  in
  match final with
  | None -> []
  | Some (fact, cf, rhs) -> (
    let diag ?field ~severity text =
      D.v ?field ~stmt_id:fact.Absint.id
        ?sentence:(d.Dataflow.sentence_of_stmt fact.Absint.stmt)
        ~code:"SA010" ~severity ~fn_name:func.Ir.fn_name
        ~protocol:func.Ir.protocol text
    in
    match window_of layout rhs with
    | Opaque ->
      [
        diag ~field:cf ~severity:D.Warning
          (Printf.sprintf
             "cannot establish the checksum window of (%s); coverage of \
              written fields is unverified"
             (Fmt.str "%a" Ir.pp_expr rhs));
      ]
    | Whole -> []
    | From start ->
      (* every written fixed field that starts before the window *)
      let excluded = ref [] in
      List.iter
        (fun (f : Absint.fact) ->
          match f.Absint.stmt with
          | Ir.Assign (Ir.Lfield (Ir.Proto, fd), _)
            when f.Absint.reachable && not (Dataflow.is_checksum_field fd) -> (
            match Absint.classify_field layout fd with
            | Absint.Fixed field
              when field.Hd.bit_offset < start.Hd.bit_offset
                   && not (List.mem_assoc field.Hd.ident !excluded) ->
              excluded := (field.Hd.ident, field) :: !excluded
            | _ -> ())
          | _ -> ())
        summary.Absint.facts;
      List.rev_map
        (fun (ident, (field : Hd.field)) ->
          diag ~field:ident ~severity:D.Error
            (Printf.sprintf
               "field %s (bit %d) is written but outside the checksum \
                window, which starts at %s (bit %d)"
               ident field.Hd.bit_offset
               start.Hd.ident
               start.Hd.bit_offset))
        !excluded)
