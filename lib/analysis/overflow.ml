module Ir = Sage_codegen.Ir
module Hd = Sage_rfc.Header_diagram
module D = Diagnostic

(* Width/overflow and checksum-ordering checks (SA005/SA006). *)

let field_width (layout : Hd.t) ident =
  Array.find_map
    (fun (fd : Hd.field) ->
      if String.equal fd.Hd.ident ident then Some fd.Hd.bits else None)
    layout.Hd.fixed

let fits ~bits n =
  n >= 0 && Int64.compare (Int64.of_int n) (Hd.mask_of_bits bits) <= 0

let check (ctx : Dataflow.ctx) =
  let f = ctx.Dataflow.func in
  let diag ?field ?sentence ~code ~severity text =
    D.v ?field ?sentence ~code ~severity ~fn_name:f.Ir.fn_name
      ~protocol:f.Ir.protocol text
  in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  (match ctx.Dataflow.layout with
   | None -> ()
   | Some layout ->
     (* SA005a (error): a constant assignment that cannot fit the field —
        Packet_view.set would silently truncate it on the wire *)
     Ir.iter_stmts
       (fun s ->
         match s with
         | Ir.Assign ((Ir.Lfield (Ir.Proto, ident) as lv), Ir.Int n) ->
           (match field_width layout ident with
            | Some bits when not (fits ~bits n) ->
              emit
                (diag ~field:ident
                   ?sentence:(ctx.Dataflow.sentence_of_stmt s)
                   ~code:"SA005" ~severity:D.Error
                   (Printf.sprintf
                      "constant %d does not fit %s (%d bits, max %Ld); the \
                       wire value would be truncated"
                      n
                      (Fmt.str "%a" Ir.pp_lvalue lv)
                      bits (Hd.mask_of_bits bits)))
            | _ -> ())
         | _ -> ())
       f.Ir.body;
     (* SA005b (warning): a comparison against a constant the field can
        never hold — the condition is degenerate *)
     Dataflow.iter_exprs
       (fun e ->
         let rec walk = function
           | Ir.Cmp (op, Ir.Field (Ir.Proto, ident), Ir.Int n)
           | Ir.Cmp (op, Ir.Request_field (Ir.Proto, ident), Ir.Int n)
           | Ir.Cmp (op, Ir.Int n, Ir.Field (Ir.Proto, ident))
           | Ir.Cmp (op, Ir.Int n, Ir.Request_field (Ir.Proto, ident)) ->
             (match field_width layout ident with
              | Some bits when not (fits ~bits n) ->
                emit
                  (diag ~field:ident ~code:"SA005" ~severity:D.Warning
                     (Printf.sprintf
                        "comparison %s against constant %d is degenerate: \
                         field %s holds at most %Ld (%d bits)"
                        op n ident (Hd.mask_of_bits bits) bits))
              | _ -> ())
           | Ir.Cmp (_, a, b) | Ir.And (a, b) | Ir.Or (a, b) ->
             walk a;
             walk b
           | Ir.Not a -> walk a
           | Ir.Call (_, args) -> List.iter walk args
           | Ir.Int _ | Ir.Str _ | Ir.Field _ | Ir.Request_field _
           | Ir.Param _ -> ()
         in
         walk e)
       f.Ir.body);
  (* SA006 (error): a header-field write after the checksum assignment —
     the checksum is computed over the fields, so Assemble orders it
     last; anything written later is not covered by it *)
  let rec scan_checksum stmts =
    List.iter
      (function
        | Ir.If (_, t, e) ->
          scan_checksum t;
          scan_checksum e
        | _ -> ())
      stmts;
    (* only writes after the LAST checksum assignment matter: an early
       checksum zeroing (the Fig. 2 advice) followed by the final
       recompute covers everything in between *)
    let tail_after_last =
      List.fold_left
        (fun acc s ->
          match s with
          | Ir.Assign (Ir.Lfield (Ir.Proto, cf), _)
            when Dataflow.is_checksum_field cf ->
            Some (cf, [])
          | s ->
            (match acc with
             | Some (cf, tl) -> Some (cf, s :: tl)
             | None -> None))
        None stmts
    in
    match tail_after_last with
    | None -> ()
    | Some (cf, rev_tail) ->
      let late =
        Ir.fold_stmts
          (fun acc s ->
            match s with
            | Ir.Assign (Ir.Lfield (Ir.Proto, fd), _)
              when not (Dataflow.is_checksum_field fd) ->
              (s, fd) :: acc
            | _ -> acc)
          [] (List.rev rev_tail)
      in
      List.iter
        (fun (s, fd) ->
          emit
            (diag ~field:fd ?sentence:(ctx.Dataflow.sentence_of_stmt s)
               ~code:"SA006" ~severity:D.Error
               (Printf.sprintf
                  "header field %s is written after the %s assignment and is \
                   not covered by it"
                  fd cf)))
        (List.rev late)
  in
  scan_checksum f.Ir.body;
  List.rev !diags
