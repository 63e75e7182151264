module Ir = Sage_codegen.Ir
module Hd = Sage_rfc.Header_diagram
module D = Diagnostic

(* Definite assignment and field coverage (SA001/SA002).

   SA001 is the paper's Table 4 failure mode: an under-specified or
   unparsed sentence silently yields code that never writes a header
   field the layout requires.  Severity calibration: a never-assigned
   checksum field is an Error — the packet goes out with an invalid
   checksum and every conforming receiver drops it (the paper's central
   ICMP example).  Every other gap is a Warning: original RFCs
   routinely leave fields to their zero default ("unused", reserved
   bits) or describe them in prose the sender fills at run time, and
   those must not fail a strict run.  When an unparsed sentence carried
   along as a comment mentions the field, it is attached as provenance
   so the report points at the spec text that should have produced the
   assignment. *)

let check (ctx : Dataflow.ctx) =
  let f = ctx.Dataflow.func in
  let diag ?field ?sentence ~code ~severity text =
    D.v ?field ?sentence ~code ~severity ~fn_name:f.Ir.fn_name
      ~protocol:f.Ir.protocol text
  in
  let anywhere = Dataflow.assigned_anywhere f.Ir.body in
  (* --- SA002: a local read on a path before any assignment --- *)
  let locals =
    List.filter_map
      (function Ir.Lvar v -> Some v | Ir.Lfield _ -> None)
      anywhere
  in
  let sa002 = ref [] in
  let reported = ref [] in
  let on_expr ~assigned e =
    let r = Dataflow.reads_of_expr e in
    List.iter
      (fun p ->
        if
          List.mem p locals
          && (not (List.mem (Ir.Lvar p) assigned))
          && not (List.mem p !reported)
        then begin
          reported := p :: !reported;
          sa002 :=
            diag ~code:"SA002" ~severity:D.Error
              (Printf.sprintf
                 "local %s is read before it is assigned on some path" p)
            :: !sa002
        end)
      r.Dataflow.params
  in
  let definite, _diverges = Dataflow.flow ~on_expr [] f.Ir.body in
  (* --- SA001: field coverage against the packet layout --- *)
  let proto_writes =
    List.filter_map
      (function Ir.Lfield (Ir.Proto, fd) -> Some fd | _ -> None)
      anywhere
  in
  let comments =
    List.rev
      (Ir.fold_stmts
         (fun acc s -> match s with Ir.Comment c -> c :: acc | _ -> acc)
         [] f.Ir.body)
  in
  let sa001 =
    match ctx.Dataflow.layout with
    | None -> []
    | Some _ when proto_writes = [] ->
      (* writes no header fields at all: a state-machine or procedure
         function, not a header builder — coverage does not apply *)
      []
    | Some layout ->
      List.filter_map
        (fun (fd : Hd.field) ->
          let ident = fd.Hd.ident in
          if List.mem (Ir.Lfield (Ir.Proto, ident)) definite then None
          else if List.mem ident proto_writes then
            Some
              (diag ~field:ident ~code:"SA001" ~severity:D.Warning
                 (Printf.sprintf
                    "header field %s is assigned on some paths only (%d bits \
                     at offset %d)"
                    ident fd.Hd.bits fd.Hd.bit_offset))
          else
            let mention =
              List.find_opt
                (fun c ->
                  Dataflow.mentions ~name:fd.Hd.name c
                  || Dataflow.mentions ~name:ident c)
                comments
            in
            let severity =
              if Dataflow.is_checksum_field ident then D.Error else D.Warning
            in
            Some
              (diag ~field:ident ?sentence:mention ~code:"SA001" ~severity
                 (Printf.sprintf
                    "header field %s is never assigned (layout %s needs %d \
                     bits at offset %d)%s"
                    ident layout.Hd.struct_name fd.Hd.bits fd.Hd.bit_offset
                    (match severity with
                     | D.Error ->
                       "; the packet would carry an invalid checksum"
                     | _ -> ""))))
        (Array.to_list layout.Hd.fixed)
  in
  sa001 @ List.rev !sa002
