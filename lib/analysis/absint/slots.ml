(* SA012: interp/compiled slot-layout consistency — a load-time
   well-formedness verifier for the compiled backend's representation
   of this function's packet.

   The compiled {!Sage_backend.Layout} of the recovered header must
   satisfy the invariants the interpreter's {!Packet_view} semantics
   rely on: identifier-keyed slot sharing (two fields share a slot iff
   their names normalize to the same C identifier), masks derived from
   widths, contiguous bit offsets, and the fixed-byte arithmetic both
   serializers use.  Any violation means the two backends would read
   different bytes for the same field. *)

module Ir = Sage_codegen.Ir
module Hd = Sage_rfc.Header_diagram
module L = Sage_backend.Layout
module D = Diagnostic

let check (d : Dataflow.ctx) =
  let func = d.Dataflow.func in
  let diags = ref [] in
  let emit ?field severity text =
    diags :=
      D.v ?field ~code:"SA012" ~severity ~fn_name:func.Ir.fn_name
        ~protocol:func.Ir.protocol text
      :: !diags
  in
  (match d.Dataflow.layout with
   | None -> ()
   | Some layout ->
     let cl = L.of_layout layout in
     let fixed =
       List.filter (fun (f : Hd.field) -> not f.Hd.variable) layout.Hd.fields
     in
     if Array.length cl.L.fields <> List.length fixed then
       emit D.Error
         (Printf.sprintf
            "compiled layout has %d fixed fields, the diagram has %d"
            (Array.length cl.L.fields) (List.length fixed))
     else begin
       List.iteri
         (fun i (src : Hd.field) ->
           let f = cl.L.fields.(i) in
           let ident = src.Hd.ident in
           if f.L.ident <> ident then
             emit ~field:ident D.Error
               (Printf.sprintf "slot %d compiled as %S, diagram says %S"
                  i f.L.ident ident);
           if f.L.bits <> src.Hd.bits then
             emit ~field:ident D.Error
               (Printf.sprintf "field width %d bits, diagram says %d"
                  f.L.bits src.Hd.bits);
           if f.L.bit_off <> src.Hd.bit_offset then
             emit ~field:ident D.Error
               (Printf.sprintf "field offset bit %d, diagram says bit %d"
                  f.L.bit_off src.Hd.bit_offset);
           if f.L.mask <> L.mask_of_bits f.L.bits then
             emit ~field:ident D.Error
               (Printf.sprintf "mask %Ld is not the %d-bit mask %Ld"
                  f.L.mask f.L.bits
                  (L.mask_of_bits f.L.bits));
           if f.L.slot < 0 || f.L.slot >= cl.L.nslots then
             emit ~field:ident D.Error
               (Printf.sprintf "slot %d out of range (%d slots)" f.L.slot
                  cl.L.nslots);
           match Hashtbl.find_opt cl.L.index f.L.ident with
           | Some s when s = f.L.slot -> ()
           | Some s ->
             emit ~field:ident D.Error
               (Printf.sprintf
                  "index resolves %S to slot %d but the field holds slot %d"
                  f.L.ident s f.L.slot)
           | None ->
             emit ~field:ident D.Error
               (Printf.sprintf "index has no entry for %S" f.L.ident))
         fixed;
       (* identifier-keyed sharing, both directions *)
       Array.iteri
         (fun i (a : L.field) ->
           Array.iteri
             (fun j (b : L.field) ->
               if i < j then
                 if (a.L.ident = b.L.ident) <> (a.L.slot = b.L.slot) then
                   emit ~field:a.L.ident D.Error
                     (Printf.sprintf
                        "fields %S and %S %s an identifier but %s a slot"
                        a.L.ident b.L.ident
                        (if a.L.ident = b.L.ident then "share" else
                           "do not share")
                        (if a.L.slot = b.L.slot then "share" else
                           "do not share")))
             cl.L.fields)
         cl.L.fields;
       let total_bits =
         List.fold_left (fun acc (f : Hd.field) -> acc + f.Hd.bits) 0 fixed
       in
       if cl.L.fixed_bytes <> (total_bits + 7) / 8 then
         emit D.Error
           (Printf.sprintf
              "fixed_bytes %d but the diagram's %d bits round to %d"
              cl.L.fixed_bytes total_bits
              ((total_bits + 7) / 8))
     end);
  List.rev !diags
