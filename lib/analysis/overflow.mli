(** Width/overflow and checksum-ordering checks against the byte-accurate
    packet layout.

    - [SA005]: a constant assigned to a field exceeds its bit width
      (both backends mask a field write to
      {!Sage_rfc.Header_diagram.mask_of_bits}, so it would be silently
      truncated on the wire) — [Error]; a comparison against a
      constant the field can never hold — [Warning].
    - [SA006] (error): a header field written after the checksum
      assignment, i.e. not covered by the checksum
      {!Sage_codegen.Assemble} is supposed to order last. *)

val check : Dataflow.ctx -> Diagnostic.t list
