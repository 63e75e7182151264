(** Rendering the IR as C source, the concrete deliverable the paper's
    code generator produces (Table 4: [hdr->type = 3;]).  The emitted file
    contains the struct declarations recovered from the header diagrams,
    extern declarations for the static framework, and one function per
    (message, role). *)

val render_program :
  protocol:string ->
  structs:Sage_rfc.Header_diagram.t list ->
  funcs:Ir.func list ->
  string
(** A complete compilable-looking translation unit. *)

val render_func : Ir.func -> string
