(** The closure-compiling backend: [load] translates an IR body into a
    tree of OCaml closures over preallocated slot arrays — field names,
    parameters, state variables and checksum byte ranges all resolved
    once — so executing a packet allocates only its outcome.  Semantics
    are bit-for-bit the interpreter's (asserted by the differential
    suite); the step budget is counted per statement rather than per
    expression node, a divergence only runaway code could observe. *)

include Intf.S
