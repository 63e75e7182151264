(** The repository's one JSON module: the value tree, the string escaper
    every artifact writer shares, and a strict RFC 8259 parser.

    Each artifact keeps its own layout — the analysis and requirement
    envelopes, coverage, Chrome traces, the bench history — and all of
    them escape string literals here, so they cannot drift apart.  The
    parser reads the bench history and checks every artifact in the test
    suite. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in document order *)

val int : int -> t
(** [Num (float_of_int n)]. *)

(** {1 Writing} *)

val add_string : Buffer.t -> string -> unit
(** Append [s] as a string literal, quotes included.  A double quote, a
    backslash and a newline get their two-character escapes; every other
    byte below 0x20 is written [\u00XX]; every other byte, UTF-8
    included, is copied. *)

val add_value : Buffer.t -> t -> unit
(** The one-line form: [{"k": v, "k2": w}] and [[a, b]].  An integral
    number below 2{^53} prints as an integer, any other number with 17
    significant digits.
    @raise Invalid_argument on a NaN or infinite number. *)

val to_string : t -> string
(** {!add_value} into a fresh string. *)

val add_envelope : Buffer.t -> (string * t) list -> string -> t list -> unit
(** [add_envelope buf header name items] writes the document
    [analyze --format json] and [reqs --format json] print: one header
    member per line, then [name] holding [items] one per line in the
    one-line form ([[]] when there are none), then a final newline.
    {v
{
  "protocol": "BFD",
  "errors": 0,
  "diagnostics": [
    {"code": "SA003", ...},
    {"code": "SA009", ...}
  ]
}
    v} *)

(** {1 Reading} *)

val parse : string -> (t, string) result
(** Exactly one value, with optional whitespace around it.  Rejects
    trailing commas, leading zeros, a bare [.] or exponent, unknown
    escapes and raw bytes below 0x20 inside a string.  [\uXXXX] decodes
    to UTF-8, surrogate pairs included; a lone surrogate decodes to
    U+FFFD.  Other bytes of a string are kept as they are.  An error
    names the problem and its byte offset. *)
