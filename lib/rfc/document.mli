(** The RFC document model and pre-processor (paper §3).

    RFCs use indentation to express content hierarchy: a message section
    starts at column 0; inside it, a header diagram, then field names at
    shallow indent with their descriptions at deeper indent.  The
    pre-processor recovers this structure because it supplies the
    {e context} later stages need: the subject for subject-less field
    descriptions (§4.1) and the context dictionary for code generation
    (§5.2, Table 4). *)

type code_value = { value : int; meaning : string }
(** The "0 = Echo Reply" idiom in type/code field descriptions. *)

type field_content =
  | Fixed_value of int
      (** a field description consisting of a bare constant — the idiom
          "a single sentence that has the (fixed) value of the field" *)
  | Code_values of code_value list
  | Prose of string list  (** sentences *)
  | Pseudo of string
      (** a [begin ... end] pseudo-code block, parsed by {!Pseudo_code} *)

type field_desc = private {
  field_name : string;
  field_ident : string;
      (** [Header_diagram.c_identifier field_name], computed in {!parse} *)
  content : field_content list;
}

type section = {
  message_name : string;               (** e.g. "Echo or Echo Reply Message" *)
  diagram : Header_diagram.t option;
  fields : field_desc list;
  description : string list;           (** behavior sentences *)
  ip_fields : field_desc list;         (** the "IP Fields:" sub-list *)
}

type t = {
  title : string;
  preamble : string list;  (** sentences before the first section *)
  sections : section list;
}

val parse : title:string -> string -> t
(** Parse RFC-style text.  Layout rules (matching RFC 792 et al.):
    - a non-indented, non-empty line starts a new section (its name);
    - diagram lines ([+-+] separators and [|...|] rows) form the header
      diagram;
    - within the field zone, a line indented by 1–3 spaces is a field
      name; more deeply indented lines are its description;
    - the field names "Description", "Summary of Message Types" and
      "Addressing" collect behavior prose; "IP Fields" collects the IP
      sub-descriptions. *)

val sentences_with_context :
  t -> (string * string option * string option) list
(** Every prose sentence in document order as
    [(sentence, message_name, field_name)] — the dynamic context used for
    re-parsing subject-less sentences and for code generation. *)

val find_section : t -> string -> section option
(** Case-insensitive prefix match on the section name. *)

val pp : Format.formatter -> t -> unit
