(** The CCG chart parser (CKY over chunked sentences).

    Implements the standard CCG combinators — forward/backward application
    and composition, plus the coordination rule — over the chunk sequence
    produced by {!Sage_nlp.Chunker}.  Faithful to the paper, the parser
    deliberately {e over-generates}: multiple lexical entries for
    ambiguous function words (if / = / of), comma read either as a
    conjunction or as clause glue, and distributive expansion of
    coordinated subjects.  The disambiguation stage (lib/disambig) is
    responsible for winnowing the resulting logical forms. *)

type rule =
  | Lex                (** lexical lookup *)
  | Fwd_app            (** X/Y  Y  ⇒  X *)
  | Bwd_app            (** Y  X\Y  ⇒  X *)
  | Fwd_comp           (** X/Y  Y/Z  ⇒  X/Z *)
  | Bwd_comp           (** Y\Z  X\Y  ⇒  X\Z *)
  | Coord              (** X conj X  ⇒  X *)
  | Glue               (** comma absorption *)
  | Compound           (** NP NP ⇒ NP — noun compounding; the source of the
                           extra ambiguity under poor NP labels (Table 7) *)

type deriv =
  | Leaf of string * Lexicon.entry          (** chunk text, entry used *)
  | Node of rule * Category.t * deriv * deriv

type item = { cat : Category.t; sem : Sem.t; deriv : deriv }

type result = {
  items : item list;         (** spanning items of category [S] *)
  lfs : Sage_logic.Lf.t list; (** extracted logical forms, deduplicated *)
  truncated : bool;
      (** a chart cell reached the capacity bound and stopped combining *)
  chunks : Sage_nlp.Chunker.chunk list;  (** the chunked input *)
}

val parse :
  ?strategy:Sage_nlp.Chunker.strategy ->
  ?expand_distributive:bool ->
  ?capacity:int ->
  lexicon:Lexicon.t ->
  dict:Sage_nlp.Term_dictionary.t ->
  string ->
  result
(** Parse one sentence, without its sentence-final punctuation
    ({!Sage_nlp.Chunker.drop_terminator}), to category [S].  When
    [expand_distributive] (default [true]), coordinated left-hand sides of
    assignments additionally yield the distributed reading
    ["(A is C) and (B is C)"], emulating CCG's coordination over-generation
    (paper §4.1 "predicate distributivity"). *)

val parse_chunks :
  ?expand_distributive:bool ->
  ?capacity:int ->
  lexicon:Lexicon.t ->
  Sage_nlp.Chunker.chunk list ->
  result
(** Parse an already-chunked sentence (used when the pipeline re-parses a
    zero-LF field description with the field name supplied as subject). *)

val pp_deriv : Format.formatter -> deriv -> unit
(** Render a derivation tree, one combinator step per line (cf. the
    paper's Appendix B / Figure 7). *)
