(** Noun-phrase chunking (the SpaCy-substitute, paper §3 and Table 7/8).

    Before CCG parsing, SAGE collapses each domain noun phrase into a single
    lexical item: ["the echo reply message is sent"] becomes the chunk
    sequence [the] [echo reply message] [is] [sent].  Careful labeling
    matters: under-chunking multiplies logical forms (Table 7: 16 vs 6 LFs)
    and disabling chunking entirely makes most sentences unparseable
    (Table 8: 54 of 87 sentences yield 0 LFs). *)

type chunk = {
  text : string;        (** surface text, words joined by single spaces *)
  is_np : bool;         (** labeled as a (domain or generic) noun phrase *)
  tokens : Token.t list; (** the underlying tokens *)
}

type strategy =
  | Longest_match   (** greedy longest dictionary match (default, "good labels") *)
  | First_match     (** stop at the first (shortest) dictionary match ("poor labels", Table 7) *)
  | No_dictionary   (** generic NP rules only, no domain dictionary (Table 8 row 1) *)
  | No_labeling     (** no NP chunking at all: every token is its own chunk (Table 8 row 2) *)

val chunk :
  ?strategy:strategy -> dict:Term_dictionary.t -> Token.t list -> chunk list
(** Chunk a tokenized sentence.  Dictionary phrases (matched per
    [strategy]) become NP chunks; adjacent noun-like words not in the
    dictionary are grouped by the generic rule (Det? Adj* Noun+); all other
    tokens pass through as single non-NP chunks. *)

val chunk_sentence :
  ?strategy:strategy -> dict:Term_dictionary.t -> string -> chunk list
(** [chunk_sentence ~dict s] = [chunk ~dict (Tokenizer.tokenize s)]. *)

val drop_terminator : chunk list -> chunk list
(** The parser's input for a chunked sentence: the chunks without the
    sentence-final punctuation chunk, when there is one. *)

val np_count : chunk list -> int
(** Number of chunks labeled as noun phrases. *)

val pp_chunk : Format.formatter -> chunk -> unit
