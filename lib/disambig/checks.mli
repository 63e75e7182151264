(** The winnowing checks (paper §4.2).

    Five families, mirroring the paper's inventory for ICMP (§6.1): 32 type
    checks, 7 argument-ordering checks, 4+ predicate-ordering checks, 1
    distributivity check, and the associativity (graph isomorphism) check.
    Type checks are allowlists (the most prevalent kind); argument- and
    predicate-ordering checks are blocklists.

    A type / argument-ordering / predicate-ordering check is a predicate
    over a single LF: an LF violating any check is removed.  The
    distributivity and associativity checks operate on the whole candidate
    {e set} of a sentence: distributivity prefers the non-distributed
    variant when both are present; associativity merges isomorphic LFs. *)

type family = Type_check | Arg_order | Pred_order | Distributivity | Associativity

val family_name : family -> string

type check = {
  name : string;
  family : family;
  violates : Sage_logic.Lf.t -> bool;
      (** true when the LF breaks this check (and must be removed) *)
}

val type_checks : check list
(** The 32 per-predicate argument-sort allowlist checks. *)

val arg_order_checks : check list
(** The 7 argument-ordering blocklist checks. *)

val pred_order_checks : check list
(** The predicate-nesting blocklist checks (4 for ICMP; IGMP and NTP each
    add one, per §6.3). *)

val icmp_pred_order_checks : check list

val all_filters : check list
(** [type_checks @ arg_order_checks @ pred_order_checks] in the order the
    paper applies them (Figure 5). *)

val normalize_condition : Sage_logic.Lf.t -> Sage_logic.Lf.t
(** Part of "conditionals must be well-formed": inside the condition
    position of [@If], an assignment reading [@Is(a,b)] denotes the test
    [@Cmp('eq',a,b)]; normalizing merges the two parser readings. *)

val select_non_distributive :
  Sage_logic.Lf.t list -> Sage_logic.Lf.t list * int
(** The distributivity check: when a candidate set contains both a grouped
    assignment ["(A and B) is C"] and its distributed expansion
    ["(A is C) and (B is C)"], drop the distributed ones.  Returns the
    survivors and the number removed. *)

val merge_isomorphic : Sage_logic.Lf.t list -> Sage_logic.Lf.t list * int
(** The associativity check: partition candidates into isomorphism classes
    of their attachment-normal forms (associative chains of [@And]/[@Or]/
    [@Of] — including [@StartAt] as a member of the [@Of] family, cf.
    Figure 3 — are flattened) and keep one representative per class.
    Returns survivors and the number merged away. *)

val distribute : Sage_logic.Lf.t -> Sage_logic.Lf.t option
(** [distribute lf] is the distributed expansion of [lf]'s root if its root
    has the shape [@Is(@And(a,b), c)] (or [@Set]); [None] otherwise.  Used
    by [select_non_distributive] and by tests. *)
