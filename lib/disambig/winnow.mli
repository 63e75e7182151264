(** The winnowing driver: applies the check families in the paper's order
    (Figure 5: Base → Type → Argument ordering → Predicate ordering →
    Distributivity → Associativity) and records a trace of how many
    logical forms survive each stage, which the benches use to regenerate
    Figures 5 and 6. *)

type stage = {
  label : string;               (** e.g. "Type" *)
  family : Checks.family;
  remaining : int;              (** LFs left after this stage *)
}

type trace = {
  base : int;                    (** LFs before winnowing *)
  stages : stage list;           (** in application order *)
  survivors : Sage_logic.Lf.t list;
}

val winnow :
  ?extra_checks:Checks.check list ->
  Sage_logic.Lf.t list ->
  trace
(** Normalize conditions, then run every check family in order.  The
    result's [survivors] holds the final LFs: 1 for unambiguous sentences,
    0 for unparseable ones, >1 for truly ambiguous sentences that need a
    human rewrite (paper Figure 4). *)

val apply_single_family : Checks.family -> Sage_logic.Lf.t list -> int
(** For Figure 6: apply only one family of {!Checks.all_filters} to the
    base LF set and return the number of LFs it removes on its own. *)

val is_ambiguous : trace -> bool
(** More than one survivor. *)

val stage_counts : trace -> (string * int) list
(** [("Base", n); ("Type", n1); ...] — the Figure 5 series for one
    sentence. *)
