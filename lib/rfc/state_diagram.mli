(** ASCII state-machine diagrams — a first implementation of the
    syntactic component the paper leaves as future work (Table 10 marks
    "State Machine Diagram" unsupported; §7: "two significant protocols
    may be within reach with the addition of complex state management and
    state machine diagrams").

    Supported grammar (a constrained subset of real RFC art, sufficient
    for the horizontal transitions of RFC 5880 §3.2's session FSM):

    - {e states} are boxes — a [+----+] top edge, [|]-delimited interior
      rows (one of which carries the state name), and a [+----+] bottom
      edge;
    - {e transitions} are horizontal arrows between two boxes on the same
      row: a run of dashes ending in [>] (rightward) or starting with [<]
      (leftward), with the triggering-event label written directly above
      or below the arrow within its column span.

    Elbow connectors and self-loop stubs — the rest of the RFC 5880 art —
    are ignored; the parser extracts what it can rather than failing,
    reporting the states it found and the transitions it recovered. *)

type state = {
  state_name : string;
  top_row : int;      (** line index of the box's top edge *)
  left_col : int;
  right_col : int;
}

type transition = {
  from_state : string;
  to_state : string;
  label : string;     (** trigger events, e.g. "INIT, UP"; "" if unlabeled *)
}

type t = { states : state list; transitions : transition list }

val parse : string -> (t, string) result
(** Fails only when no state boxes are found at all. *)

val to_lfs : t -> Sage_logic.Lf.t list
(** Each recovered transition as the same logical form the prose "If the
    state is A and <label> is received, the state is set to B" would
    yield, ready for the code generator. *)

val pp : Format.formatter -> t -> unit
