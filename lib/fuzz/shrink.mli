(** Generic greedy counterexample minimization with a bounded evaluation
    budget, shared by the fuzz engine (packet shrinking) and the chaos
    campaign runner (episode-schedule shrinking). *)

val minimize :
  candidates:('a -> 'a list) ->
  still_failing:('a -> 'b option) ->
  'a ->
  'a * 'b option * int
(** [minimize ~candidates ~still_failing x] greedily descends from [x]:
    candidates are tried in order and the first one on which
    [still_failing] returns [Some _] becomes the new current value;
    the loop stops when no candidate fails or 400 evaluations have been
    spent.  Returns the final value, the failure detail observed on
    it (None when [x] itself was never improved), and the number of
    accepted shrink steps.  Fully deterministic. *)
