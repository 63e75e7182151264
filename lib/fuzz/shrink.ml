(* Generic greedy counterexample minimization, factored out of the fuzz
   engine so the chaos campaign runner can shrink failing episode
   schedules with the same budget discipline the fuzzer applies to
   packets.

   The descent is strictly deterministic: candidates are tried in the
   order the caller produces them, the first one that still fails
   becomes the new current value, and the whole process stops when no
   candidate fails or the evaluation budget runs out.  No randomness,
   so a shrink result is a pure function of (value, candidates,
   still_failing). *)

let minimize ~candidates ~still_failing x =
  let budget = ref 400 in
  let steps = ref 0 in
  let cur = ref x in
  let detail = ref None in
  let progress = ref true in
  while !progress && !budget > 0 do
    progress := false;
    let rec try_candidates = function
      | [] -> ()
      | c :: rest ->
        if !budget > 0 then begin
          decr budget;
          match still_failing c with
          | Some d ->
            cur := c;
            detail := Some d;
            incr steps;
            progress := true
          | None -> try_candidates rest
        end
    in
    try_candidates (candidates !cur)
  done;
  (!cur, !detail, !steps)
