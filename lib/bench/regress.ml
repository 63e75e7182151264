(* Regression gate: compare a current run against the recorded
   trajectory.  The baseline for each key is the median of the last
   [window] recorded values (History.baseline), so a single noisy
   historical commit cannot move the bar; the comparison allows
   [default_tolerance] relative slowdown (15%); a per-key override
   (Target.tolerance_of) acts as a floor — the effective tolerance is
   the larger of the two, so fast-and-jittery stages are never gated
   tighter than their registered noise level, and a loosened
   [--tolerance] (e.g. for a cross-machine CI comparison) applies to
   every key.

   Verdicts:
     - a key within tolerance of its baseline passes ("ok");
     - markedly below baseline passes and is celebrated ("improved");
     - above baseline + tolerance fails the gate ("REGRESSED");
     - a key with no history is not a failure — its baseline is simply
       recorded ("new");
     - a key that was expected (registered and selected, or a history
       key the selection filter matches) but absent from the current
       run is an explicit error ("MISSING") — a silently dropped
       benchmark must not read as a pass. *)

type status =
  | Within of { baseline : float; delta : float; tolerance : float }
  | Improved of { baseline : float; delta : float; tolerance : float }
  | Regressed of { baseline : float; delta : float; tolerance : float }
  | New_key
  | Missing

type line = { key : string; current : float option; status : status }

type report = {
  lines : line list; (* sorted by key *)
  window : int;
  default_tolerance : float;
}

let check ?(default_tolerance = 0.15) ?(window = 5)
    ?(tolerance_of = fun _ -> None) ~history ~expected ~current () =
  let keys = List.sort_uniq compare (expected @ List.map fst current) in
  let lines =
    List.map
      (fun key ->
        let tolerance =
          match tolerance_of key with
          | Some floor -> Float.max floor default_tolerance
          | None -> default_tolerance
        in
        match List.assoc_opt key current with
        | None -> { key; current = None; status = Missing }
        | Some (s : History.sample) ->
          let ns = s.History.ns in
          (match History.baseline ~window history key with
           | None -> { key; current = Some ns; status = New_key }
           | Some baseline ->
             let delta = (ns -. baseline) /. baseline in
             let status =
               if delta > tolerance then
                 Regressed { baseline; delta; tolerance }
               else if delta < -.tolerance then
                 Improved { baseline; delta; tolerance }
               else Within { baseline; delta; tolerance }
             in
             { key; current = Some ns; status }))
      keys
  in
  { lines; window; default_tolerance }

let ok report =
  List.for_all
    (fun l ->
      match l.status with Regressed _ | Missing -> false | _ -> true)
    report.lines

let exit_code report = if ok report then 0 else 1

let pretty_ns ns =
  if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let render report =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-20s %12s %12s %9s  %s\n" "key" "baseline" "current"
       "delta" "verdict");
  let regressed = ref 0 and missing = ref 0 and fresh = ref 0 in
  List.iter
    (fun l ->
      let baseline_s, delta_s, verdict =
        match l.status with
        | Within { baseline; delta; _ } ->
          (pretty_ns baseline, Printf.sprintf "%+.1f%%" (100. *. delta), "ok")
        | Improved { baseline; delta; _ } ->
          ( pretty_ns baseline,
            Printf.sprintf "%+.1f%%" (100. *. delta),
            "improved" )
        | Regressed { baseline; delta; tolerance } ->
          incr regressed;
          ( pretty_ns baseline,
            Printf.sprintf "%+.1f%%" (100. *. delta),
            Printf.sprintf "REGRESSED (tolerance %.0f%%)" (100. *. tolerance)
          )
        | New_key ->
          incr fresh;
          ("-", "-", "new (baseline recorded)")
        | Missing ->
          incr missing;
          ("-", "-", "MISSING from current run")
      in
      Buffer.add_string buf
        (Printf.sprintf "%-20s %12s %12s %9s  %s\n" l.key baseline_s
           (match l.current with Some ns -> pretty_ns ns | None -> "-")
           delta_s verdict))
    report.lines;
  Buffer.add_string buf
    (Printf.sprintf
       "\nbench check: %d key(s), %d regressed, %d missing, %d new \
        (baseline median of last %d, default tolerance %.0f%%) — %s\n"
       (List.length report.lines)
       !regressed !missing !fresh report.window
       (100. *. report.default_tolerance)
       (if ok report then "PASS" else "FAIL"));
  Buffer.contents buf
