(* BENCH.md generator: a pure, deterministic function of the history —
   byte-identical output for the same BENCH_history.json whatever the
   host, --jobs value or number of renders (CI cmp-gates this). *)

let blocks = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |]

(* unicode sparkline of a trajectory, scaled min..max; a flat
   trajectory renders as a run of middle blocks *)
let spark values =
  match values with
  | [] -> ""
  | _ ->
    let lo = List.fold_left min infinity values in
    let hi = List.fold_left max neg_infinity values in
    let buf = Buffer.create 16 in
    List.iter
      (fun v ->
        let i =
          if hi -. lo <= 0. then 3
          else
            let scaled = (v -. lo) /. (hi -. lo) *. 7. in
            min 7 (max 0 (int_of_float (Float.round scaled)))
        in
        Buffer.add_string buf blocks.(i))
      values;
    Buffer.contents buf

let pretty_ns = Regress.pretty_ns

let page (h : History.t) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "# Benchmark trajectory\n\n";
  Buffer.add_string buf
    (Printf.sprintf
       "Generated by `sage bench --render` from `BENCH_history.json` \
        (schema %d). Lower is better; every value is ns/iteration. The \
        baseline is the median of the last %d recorded values — the bar \
        `sage bench --check` gates against.\n\n"
       h.History.schema History.default_window);
  (match List.rev h.History.records with
   | [] -> Buffer.add_string buf "No commits recorded yet.\n"
   | latest :: _ ->
     Buffer.add_string buf
       (Printf.sprintf "%d commit(s) recorded; latest: `%s` (%s).\n\n"
          (List.length h.History.records)
          latest.History.commit latest.History.date);
     Buffer.add_string buf
       "| key | trend | latest | best | baseline | backend |\n";
     Buffer.add_string buf "|---|---|---:|---:|---:|---|\n";
     List.iter
       (fun key ->
         let trend = spark (History.trajectory h key) in
         let cell f =
           match f h key with
           | Some (s : History.sample) -> pretty_ns s.History.ns
           | None -> "-"
         in
         let baseline =
           match History.baseline h key with
           | Some ns -> pretty_ns ns
           | None -> "-"
         in
         let backend =
           match History.latest h key with
           | Some s -> s.History.backend
           | None -> "-"
         in
         Buffer.add_string buf
           (Printf.sprintf "| %s | %s | %s | %s | %s | %s |\n" key trend
              (cell History.latest) (cell History.best) baseline backend))
       (History.keys h));
  Buffer.contents buf
