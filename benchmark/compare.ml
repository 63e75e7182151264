(* [main.exe --compare A B]: do two run-sets of the same code agree?

   A run-set is a JSON-lines file, one line per run:
   {"workload": W, "seed": S, "result": <the run's result line>}.
   For every workload and end-to-end metric of BENCHMARK.json this
   prints the change of the median from A to B and each set's spread
   (interquartile range over the median), one row per workload.  Two
   sets agree when every median moves by at most the metric's bound and
   every spread but set-up time's stays within it. *)

type metric = { name : string; bound : float }

let read_lines path = In_channel.with_open_bin path In_channel.input_lines

let load_runset path =
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        let j = Json.parse line in
        let result = Json.get "result" j in
        let metrics =
          match Json.get "metrics" result with
          | Json.Obj kvs -> List.map (fun (k, v) -> (k, Json.to_float (Json.get "value" v))) kvs
          | _ -> failwith "run-set: metrics is not an object"
        in
        Some (Json.to_string (Json.get "workload" j), metrics))
    (read_lines path)

let values runs workload metric =
  List.filter_map
    (fun (w, ms) -> if w = workload then List.assoc_opt metric ms else None)
    runs

let run ~bench a b =
  let spec = Json.parse (In_channel.with_open_bin bench In_channel.input_all) in
  let metrics =
    List.map
      (fun m ->
        { name = Json.to_string (Json.get "name" m); bound = Json.to_float (Json.get "bound" m) })
      (Json.to_list (Json.get "end_to_end" spec))
  in
  let workloads =
    List.map (fun w -> Json.to_string (Json.get "name" w)) (Json.to_list (Json.get "workloads" spec))
  in
  let ra = load_runset a and rb = load_runset b in
  let all_ok = ref true in
  Printf.printf "median change A->B [spread A / spread B], per end-to-end metric\n";
  List.iter
    (fun w ->
      let cells =
        List.map
          (fun m ->
            match values ra w m.name, values rb w m.name with
            | (_ :: _ :: _ as va), (_ :: _ :: _ as vb) ->
              let ma = Stats.median va and mb = Stats.median vb in
              let change = if ma = 0. then 0. else (mb -. ma) /. Float.abs ma in
              let sa = Stats.spread va and sb = Stats.spread vb in
              let spread_ok = m.name = "setup_s" || (sa <= m.bound && sb <= m.bound) in
              let ok = Float.abs change <= m.bound && spread_ok in
              if not ok then all_ok := false;
              Printf.sprintf "%s %+.1f%% [%.1f%%/%.1f%%] %s" m.name (100. *. change)
                (100. *. sa) (100. *. sb)
                (if ok then "ok" else "DISAGREE")
            | _ ->
              all_ok := false;
              Printf.sprintf "%s MISSING (need two runs in each set)" m.name)
          metrics
      in
      Printf.printf "%-12s %s\n" w (String.concat " | " cells))
    workloads;
  print_endline (if !all_ok then "run-sets agree" else "run-sets DISAGREE");
  !all_ok
