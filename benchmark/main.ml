(* The repository benchmark.  Run from the repository root:

     dune exec benchmark/main.exe -- --workload W --seed S --seconds N --trace 0|1
     dune exec benchmark/main.exe -- --compare A.jsonl B.jsonl

   A run prints its metrics and, as its last line, one JSON object with
   [correct], [attempted], [failed] and [metrics]; it exits 1 when an
   output or replay-fidelity check failed.  A traced run also writes its
   spans as Chrome-trace JSON to .bench_trace/<workload>.json. *)

open Sage_benchmark

let usage =
  "main.exe --workload W --seed S [--seconds N] [--trace 0|1]\n\
   main.exe --compare A.jsonl B.jsonl\n\
   workloads: "
  ^ String.concat ", " (List.map (fun (s : Workload.spec) -> s.Workload.name) Harness.workloads)

let () =
  let workload = ref "" and seed = ref 1 and secs = ref 10 and trace = ref 0 in
  let compare = ref [] in
  let set_compare a = compare := !compare @ [ a ] in
  let args =
    [
      ("--workload", Arg.Set_string workload, "W  workload to run");
      ("--seed", Arg.Set_int seed, "S  seed for every generated input");
      ("--seconds", Arg.Set_int secs, "N  measure for N seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  1: per-layer metrics from a traced run");
      ("--compare", Arg.Tuple [ Arg.String set_compare; Arg.String set_compare ],
       "A B  check two run-sets agree within BENCHMARK.json's bounds");
    ]
  in
  let fail msg =
    prerr_endline msg;
    Arg.usage args usage;
    exit 2
  in
  Arg.parse args (fun a -> fail ("unexpected argument " ^ a)) usage;
  match !compare with
  | [ a; b ] -> exit (if Compare.run ~bench:"BENCHMARK.json" a b then 0 else 1)
  | _ :: _ -> fail "--compare takes two run-set files"
  | [] ->
    let spec =
      match List.find_opt (fun (s : Workload.spec) -> s.Workload.name = !workload) Harness.workloads with
      | Some s -> s
      | None -> fail ("unknown workload " ^ !workload)
    in
    if !secs < 1 then fail "--seconds must be at least 1";
    if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
    let r =
      Harness.run ~budget:(Harness.Seconds (float_of_int !secs)) ~root:"." ~seed:!seed
        ~trace:(!trace = 1) spec
    in
    (match r.Harness.chrome with
     | None -> ()
     | Some json ->
       let dir = ".bench_trace" in
       if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
       let path = Filename.concat dir (!workload ^ ".json") in
       Out_channel.with_open_bin path (fun oc -> output_string oc json);
       Printf.printf "chrome trace: %s\n" path);
    Harness.print ~workload:!workload ~seed:!seed r;
    exit (if r.Harness.correct then 0 else 1)
