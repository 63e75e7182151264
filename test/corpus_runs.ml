(* Shared memoized pipeline runs over the corpus table
   ({!Sage.Pipeline.corpora}), so the suites exercise identical runs
   without paying for the pipeline more than once per corpus. *)

module P = Sage.Pipeline
module Trace = Sage_trace.Trace

let memo f =
  let tbl : (string, 'a) Hashtbl.t = Hashtbl.create 8 in
  fun (c : P.corpus) ->
    match Hashtbl.find_opt tbl c.P.name with
    | Some v -> v
    | None ->
      let v = f c in
      Hashtbl.replace tbl c.P.name v;
      v

(* Plain sequential run: what `sage run` without --trace produces. *)
let run_of = memo (fun c -> P.run_corpus ~jobs:1 c)

(* The same run under a Logical-clock tracer at --jobs 1: the
   deterministic configuration the trace-format tests pin down. *)
let traced_run_of =
  memo (fun c ->
      let trace = Trace.create ~clock:Trace.Logical () in
      (P.run_corpus ~jobs:1 ~trace c, trace))

(* The profile row a traced run recorded under [name], if any. *)
let profile_row trace name =
  List.find_opt (fun r -> r.Trace.row_name = name) (Trace.profile trace)
