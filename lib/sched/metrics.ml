type t = {
  stage_ns : (string, int64) Hashtbl.t;
  stage_calls : (string, int) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
  lock : Sched_backend.mutex;
}

let create () =
  {
    stage_ns = Hashtbl.create 16;
    stage_calls = Hashtbl.create 16;
    counts = Hashtbl.create 16;
    lock = Sched_backend.mutex ();
  }

let now_ns () = Monotonic_clock.now ()

let tbl_add tbl key v zero add =
  Hashtbl.replace tbl key (add (Option.value ~default:zero (Hashtbl.find_opt tbl key)) v)

let add_ns t stage ns =
  Sched_backend.with_lock t.lock (fun () ->
      tbl_add t.stage_ns stage ns 0L Int64.add;
      tbl_add t.stage_calls stage 1 0 ( + ))

let incr ?(by = 1) t name =
  Sched_backend.with_lock t.lock (fun () -> tbl_add t.counts name by 0 ( + ))

let time t stage f =
  let t0 = now_ns () in
  match f () with
  | v ->
    add_ns t stage (Int64.sub (now_ns ()) t0);
    v
  | exception exn ->
    add_ns t stage (Int64.sub (now_ns ()) t0);
    raise exn

(* Every reader goes through this sort: hashtable iteration order is
   unspecified (and seed-dependent), and stat/metric lines feed golden
   snapshots and BENCH_*.json diffs, which must be stable across runs.
   test/test_trace.ml asserts the sortedness. *)
let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let stage_ns t = Sched_backend.with_lock t.lock (fun () -> sorted_bindings t.stage_ns)
let stage_calls t = Sched_backend.with_lock t.lock (fun () -> sorted_bindings t.stage_calls)
let counters t = Sched_backend.with_lock t.lock (fun () -> sorted_bindings t.counts)

let counter t name =
  Sched_backend.with_lock t.lock (fun () ->
      Option.value ~default:0 (Hashtbl.find_opt t.counts name))

let merge_into dst src =
  let stages = stage_ns src and calls = stage_calls src and cnts = counters src in
  Sched_backend.with_lock dst.lock (fun () ->
      List.iter (fun (k, v) -> tbl_add dst.stage_ns k v 0L Int64.add) stages;
      List.iter (fun (k, v) -> tbl_add dst.stage_calls k v 0 ( + )) calls;
      List.iter (fun (k, v) -> tbl_add dst.counts k v 0 ( + )) cnts)

let pretty_ns ns =
  let ns = Int64.to_float ns in
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let summary t =
  let buf = Buffer.create 512 in
  let calls = stage_calls t in
  let stages = stage_ns t in
  if stages <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "%-12s %12s %8s %12s\n" "stage" "total" "calls" "per call");
    List.iter
      (fun (stage, ns) ->
        let n = Option.value ~default:1 (List.assoc_opt stage calls) in
        let per = Int64.div ns (Int64.of_int (max 1 n)) in
        Buffer.add_string buf
          (Printf.sprintf "%-12s %12s %8d %12s\n" stage (pretty_ns ns) n
             (pretty_ns per)))
      stages
  end;
  let cnts = counters t in
  if cnts <> [] then begin
    if stages <> [] then Buffer.add_char buf '\n';
    List.iter
      (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "%-24s %d\n" name v))
      cnts
  end;
  Buffer.contents buf
