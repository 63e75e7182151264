(* In-memory span recorder for the traced benchmark run.

   Spans live in growable parallel arrays (preallocated to [keep]) and
   are grouped by op: [begin_op] opens the op's root span, the workload
   records its layer spans under it, and [end_op] folds the op's spans
   into per-layer totals.  The spans of the first ops, up to [keep], are
   retained for the Chrome trace; later ops are folded and dropped, so a
   long run aggregates every op in bounded memory.

   A span's parent is an explicit span id, not the enclosing interval:
   layers replayed after the op (on the op's captured inputs) are
   recorded as children of the real span whose work they split up.
   Self time is therefore the span's duration minus the measure of the
   union of its children's intervals, wherever those intervals lie; it
   is clamped at zero, and what clamping removes shows up in the op's
   unattributed time. *)

type t = {
  clock : unit -> int;
  keep : int;
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable calls : int array;
  mutable words : int array;
  mutable len : int;
  mutable kept : int;
  mutable first : int;
  mutable ops : int;
  mutable op_ns : int array;
  mutable layer_calls : int array;
  mutable layer_ns : int array;
  mutable layer_words : int array;
  mutable unattributed_ns : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Words allocated so far by this domain, minor and major heaps alike:
   minor + major - promoted, so a promoted block is not counted twice. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  int_of_float (minor +. major -. promoted)

let create ?(keep = 1 lsl 16) ?(clock = now_ns) () =
  let col () = Array.make keep 0 in
  {
    clock;
    keep;
    ids = Hashtbl.create 32;
    names = [||];
    name = col ();
    start = col ();
    stop = col ();
    parent = col ();
    op = col ();
    calls = col ();
    words = col ();
    len = 0;
    kept = 0;
    first = 0;
    ops = 0;
    op_ns = [||];
    layer_calls = [||];
    layer_ns = [||];
    layer_words = [||];
    unattributed_ns = 0;
  }

let grow a n = if n <= Array.length a then a else Array.append a (Array.make (max n (Array.length a)) 0)

let intern t s =
  match Hashtbl.find_opt t.ids s with
  | Some i -> i
  | None ->
    let i = Array.length t.names in
    Hashtbl.replace t.ids s i;
    t.names <- Array.append t.names [| s |];
    t.layer_calls <- Array.append t.layer_calls [| 0 |];
    t.layer_ns <- Array.append t.layer_ns [| 0 |];
    t.layer_words <- Array.append t.layer_words [| 0 |];
    i

let enter t ~parent s =
  let i = t.len in
  if i = Array.length t.name then begin
    let n = i + 1 in
    t.name <- grow t.name n;
    t.start <- grow t.start n;
    t.stop <- grow t.stop n;
    t.parent <- grow t.parent n;
    t.op <- grow t.op n;
    t.calls <- grow t.calls n;
    t.words <- grow t.words n
  end;
  t.len <- i + 1;
  t.name.(i) <- intern t s;
  t.parent.(i) <- parent;
  t.op.(i) <- t.ops;
  t.calls.(i) <- 1;
  t.words.(i) <- alloc_words ();
  t.start.(i) <- t.clock ();
  i

let leave ?(calls = 1) t i =
  t.stop.(i) <- t.clock ();
  t.words.(i) <- alloc_words () - t.words.(i);
  t.calls.(i) <- calls

let begin_op t s =
  t.first <- t.len;
  ignore (enter t ~parent:(-1) s)

let root t = t.first

let end_root t = leave t t.first

(* Measure of the union of the children's intervals, and the sum of
   their allocations. *)
let children t j =
  let iv = ref [] and words = ref 0 in
  for k = t.first to t.len - 1 do
    if t.parent.(k) = j then begin
      iv := (t.start.(k), t.stop.(k)) :: !iv;
      words := !words + t.words.(k)
    end
  done;
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (s, e) ->
        let s = max s reach in
        if e > s then (acc + (e - s), e) else (acc, reach))
      (0, min_int)
      (List.sort compare !iv)
  in
  (covered, !words)

let end_op t =
  let root_ns = t.stop.(t.first) - t.start.(t.first) in
  let attributed = ref 0 in
  for j = t.first + 1 to t.len - 1 do
    let covered, child_words = children t j in
    let self_ns = max 0 (t.stop.(j) - t.start.(j) - covered) in
    let l = t.name.(j) in
    t.layer_calls.(l) <- t.layer_calls.(l) + t.calls.(j);
    t.layer_ns.(l) <- t.layer_ns.(l) + self_ns;
    t.layer_words.(l) <- t.layer_words.(l) + max 0 (t.words.(j) - child_words);
    attributed := !attributed + self_ns
  done;
  t.unattributed_ns <- t.unattributed_ns + root_ns - !attributed;
  t.op_ns <- grow t.op_ns (t.ops + 1);
  t.op_ns.(t.ops) <- root_ns;
  t.ops <- t.ops + 1;
  if t.len <= t.keep then t.kept <- t.len else t.len <- t.kept

let drop_op t = t.len <- t.kept

type layer = { calls : int; self_ns : int; self_words : int }

let layer t s =
  match Hashtbl.find_opt t.ids s with
  | None -> { calls = 0; self_ns = 0; self_words = 0 }
  | Some l ->
    { calls = t.layer_calls.(l); self_ns = t.layer_ns.(l);
      self_words = t.layer_words.(l) }

let names t = Array.to_list t.names
let ops t = t.ops
let op_durations_ns t = Array.sub t.op_ns 0 t.ops
let unattributed_ns t = t.unattributed_ns

let to_chrome t =
  let b = Buffer.create (256 + (t.kept * 160)) in
  let t0 = if t.kept = 0 then 0 else t.start.(0) in
  let us ns = float_of_int ns /. 1000. in
  Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for i = 0 to t.kept - 1 do
    if i > 0 then Buffer.add_string b ",\n";
    Printf.bprintf b
      "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
       \"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\"calls\":%d,\"words\":%d}}"
      t.names.(t.name.(i))
      (us (t.start.(i) - t0))
      (us (t.stop.(i) - t.start.(i)))
      i t.parent.(i) t.op.(i) t.calls.(i) t.words.(i)
  done;
  Buffer.add_string b "]}\n";
  Buffer.contents b
