(* In-memory structured tracer.  All mutation happens under one
   backend mutex, so emission from Pool workers is safe; on the
   sequential backend the lock is free.  Everything is buffered — no
   I/O happens until a sink renders the buffer — so tracing cannot
   perturb pipeline output ordering. *)

type arg =
  | Int of int
  | Str of string

type phase =
  | Begin
  | End
  | Instant
  | Counter

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts : int64;
  tid : int;
  span_id : int;
  args : (string * arg) list;
}

type clock =
  | Wall
  | Logical

type t = {
  clock : clock;
  start_ns : int64;
  lock : Sage_sched.Sched_backend.mutex;
  mutable rev_events : event list;
  mutable count : int;
  mutable next_span : int;
  mutable ticks : int64;
}

let now_ns () = Monotonic_clock.now ()

let create ?(clock = Wall) () =
  {
    clock;
    start_ns = now_ns ();
    lock = Sage_sched.Sched_backend.mutex ();
    rev_events = [];
    count = 0;
    next_span = 0;
    ticks = 0L;
  }

let clock t = t.clock

(* Must be called under [t.lock]. *)
let stamp t =
  match t.clock with
  | Wall -> Int64.sub (now_ns ()) t.start_ns
  | Logical ->
    t.ticks <- Int64.add t.ticks 1L;
    t.ticks

let push t ~name ~cat ~ph ~span_id ~args =
  Sage_sched.Sched_backend.with_lock t.lock (fun () ->
      let ev =
        {
          name;
          cat;
          ph;
          ts = stamp t;
          tid = Sage_sched.Sched_backend.self_id ();
          span_id;
          args;
        }
      in
      t.rev_events <- ev :: t.rev_events;
      t.count <- t.count + 1)

type span =
  | No_span
  | Open of { id : int; name : string; cat : string }

let null_span = No_span

let span ?(cat = "") ?(args = []) trace name =
  match trace with
  | None -> No_span
  | Some t ->
    let id =
      Sage_sched.Sched_backend.with_lock t.lock (fun () ->
          t.next_span <- t.next_span + 1;
          t.next_span)
    in
    push t ~name ~cat ~ph:Begin ~span_id:id ~args;
    Open { id; name; cat }

let close ?(args = []) trace sp =
  match (trace, sp) with
  | Some t, Open { id; name; cat } ->
    push t ~name ~cat ~ph:End ~span_id:id ~args
  | _ -> ()

let with_span ?cat ?args trace name f =
  match trace with
  | None -> f ()
  | Some _ ->
    let sp = span ?cat ?args trace name in
    (match f () with
    | v ->
      close trace sp;
      v
    | exception exn ->
      close trace sp;
      raise exn)

let instant ?(cat = "") ?(args = []) trace name =
  match trace with
  | None -> ()
  | Some t -> push t ~name ~cat ~ph:Instant ~span_id:0 ~args

let counter ?(cat = "") trace name value =
  match trace with
  | None -> ()
  | Some t ->
    push t ~name ~cat ~ph:Counter ~span_id:0 ~args:[ ("value", Int value) ]

let events t =
  Sage_sched.Sched_backend.with_lock t.lock (fun () -> List.rev t.rev_events)

let event_count t =
  Sage_sched.Sched_backend.with_lock t.lock (fun () -> t.count)

(* --- rendering ------------------------------------------------------ *)

module Json = Sage_json.Json

let ph_char = function
  | Begin -> 'B'
  | End -> 'E'
  | Instant -> 'i'
  | Counter -> 'C'

(* Chrome expects microseconds.  The Wall clock records ns, so divide,
   keeping three decimals to preserve sub-microsecond ordering; the
   Logical clock's ticks are emitted verbatim (they are already a
   strictly increasing integer sequence). *)
let ts_to_json clock ts =
  match clock with
  | Logical -> Int64.to_string ts
  | Wall ->
    Printf.sprintf "%Ld.%03Ld" (Int64.div ts 1000L)
      (Int64.rem ts 1000L)

(* One event as a compact (space-free) Chrome trace-event object. *)
let add_event buf clock ev =
  Printf.bprintf buf
    "{\"name\":%a,\"cat\":%a,\"ph\":\"%c\",\"ts\":%s,\"pid\":1,\"tid\":%d"
    Json.add_string ev.name Json.add_string
    (if ev.cat = "" then "sage" else ev.cat)
    (ph_char ev.ph) (ts_to_json clock ev.ts) ev.tid;
  if ev.ph = Instant then Buffer.add_string buf ",\"s\":\"t\"";
  if ev.args <> [] then begin
    Buffer.add_string buf ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Json.add_string buf k;
        Buffer.add_char buf ':';
        match v with
        | Int n -> Buffer.add_string buf (string_of_int n)
        | Str s -> Json.add_string buf s)
      ev.args;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf '}'

let to_chrome_json t =
  let evs = events t in
  let buf = Buffer.create (4096 + (128 * List.length evs)) in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string buf ",\n";
      add_event buf t.clock ev)
    evs;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let arg_to_text = function Int i -> string_of_int i | Str s -> s

let event_to_text ev =
  let args =
    match ev.args with
    | [] -> ""
    | args ->
      " "
      ^ String.concat " "
          (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (arg_to_text v)) args)
  in
  Printf.sprintf "%12Ld tid=%d %c %s%s%s" ev.ts ev.tid (ph_char ev.ph)
    (if ev.cat = "" then "" else ev.cat ^ ":")
    ev.name args

let to_text t =
  let evs = events t in
  String.concat "" (List.map (fun ev -> event_to_text ev ^ "\n") evs)

type format =
  | Json
  | Text

let render fmt t =
  match fmt with Json -> to_chrome_json t | Text -> to_text t

let summary t =
  let evs = events t in
  let spans = List.length (List.filter (fun e -> e.ph = Begin) evs) in
  let tids = List.sort_uniq compare (List.map (fun e -> e.tid) evs) in
  Printf.sprintf "%d events (%d spans, %d worker%s)" (List.length evs) spans
    (List.length tids)
    (if List.length tids = 1 then "" else "s")

(* --- profile ---------------------------------------------------------- *)

type row = {
  row_name : string;
  calls : int;
  total : int64;
  instants : int;
  last : int option;
}

(* One pass in emission order.  A Begin waits in [opens] under its span
   id until its End arrives; a Begin an exception left open never does,
   so it adds nothing.  Rows are sorted by name: hashtable order must
   never reach the printout. *)
let profile t =
  let rows = Hashtbl.create 32 and opens = Hashtbl.create 32 in
  let update name f =
    let r =
      match Hashtbl.find_opt rows name with
      | Some r -> r
      | None ->
        { row_name = name; calls = 0; total = 0L; instants = 0; last = None }
    in
    Hashtbl.replace rows name (f r)
  in
  List.iter
    (fun ev ->
      match ev.ph with
      | Begin -> Hashtbl.replace opens ev.span_id ev.ts
      | End -> (
        match Hashtbl.find_opt opens ev.span_id with
        | None -> ()
        | Some t0 ->
          Hashtbl.remove opens ev.span_id;
          update ev.name (fun r ->
              {
                r with
                calls = r.calls + 1;
                total = Int64.add r.total (Int64.sub ev.ts t0);
              }))
      | Instant ->
        update ev.name (fun r -> { r with instants = r.instants + 1 })
      | Counter -> (
        match List.assoc_opt "value" ev.args with
        | Some (Int v) -> update ev.name (fun r -> { r with last = Some v })
        | Some (Str _) | None -> ()))
    (events t);
  Hashtbl.fold (fun _ r acc -> r :: acc) rows []
  |> List.sort (fun a b -> String.compare a.row_name b.row_name)

let pretty_ns ns =
  let ns = Int64.to_float ns in
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let profile_to_text t =
  let duration d =
    match t.clock with
    | Wall -> pretty_ns d
    | Logical -> Printf.sprintf "%Ld ticks" d
  in
  let rows = profile t in
  let width =
    List.fold_left (fun w r -> max w (String.length r.row_name)) 4 rows
  in
  let buf = Buffer.create 1024 in
  let line = Printf.bprintf buf "%-*s %8s %12s %12s %8s %8s\n" width in
  line "name" "calls" "total" "per call" "instants" "counter";
  List.iter
    (fun r ->
      let spans = r.calls > 0 in
      let cell present s = if present then s else "-" in
      line r.row_name
        (cell spans (string_of_int r.calls))
        (cell spans (duration r.total))
        (cell spans
           (duration (Int64.div r.total (Int64.of_int (max 1 r.calls)))))
        (cell (r.instants > 0) (string_of_int r.instants))
        (match r.last with Some v -> string_of_int v | None -> "-"))
    rows;
  Buffer.contents buf
