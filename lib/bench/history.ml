(* Append-only per-commit benchmark trajectory: BENCH_history.json.

   Schema (version 1):

     { "schema": 1,
       "commits": [
         { "commit": "<sha or label>",
           "date": "<ISO yyyy-mm-dd>",
           "entries": {
             "<key>": { "ns": <float>, "iters": <int>, "backend": "<s>" },
             ... } },
         ... ] }

   Commits stay in chronological (append) order; entries within a
   commit are kept sorted by key so the canonical printer round-trips
   through the parser and the file diffs cleanly across runs.  `ns` is
   printed with one decimal. *)

type sample = { ns : float; iters : int; backend : string }

type record = {
  commit : string;
  date : string;
  entries : (string * sample) list; (* sorted by key *)
}

type t = { schema : int; records : record list (* chronological *) }

let schema_version = 1
let empty = { schema = schema_version; records = [] }

let normalize_record r =
  { r with entries = List.sort (fun (a, _) (b, _) -> compare a b) r.entries }

(* ------------------------------------------------------------------ *)
(* JSON <-> history                                                    *)
(* ------------------------------------------------------------------ *)

module Json = Sage_json.Json

exception Parse_error of string

let field name = function
  | Json.Obj fields ->
    (match List.assoc_opt name fields with
     | Some v -> v
     | None -> raise (Parse_error (Printf.sprintf "missing field %S" name)))
  | _ -> raise (Parse_error (Printf.sprintf "expected object with %S" name))

let as_str what = function
  | Json.Str s -> s
  | _ -> raise (Parse_error (Printf.sprintf "%s: expected string" what))

let as_num what = function
  | Json.Num f -> f
  | _ -> raise (Parse_error (Printf.sprintf "%s: expected number" what))

let sample_of_json key j =
  {
    ns = as_num (key ^ ".ns") (field "ns" j);
    iters = int_of_float (as_num (key ^ ".iters") (field "iters" j));
    backend = as_str (key ^ ".backend") (field "backend" j);
  }

let record_of_json j =
  let entries =
    match field "entries" j with
    | Json.Obj fields -> List.map (fun (k, v) -> (k, sample_of_json k v)) fields
    | _ -> raise (Parse_error "entries: expected object")
  in
  normalize_record
    {
      commit = as_str "commit" (field "commit" j);
      date = as_str "date" (field "date" j);
      entries;
    }

let of_json j =
  let schema = int_of_float (as_num "schema" (field "schema" j)) in
  if schema <> schema_version then
    raise
      (Parse_error
         (Printf.sprintf "unsupported schema version %d (want %d)" schema
            schema_version));
  let records =
    match field "commits" j with
    | Json.Arr items -> List.map record_of_json items
    | _ -> raise (Parse_error "commits: expected array")
  in
  { schema; records }

let of_string s =
  Result.bind (Json.parse s) (fun j ->
      try Ok (of_json j) with Parse_error msg -> Error msg)

(* canonical printer: the exact shape of_string accepts back *)

let to_string t =
  let buf = Buffer.create 1024 in
  let str = Json.add_string in
  Printf.bprintf buf "{\n  \"schema\": %d,\n  \"commits\": [" t.schema;
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "\n    {\n      \"commit\": %a,\n      \"date\": %a,\n\
        \      \"entries\": {"
        str r.commit str r.date;
      List.iteri
        (fun j (key, s) ->
          if j > 0 then Buffer.add_char buf ',';
          Printf.bprintf buf
            "\n        %a: { \"ns\": %.1f, \"iters\": %d, \"backend\": %a }" str
            key s.ns s.iters str s.backend)
        r.entries;
      if r.entries <> [] then Buffer.add_string buf "\n      ";
      Buffer.add_string buf "}\n    }")
    t.records;
  if t.records <> [] then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "]\n}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Mutation                                                            *)
(* ------------------------------------------------------------------ *)

let append t r = { t with records = t.records @ [ normalize_record r ] }

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let keys t =
  List.sort_uniq compare
    (List.concat_map (fun r -> List.map fst r.entries) t.records)

(* all samples for a key, in trajectory (append) order *)
let samples t key =
  List.filter_map (fun r -> List.assoc_opt key r.entries) t.records

let trajectory t key = List.map (fun s -> s.ns) (samples t key)

let latest t key =
  match List.rev (samples t key) with [] -> None | s :: _ -> Some s

let best t key =
  List.fold_left
    (fun acc s ->
      match acc with
      | None -> Some s
      | Some b -> if s.ns < b.ns then Some s else Some b)
    None (samples t key)

let default_window = 5

(* median of the last [window] recorded values: a single noisy commit
   cannot move the baseline by itself *)
let baseline ?(window = default_window) t key =
  let ns = trajectory t key in
  let len = List.length ns in
  let tail =
    if len <= window then ns
    else List.filteri (fun i _ -> i >= len - window) ns
  in
  match List.sort compare tail with
  | [] -> None
  | sorted ->
    let k = List.length sorted in
    if k mod 2 = 1 then Some (List.nth sorted (k / 2))
    else Some ((List.nth sorted ((k / 2) - 1) +. List.nth sorted (k / 2)) /. 2.)

(* ------------------------------------------------------------------ *)
(* File IO                                                             *)
(* ------------------------------------------------------------------ *)

(* Atomic replace: write a sibling temp file, then rename over the
   target.  An interrupted writer can leave a stale temp file behind
   but never a torn target. *)
let write_atomic file content =
  let tmp = file ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try output_string oc content
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  Sys.rename tmp file

(* A path that exists but cannot be read (a directory, a file without
   read permission) is an [Error], not an exception; the channel is
   closed either way. *)
let load file =
  if not (Sys.file_exists file) then Ok empty
  else
    match In_channel.with_open_bin file In_channel.input_all with
    | s -> of_string s
    | exception Sys_error msg -> Error msg

let save file t = write_atomic file (to_string t)
