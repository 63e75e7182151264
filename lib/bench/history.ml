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
(* Minimal JSON tree parser.  The repo deliberately carries no JSON    *)
(* dependency; this accepts standard JSON (objects, arrays, strings    *)
(* with the common escapes, numbers, true/false/null) — everything the *)
(* canonical printer emits and then some.                              *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= n then fail "unterminated escape";
        (match s.[!pos] with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | 'r' -> Buffer.add_char buf '\r'
         | c -> fail (Printf.sprintf "unsupported escape '\\%c'" c));
        incr pos;
        go ()
      | c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numchar s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ()
          | Some '}' -> incr pos
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            elements ()
          | Some ']' -> incr pos
          | _ -> fail "expected ',' or ']'"
        in
        elements ();
        Arr (List.rev !items)
      end
    | Some 't' -> parse_literal "true" (Bool true)
    | Some 'f' -> parse_literal "false" (Bool false)
    | Some 'n' -> parse_literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing characters after document";
  v

(* ------------------------------------------------------------------ *)
(* JSON <-> history                                                    *)
(* ------------------------------------------------------------------ *)

let field name = function
  | Obj fields ->
    (match List.assoc_opt name fields with
     | Some v -> v
     | None -> raise (Parse_error (Printf.sprintf "missing field %S" name)))
  | _ -> raise (Parse_error (Printf.sprintf "expected object with %S" name))

let as_str what = function
  | Str s -> s
  | _ -> raise (Parse_error (Printf.sprintf "%s: expected string" what))

let as_num what = function
  | Num f -> f
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
    | Obj fields -> List.map (fun (k, v) -> (k, sample_of_json k v)) fields
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
    | Arr items -> List.map record_of_json items
    | _ -> raise (Parse_error "commits: expected array")
  in
  { schema; records }

let of_string s =
  match of_json (parse_json s) with
  | t -> Ok t
  | exception Parse_error msg -> Error msg

(* canonical printer: the exact shape of_string accepts back *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "{\n  \"schema\": %d,\n" t.schema);
  Buffer.add_string buf "  \"commits\": [";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n    {\n      \"commit\": \"%s\",\n"
           (escape r.commit));
      Buffer.add_string buf
        (Printf.sprintf "      \"date\": \"%s\",\n" (escape r.date));
      Buffer.add_string buf "      \"entries\": {";
      List.iteri
        (fun j (key, s) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf
               "\n        \"%s\": { \"ns\": %.1f, \"iters\": %d, \
                \"backend\": \"%s\" }"
               (escape key) s.ns s.iters (escape s.backend)))
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

(* Merge two histories: records with the same (commit, date) are fused
   (right-biased on a key collision), groups are ordered by (date,
   commit) so the result is independent of argument order whenever the
   shared records' keys are disjoint. *)
let merge a b =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  let add r =
    let k = (r.commit, r.date) in
    match Hashtbl.find_opt tbl k with
    | None ->
      Hashtbl.replace tbl k r.entries;
      order := k :: !order
    | Some existing ->
      let fused =
        List.fold_left
          (fun acc (key, s) -> (key, s) :: List.remove_assoc key acc)
          existing r.entries
      in
      Hashtbl.replace tbl k fused
  in
  List.iter add a.records;
  List.iter add b.records;
  let records =
    List.rev !order
    |> List.sort (fun (c1, d1) (c2, d2) -> compare (d1, c1) (d2, c2))
    |> List.map (fun (commit, date) ->
           normalize_record
             { commit; date; entries = Hashtbl.find tbl (commit, date) })
  in
  { schema = max a.schema b.schema; records }

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

(* median of the last [window] recorded values: a single noisy commit
   cannot move the baseline by itself *)
let baseline ?(window = 5) t key =
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

let load file =
  if not (Sys.file_exists file) then Ok empty
  else begin
    let ic = open_in_bin file in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    of_string s
  end

let save file t = write_atomic file (to_string t)
