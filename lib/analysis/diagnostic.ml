type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  fn_name : string;
  protocol : string;
  text : string;
  field : string option;
  stmt_id : int option;
  sentence : string option;
}

let v ?field ?stmt_id ?sentence ~code ~severity ~fn_name ~protocol text =
  { code; severity; fn_name; protocol; text; field; stmt_id; sentence }

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

(* (function, code, stmt id) leads so `analyze --format json` output is
   byte-identical however the diagnostics were produced (whatever
   --jobs, whatever check emitted first); severity/field/text break the
   remaining ties.  [None] statement ids (program-level findings like
   SA011, or checks that predate ids) order after located ones. *)
let compare_stmt_id a b =
  match a, b with
  | None, None -> 0
  | None, Some _ -> 1
  | Some _, None -> -1
  | Some a, Some b -> compare a b

let compare_diag a b =
  let c = compare a.fn_name b.fn_name in
  if c <> 0 then c
  else
    let c = compare a.code b.code in
    if c <> 0 then c
    else
      let c = compare_stmt_id a.stmt_id b.stmt_id in
      if c <> 0 then c
      else
        let c = compare (severity_rank a.severity) (severity_rank b.severity) in
        if c <> 0 then c
        else
          let c = compare a.field b.field in
          if c <> 0 then c else compare a.text b.text

let sort diags = List.stable_sort compare_diag diags

let count sev diags = List.length (List.filter (fun d -> d.severity = sev) diags)
let errors diags = count Error diags
let warnings diags = count Warning diags
let has_errors diags = List.exists (fun d -> d.severity = Error) diags

(* ---- text renderer ---- *)

let to_string d =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "%-7s %s %s: %s" (severity_name d.severity) d.code
       d.fn_name d.text);
  (match d.field with
   | Some f -> Buffer.add_string buf (Printf.sprintf " [field: %s]" f)
   | None -> ());
  (match d.stmt_id with
   | Some id -> Buffer.add_string buf (Printf.sprintf " [stmt %d]" id)
   | None -> ());
  (match d.sentence with
   | Some s -> Buffer.add_string buf (Printf.sprintf "\n        spec: %S" s)
   | None -> ());
  Buffer.contents buf

let render_text ?(protocol = "") diags =
  let diags = sort diags in
  let buf = Buffer.create 1024 in
  let label = if protocol = "" then "" else protocol ^ ": " in
  if diags = [] then
    Buffer.add_string buf
      (Printf.sprintf "%sstatic analysis: no findings\n" label)
  else begin
    List.iter
      (fun d ->
        Buffer.add_string buf (to_string d);
        Buffer.add_char buf '\n')
      diags;
    Buffer.add_string buf
      (Printf.sprintf "%sstatic analysis: %d error(s), %d warning(s), %d info\n"
         label (errors diags) (warnings diags) (count Info diags))
  end;
  Buffer.contents buf

(* ---- JSON renderer (stable field order) ---- *)

module Json = Sage_json.Json

let json d =
  let opt key f = function Some v -> [ (key, f v) ] | None -> [] in
  Json.Obj
    ([
       ("code", Json.Str d.code);
       ("severity", Json.Str (severity_name d.severity));
       ("function", Json.Str d.fn_name);
       ("protocol", Json.Str d.protocol);
       ("message", Json.Str d.text);
     ]
    @ opt "field" (fun f -> Json.Str f) d.field
    @ opt "stmt" Json.int d.stmt_id
    @ opt "sentence" (fun s -> Json.Str s) d.sentence)

let to_json d = Json.to_string (json d)

let render_json ?(protocol = "") diags =
  let diags = sort diags in
  let buf = Buffer.create 1024 in
  Json.add_envelope buf
    [
      ("protocol", Json.Str protocol);
      ("errors", Json.int (errors diags));
      ("warnings", Json.int (warnings diags));
      ("infos", Json.int (count Info diags));
    ]
    "diagnostics" (List.map json diags);
  Buffer.contents buf
