(* Text and JSON renderers for mined requirements.  Both are
   deterministic functions of the requirement list alone (ids are
   assigned in document order by [Extract.mine]), so the output is
   byte-identical across --jobs values and cache states. *)

let summary_counts reqs =
  let compiled = List.filter (fun r -> r.Req.rule <> None) reqs in
  let checkable = List.filter Req.checkable reqs in
  (List.length reqs, List.length compiled, List.length checkable)

let text ~protocol reqs =
  let buf = Buffer.create 1024 in
  let mined, compiled, checkable = summary_counts reqs in
  Buffer.add_string buf
    (Printf.sprintf "%s: %d requirement(s) mined, %d compiled, %d checkable\n"
       protocol mined compiled checkable);
  List.iter
    (fun (r : Req.t) ->
      Buffer.add_string buf (Fmt.str "%a\n" Req.pp r);
      Buffer.add_string buf (Printf.sprintf "    %s\n" r.Req.sentence))
    reqs;
  Buffer.contents buf

(* ---- JSON (stable field order) ---- *)

module Json = Sage_json.Json

let req_json (r : Req.t) =
  let opt key = function Some v -> [ (key, Json.Str v) ] | None -> [] in
  Json.Obj
    ([
       ("id", Json.Str r.Req.id);
       ("level", Json.Str (Req.level_name r.Req.level));
       ("protocol", Json.Str r.Req.protocol);
       ( "obligation",
         match r.Req.rule with
         | Some { Req.obligation; _ } ->
           Json.Str (Req.obligation_name obligation)
         | None -> Json.Null );
       ("checkable", Json.Bool (Req.checkable r));
       ("functions", Json.Arr (List.map (fun f -> Json.Str f) r.Req.fns));
       ("sentence", Json.Str r.Req.sentence);
     ]
    @ opt "message" r.Req.message
    @ opt "field" r.Req.field
    @ if r.Req.note = "" then [] else [ ("note", Json.Str r.Req.note) ])

let json ~protocol reqs =
  let mined, compiled, checkable = summary_counts reqs in
  let buf = Buffer.create 1024 in
  Json.add_envelope buf
    [
      ("protocol", Json.Str protocol);
      ("mined", Json.int mined);
      ("compiled", Json.int compiled);
      ("checkable", Json.int checkable);
    ]
    "requirements" (List.map req_json reqs);
  Buffer.contents buf
