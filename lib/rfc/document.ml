type code_value = { value : int; meaning : string }

type field_content =
  | Fixed_value of int
  | Code_values of code_value list
  | Prose of string list
  | Pseudo of string

type field_desc = {
  field_name : string;
  field_ident : string;
  content : field_content list;
}

type section = {
  message_name : string;
  diagram : Header_diagram.t option;
  fields : field_desc list;
  description : string list;
  ip_fields : field_desc list;
}

type t = { title : string; preamble : string list; sections : section list }

let indent_of line =
  let n = String.length line in
  let rec go i = if i < n && line.[i] = ' ' then go (i + 1) else i in
  go 0

let is_blank line = String.trim line = ""

let is_diagram_line line =
  Header_diagram.is_separator line
  || Header_diagram.is_content line
  || (Header_diagram.is_ruler line && String.length (String.trim line) > 10)

(* "0 = Echo Reply" / "1 = host unreachable;" / "8 for echo message;" *)
let parse_code_value line =
  let line = String.trim line in
  let strip_tail rhs =
    let rhs = String.trim rhs in
    if rhs <> "" && (rhs.[String.length rhs - 1] = ';' || rhs.[String.length rhs - 1] = '.')
    then String.trim (String.sub rhs 0 (String.length rhs - 1))
    else rhs
  in
  let for_idiom () =
    (* "<value> for <meaning>" *)
    match String.index_opt line ' ' with
    | Some i ->
      let lhs = String.sub line 0 i in
      let rest = String.sub line (i + 1) (String.length line - i - 1) in
      if String.length rest > 4 && String.sub rest 0 4 = "for " then
        match int_of_string_opt lhs with
        | Some value ->
          let meaning = strip_tail (String.sub rest 4 (String.length rest - 4)) in
          if meaning = "" then None else Some { value; meaning }
        | None -> None
      else None
    | None -> None
  in
  match for_idiom () with
  | Some cv -> Some cv
  | None ->
  match String.index_opt line '=' with
  | Some i when i >= 1 ->
    let lhs = String.trim (String.sub line 0 i) in
    let rhs = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
    let rhs =
      (* drop trailing ';' or '.' *)
      if rhs <> "" && (rhs.[String.length rhs - 1] = ';' || rhs.[String.length rhs - 1] = '.')
      then String.trim (String.sub rhs 0 (String.length rhs - 1))
      else rhs
    in
    (match int_of_string_opt lhs with
     | Some value when rhs <> "" && not (String.contains rhs '=') ->
       (* exclude real equations like "code = 0" (rhs would be short and
          numeric) — a code-value meaning is a phrase, not a number *)
       (match int_of_string_opt rhs with
        | Some _ -> None
        | None -> Some { value; meaning = rhs })
     | _ -> None)
  | _ -> None

let behavior_headings = [ "description"; "summary of message types"; "addressing" ]

(* Parse the body lines of one field description into content items. *)
let parse_field_content lines =
  let text_of block = String.concat "\n" (List.rev block) in
  let flush_prose block acc =
    if block = [] then acc
    else Prose (Sage_nlp.Tokenizer.sentences (text_of block)) :: acc
  in
  let rec go acc block = function
    | [] -> List.rev (flush_prose block acc)
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" then go acc block rest
      else if
        String.length trimmed >= 5
        && String.lowercase_ascii (String.sub trimmed 0 5) = "begin"
      then begin
        (* a pseudo-code block runs to its matching (unnested) "end" *)
        let acc = flush_prose block acc in
        let rec take depth taken = function
          | [] -> (List.rev taken, [])
          | l :: more ->
            let t = String.lowercase_ascii (String.trim l) in
            let depth =
              if String.length t >= 5 && String.sub t 0 5 = "begin" then depth + 1
              else depth
            in
            if t = "end" || t = "end;" then
              if depth - 1 = 0 then (List.rev (l :: taken), more)
              else take (depth - 1) (l :: taken) more
            else take depth (l :: taken) more
        in
        let block_lines, rest' = take 1 [ line ] rest in
        go (Pseudo (String.concat "\n" block_lines) :: acc) [] rest'
      end
      else
        match parse_code_value line with
        | Some cv ->
          let acc = flush_prose block acc in
          (* gather a run of code values *)
          let rec run cvs = function
            | l :: more when String.trim l = "" -> run cvs more
            | l :: more ->
              (match parse_code_value l with
               | Some cv' -> run (cv' :: cvs) more
               | None -> (List.rev cvs, l :: more))
            | [] -> (List.rev cvs, [])
          in
          let cvs, rest' = run [ cv ] rest in
          go (Code_values cvs :: acc) [] rest'
        | None ->
          (match int_of_string_opt trimmed with
           | Some v when block = [] ->
             go (Fixed_value v :: flush_prose block acc) [] rest
           | _ -> go acc (trimmed :: block) rest)
  in
  go [] [] lines

let parse ~title text =
  let lines = String.split_on_char '\n' text in
  (* group into sections by column-0 headings *)
  let sections_raw = ref [] in
  let preamble = ref [] in
  let current_name = ref None in
  let current_lines = ref [] in
  let flush () =
    match !current_name with
    | None -> preamble := List.rev !current_lines
    | Some name -> sections_raw := (name, List.rev !current_lines) :: !sections_raw
  in
  List.iter
    (fun line ->
      if (not (is_blank line)) && indent_of line = 0 && not (is_diagram_line line)
      then begin
        flush ();
        current_name := Some (String.trim line);
        current_lines := []
      end
      else current_lines := line :: !current_lines)
    lines;
  flush ();
  let parse_section (name, body) =
    (* split into diagram lines and the rest *)
    let diagram_lines = List.filter is_diagram_line body in
    let diagram =
      if List.exists Header_diagram.is_content diagram_lines then
        match Header_diagram.parse ~name (String.concat "\n" diagram_lines) with
        | Ok d -> Some d
        | Error _ -> None
      else None
    in
    let rest = List.filter (fun l -> not (is_diagram_line l)) body in
    (* field zone: indent 1..3 = field name; deeper = content *)
    let fields = ref [] in
    let current_field = ref None in
    let current_content = ref [] in
    let in_ip_fields = ref false in
    let ip_fields = ref [] in
    let flush_field () =
      match !current_field with
      | None -> ()
      | Some fname ->
        let fd =
          { field_name = fname;
            field_ident = Header_diagram.c_identifier fname;
            content = parse_field_content (List.rev !current_content) }
        in
        if !in_ip_fields then ip_fields := fd :: !ip_fields
        else fields := fd :: !fields;
        current_field := None;
        current_content := []
    in
    List.iter
      (fun line ->
        if is_blank line then current_content := line :: !current_content
        else
          let ind = indent_of line in
          let trimmed = String.trim line in
          if ind >= 1 && ind <= 3 then begin
            flush_field ();
            let lower = String.lowercase_ascii trimmed in
            let lower =
              if String.length lower > 0 && lower.[String.length lower - 1] = ':'
              then String.sub lower 0 (String.length lower - 1)
              else lower
            in
            if lower = "ip fields" then in_ip_fields := true
            else if lower = "icmp fields" || lower = "fields" then in_ip_fields := false
            else begin
              let name =
                if String.length trimmed > 0 && trimmed.[String.length trimmed - 1] = ':'
                then String.sub trimmed 0 (String.length trimmed - 1)
                else trimmed
              in
              current_field := Some name
            end
          end
          else if !current_field <> None then
            current_content := line :: !current_content
          else current_content := line :: !current_content)
      rest;
    flush_field ();
    let fields = List.rev !fields in
    let description =
      List.concat_map
        (fun fd ->
          if List.mem (String.lowercase_ascii fd.field_name) behavior_headings then
            List.concat_map
              (function Prose ss -> ss | Fixed_value _ | Code_values _ | Pseudo _ -> [])
              fd.content
          else [])
        fields
    in
    let fields =
      List.filter
        (fun fd -> not (List.mem (String.lowercase_ascii fd.field_name) behavior_headings))
        fields
    in
    {
      message_name = name;
      diagram;
      fields;
      description;
      ip_fields = List.rev !ip_fields;
    }
  in
  {
    title;
    preamble = Sage_nlp.Tokenizer.sentences (String.concat "\n" !preamble);
    sections = List.rev_map parse_section !sections_raw;
  }

let sentences_with_context t =
  let of_field msg fd =
    List.concat_map
      (function
        | Prose ss -> List.map (fun s -> (s, Some msg, Some fd.field_name)) ss
        | Fixed_value _ | Code_values _ | Pseudo _ -> [])
      fd.content
  in
  List.map (fun s -> (s, None, None)) t.preamble
  @ List.concat_map
      (fun sec ->
        List.concat_map (of_field sec.message_name) sec.fields
        @ List.concat_map (of_field sec.message_name) sec.ip_fields
        @ List.map (fun s -> (s, Some sec.message_name, None)) sec.description)
      t.sections

let find_section t name =
  let target = String.lowercase_ascii name in
  List.find_opt
    (fun sec ->
      let n = String.lowercase_ascii sec.message_name in
      String.length n >= String.length target
      && String.sub n 0 (String.length target) = target)
    t.sections

let pp ppf t =
  Fmt.pf ppf "@[<v>%s (%d sections)@," t.title (List.length t.sections);
  List.iter
    (fun sec ->
      Fmt.pf ppf "  %s: %d fields, %d behavior sentences%s@," sec.message_name
        (List.length sec.fields)
        (List.length sec.description)
        (if sec.diagram = None then "" else ", diagram"))
    t.sections;
  Fmt.pf ppf "@]"
