(* Tests for the RFC pre-processor: header diagrams and document model. *)

module Hd = Sage_rfc.Header_diagram
module Doc = Sage_rfc.Document

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let echo_art =
  "    0                   1                   2                   3\n\
  \    0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1\n\
  \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
  \   |     Type      |     Code      |          Checksum             |\n\
  \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
  \   |           Identifier          |        Sequence Number        |\n\
  \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
  \   |     Data ...\n\
  \   +-+-+-+-+-"

let test_diagram_fields () =
  match Hd.parse ~name:"echo" echo_art with
  | Error e -> Alcotest.fail e
  | Ok d ->
    let names = List.map (fun (f : Hd.field) -> f.Hd.name) d.Hd.fields in
    check
      Alcotest.(list string)
      "field names"
      [ "Type"; "Code"; "Checksum"; "Identifier"; "Sequence Number"; "Data ..." ]
      names;
    let widths = List.map (fun (f : Hd.field) -> f.Hd.bits) d.Hd.fields in
    check Alcotest.(list int) "bit widths" [ 8; 8; 16; 16; 16; 0 ] widths;
    check Alcotest.int "fixed bits" 64 (Hd.total_bits d)

let test_diagram_offsets () =
  match Hd.parse ~name:"echo" echo_art with
  | Error e -> Alcotest.fail e
  | Ok d ->
    (match Hd.find_ident d "checksum" with
     | Some f -> check Alcotest.int "checksum offset" 16 f.Hd.bit_offset
     | None -> Alcotest.fail "no checksum field");
    (match Hd.find_ident d "Sequence Number" with
     | Some f -> check Alcotest.int "seq offset" 48 f.Hd.bit_offset
     | None -> Alcotest.fail "no seq field")

let test_diagram_variable_field () =
  match Hd.parse ~name:"echo" echo_art with
  | Error e -> Alcotest.fail e
  | Ok d ->
    (match List.rev d.Hd.fields with
     | last :: _ -> check Alcotest.bool "data variable" true last.Hd.variable
     | [] -> Alcotest.fail "no fields")

let test_diagram_sub_byte_fields () =
  (* IGMP: 4-bit version and type *)
  let art =
    "   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
    \   |Version| Type  |    Unused     |           Checksum            |\n\
    \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+"
  in
  match Hd.parse ~name:"igmp" art with
  | Error e -> Alcotest.fail e
  | Ok d ->
    let widths = List.map (fun (f : Hd.field) -> f.Hd.bits) d.Hd.fields in
    check Alcotest.(list int) "4/4/8/16" [ 4; 4; 8; 16 ] widths

let test_diagram_single_bit_flags () =
  (* BFD flag bits *)
  let art =
    "   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
    \   |Vers |  Diag   |Sta|P|F|C|A|D|M|  Detect Mult  |    Length     |\n\
    \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+"
  in
  match Hd.parse ~name:"bfd" art with
  | Error e -> Alcotest.fail e
  | Ok d ->
    let widths = List.map (fun (f : Hd.field) -> f.Hd.bits) d.Hd.fields in
    check Alcotest.(list int) "bit layout" [ 3; 5; 2; 1; 1; 1; 1; 1; 1; 8; 8 ] widths;
    check Alcotest.int "32-bit row" 32 (Hd.total_bits d)

let test_diagram_64bit_merge () =
  (* consecutive rows with the same label merge (NTP timestamps) *)
  let art =
    "   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
    \   |                     Transmit Timestamp                        |\n\
    \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
    \   |                     Transmit Timestamp                        |\n\
    \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+"
  in
  match Hd.parse ~name:"ntp" art with
  | Error e -> Alcotest.fail e
  | Ok d ->
    (match d.Hd.fields with
     | [ f ] -> check Alcotest.int "64 bits" 64 f.Hd.bits
     | fs -> Alcotest.failf "expected 1 merged field, got %d" (List.length fs))

let test_diagram_error_on_garbage () =
  match Hd.parse ~name:"x" "not a diagram at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"

let test_c_identifier () =
  check Alcotest.string "spaces" "sequence_number" (Hd.c_identifier "Sequence Number");
  check Alcotest.string "plus dropped"
    "internet_header_64_bits_of_original_data_datagram"
    (Hd.c_identifier "Internet Header + 64 bits of Original Data Datagram");
  check Alcotest.string "dots" "bfd_sessionstate" (Hd.c_identifier "bfd.SessionState");
  check Alcotest.string "empty fallback" "field" (Hd.c_identifier "+++")

let test_c_struct_rendering () =
  match Hd.parse ~name:"Echo Message" echo_art with
  | Error e -> Alcotest.fail e
  | Ok d ->
    let s = Hd.to_c_struct d in
    check Alcotest.bool "struct name" true
      (Astring_contains.contains s "struct echo_message");
    check Alcotest.bool "uint16 checksum" true
      (Astring_contains.contains s "uint16_t checksum;");
    check Alcotest.bool "flexible data member" true
      (Astring_contains.contains s "uint8_t data[];")

(* ---- document model ---- *)

let sample_doc =
  "Test Message\n\n" ^ echo_art ^ "\n\n" ^
  "   ICMP Fields:\n\n\
  \   Type\n\n\
  \      8 for echo message;\n\
  \      0 for echo reply message.\n\n\
  \   Code\n\n\
  \      0\n\n\
  \   Checksum\n\n\
  \      The checksum is zero.  For computing the checksum, the checksum\n\
  \      field should be zero.\n\n\
  \   Description\n\n\
  \      The data in the echo message is returned in the echo reply\n\
  \      message.\n"

let parsed = lazy (Doc.parse ~title:"test" sample_doc)

let test_document_sections () =
  let doc = Lazy.force parsed in
  check Alcotest.int "one section" 1 (List.length doc.Doc.sections);
  let sec = List.hd doc.Doc.sections in
  check Alcotest.string "name" "Test Message" sec.Doc.message_name;
  check Alcotest.bool "diagram" true (sec.Doc.diagram <> None)

let test_document_fields () =
  let sec = List.hd (Lazy.force parsed).Doc.sections in
  let names = List.map (fun f -> f.Doc.field_name) sec.Doc.fields in
  check Alcotest.(list string) "field names" [ "Type"; "Code"; "Checksum" ] names

let test_document_code_values () =
  let sec = List.hd (Lazy.force parsed).Doc.sections in
  let ty = List.hd sec.Doc.fields in
  match ty.Doc.content with
  | [ Doc.Code_values cvs ] ->
    check Alcotest.int "two values" 2 (List.length cvs);
    let cv = List.hd cvs in
    check Alcotest.int "value" 8 cv.Doc.value;
    check Alcotest.string "meaning" "echo message" cv.Doc.meaning
  | _ -> Alcotest.fail "expected code values"

let test_document_fixed_value () =
  let sec = List.hd (Lazy.force parsed).Doc.sections in
  let code = List.nth sec.Doc.fields 1 in
  match code.Doc.content with
  | [ Doc.Fixed_value 0 ] -> ()
  | _ -> Alcotest.fail "expected fixed value 0"

let test_document_prose_sentences () =
  let sec = List.hd (Lazy.force parsed).Doc.sections in
  let cks = List.nth sec.Doc.fields 2 in
  match cks.Doc.content with
  | [ Doc.Prose ss ] -> check Alcotest.int "two sentences" 2 (List.length ss)
  | _ -> Alcotest.fail "expected prose"

let test_document_description () =
  let sec = List.hd (Lazy.force parsed).Doc.sections in
  check Alcotest.int "description sentence" 1 (List.length sec.Doc.description)

let test_sentences_with_context () =
  let doc = Lazy.force parsed in
  let ss = Doc.sentences_with_context doc in
  check Alcotest.int "3 prose sentences" 3 (List.length ss);
  let _, msg, field = List.hd ss in
  check Alcotest.(option string) "message ctx" (Some "Test Message") msg;
  check Alcotest.(option string) "field ctx" (Some "Checksum") field

let test_equals_code_value_idiom () =
  let doc =
    Doc.parse ~title:"t"
      "Msg\n\n   Code\n\n      0 = net unreachable;\n      1 = host unreachable.\n"
  in
  let sec = List.hd doc.Doc.sections in
  match (List.hd sec.Doc.fields).Doc.content with
  | [ Doc.Code_values [ cv0; cv1 ] ] ->
    check Alcotest.string "meaning 0" "net unreachable" cv0.Doc.meaning;
    check Alcotest.int "value 1" 1 cv1.Doc.value
  | _ -> Alcotest.fail "expected code values"

let test_ip_fields_zone () =
  let doc =
    Doc.parse ~title:"t"
      "Msg\n\n   IP Fields:\n\n   Destination Address\n\n      The source network.\n\n\
      \   ICMP Fields:\n\n   Type\n\n      3\n"
  in
  let sec = List.hd doc.Doc.sections in
  check Alcotest.int "one ip field" 1 (List.length sec.Doc.ip_fields);
  check Alcotest.string "ip field name" "Destination Address"
    (List.hd sec.Doc.ip_fields).Doc.field_name;
  check Alcotest.int "one icmp field" 1 (List.length sec.Doc.fields)

let test_find_section () =
  let doc = Lazy.force parsed in
  check Alcotest.bool "prefix find" true (Doc.find_section doc "test" <> None);
  check Alcotest.bool "absent" true (Doc.find_section doc "nonexistent" = None)

let test_corpus_documents_parse () =
  let icmp = Doc.parse ~title:"icmp" Sage_corpus.Icmp_rfc.text in
  check Alcotest.int "ICMP: 8 sections" 8 (List.length icmp.Doc.sections);
  check Alcotest.bool "every section has a diagram" true
    (List.for_all (fun s -> s.Doc.diagram <> None) icmp.Doc.sections);
  let total = List.length (Doc.sentences_with_context icmp) in
  check Alcotest.bool
    (Printf.sprintf "ICMP sentence count %d close to the paper's 87" total)
    true
    (total >= 75 && total <= 95);
  let igmp = Doc.parse ~title:"igmp" Sage_corpus.Igmp_rfc.text in
  check Alcotest.int "IGMP: 1 section" 1 (List.length igmp.Doc.sections);
  let bfd = Doc.parse ~title:"bfd" Sage_corpus.Bfd_rfc.text in
  check Alcotest.int "BFD: 3 sections" 3 (List.length bfd.Doc.sections)

(* every per-field lookup compares [ident]s, so each field of every
   shipped diagram (and each described field) must carry the identifier
   of its own name *)
let test_corpus_idents () =
  List.iter
    (fun (c : Sage.Pipeline.corpus) ->
      let doc = Doc.parse ~title:c.Sage.Pipeline.title c.Sage.Pipeline.text in
      List.iter
        (fun (s : Doc.section) ->
          Option.iter
            (fun (d : Hd.t) ->
              List.iter
                (fun (f : Hd.field) ->
                  check Alcotest.string
                    (c.Sage.Pipeline.name ^ ": " ^ f.Hd.name)
                    (Hd.c_identifier f.Hd.name) f.Hd.ident)
                d.Hd.fields)
            s.Doc.diagram;
          List.iter
            (fun (fd : Doc.field_desc) ->
              check Alcotest.string
                (c.Sage.Pipeline.name ^ ": " ^ fd.Doc.field_name)
                (Hd.c_identifier fd.Doc.field_name) fd.Doc.field_ident)
            (s.Doc.fields @ s.Doc.ip_fields))
        doc.Doc.sections)
    Sage.Pipeline.corpora

let test_icmp_corpus_structs () =
  let icmp = Doc.parse ~title:"icmp" Sage_corpus.Icmp_rfc.text in
  let echo = Option.get (Doc.find_section icmp "Echo or Echo Reply") in
  let d = Option.get echo.Doc.diagram in
  check Alcotest.int "echo fixed bytes: 8" 64 (Hd.total_bits d);
  let ts = Option.get (Doc.find_section icmp "Timestamp or Timestamp Reply") in
  let dt = Option.get ts.Doc.diagram in
  check Alcotest.int "timestamp fixed bytes: 20" 160 (Hd.total_bits dt)

(* ---- state-machine diagrams (the 7 future-work component) ---- *)

module Sd = Sage_rfc.State_diagram

let bfd_fsm_art = {|
                                    +--+
                                    |  | UP, ADMIN DOWN, TIMER
                                    |  V
                            DOWN  +------+  INIT
                     +------------|      |------------+
                     |            | DOWN |            |
                     |  +-------->|      |<--------+  |
                     |  |         +------+         |  |
                     |  |                          |  |
                     |  |               ADMIN DOWN,|  |
                     |  |ADMIN DOWN,          DOWN,|  |
                     |  |TIMER                TIMER|  |
                     V  |                          |  V
                   +------+                      +------+
              +----|      |                      |      |----+
          DOWN|    | INIT |--------------------->|  UP  |    |INIT, UP
              +--->|      |        INIT, UP      |      |<---+
                   +------+                      +------+
|}

let test_state_diagram_bfd () =
  match Sd.parse bfd_fsm_art with
  | Error e -> Alcotest.fail e
  | Ok t ->
    check
      Alcotest.(list string)
      "all three states found"
      [ "DOWN"; "INIT"; "UP" ]
      (List.map (fun (s : Sd.state) -> s.Sd.state_name) t.Sd.states);
    (match t.Sd.transitions with
     | [ tr ] ->
       check Alcotest.string "from" "INIT" tr.Sd.from_state;
       check Alcotest.string "to" "UP" tr.Sd.to_state;
       check Alcotest.string "label" "INIT, UP" tr.Sd.label
     | other -> Alcotest.failf "%d transitions" (List.length other));
    (* the recovered transition lowers to the same LFs as the prose *)
    let lfs = List.map Sage_logic.Lf.to_string (Sd.to_lfs t) in
    check
      Alcotest.(list string)
      "logical forms"
      [
        "@If(@And(@Cmp('eq', 'state', 'INIT'), @Cmp('eq', 'received state', 'INIT')), @Set('state', 'UP'))";
        "@If(@And(@Cmp('eq', 'state', 'INIT'), @Cmp('eq', 'received state', 'UP')), @Set('state', 'UP'))";
      ]
      lfs

let test_state_diagram_bidirectional () =
  let art = {|
   +------+             +--------+
   | COLD |------------>| WARMED |
   +------+   START     |        |
                        +--------+
|} in
  match Sd.parse art with
  | Error e -> Alcotest.fail e
  | Ok t ->
    check Alcotest.int "two states" 2 (List.length t.Sd.states);
    (match t.Sd.transitions with
     | [ tr ] ->
       check Alcotest.string "from" "COLD" tr.Sd.from_state;
       check Alcotest.string "to" "WARMED" tr.Sd.to_state;
       check Alcotest.string "label below" "START" tr.Sd.label
     | other -> Alcotest.failf "%d transitions" (List.length other))

let test_state_diagram_leftward () =
  let art = {|
   +------+   RESET     +------+
   | IDLE |<------------| BUSY |
   +------+             +------+
|} in
  match Sd.parse art with
  | Error e -> Alcotest.fail e
  | Ok t ->
    (match t.Sd.transitions with
     | [ tr ] ->
       check Alcotest.string "from" "BUSY" tr.Sd.from_state;
       check Alcotest.string "to" "IDLE" tr.Sd.to_state;
       check Alcotest.string "label above" "RESET" tr.Sd.label
     | other -> Alcotest.failf "%d transitions" (List.length other))

let test_state_diagram_no_boxes () =
  match Sd.parse "just some prose, no boxes" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted input without boxes"

(* [is_c_identifier] is [c_identifier]'s fixed-point test, over labels
   drawn from the characters [c_identifier] keeps, maps or drops *)
let prop_is_c_identifier_fixed_point =
  let alphabet = "abz09AZ_ -." in
  Qcheck_lite.test ~count:500 "is_c_identifier = c_identifier fixed point"
    (Qcheck_lite.string_of ~max_len:6 (fun r ->
         alphabet.[Qcheck_lite.int_below r (String.length alphabet)]))
    (fun s -> Hd.is_c_identifier s = String.equal (Hd.c_identifier s) s)

(* ---- the geometry [Hd.v] resolves ---- *)

(* A cell whose label mentions "data" is the variable tail only when it
   is open-ended or nothing fixed-width follows it: RFC 793's "Data
   Offset" stays a 6-bit field, and only the closing "Data" row is
   variable. *)
let test_diagram_data_label_fixed () =
  let art =
    "   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
    \   |Data Offset|Reservd|U|A|P|R|S|F|            Window             |\n\
    \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
    \   |           Checksum            |        Urgent Pointer         |\n\
    \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
    \   |                             Data                              |\n\
    \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+"
  in
  match Hd.parse ~name:"tcp" art with
  | Error e -> Alcotest.fail e
  | Ok d ->
    check
      Alcotest.(list (pair string bool))
      "only the last cell is variable"
      [ ("Data Offset", false); ("Reservd", false); ("U", false);
        ("A", false); ("P", false); ("R", false); ("S", false);
        ("F", false); ("Window", false); ("Checksum", false);
        ("Urgent Pointer", false); ("Data", true) ]
      (List.map (fun (f : Hd.field) -> (f.Hd.name, f.Hd.variable)) d.Hd.fields);
    check Alcotest.int "data offset is 6 bits" 6
      (Option.get (Hd.find_ident d "Data Offset")).Hd.bits;
    check Alcotest.int "fixed bits" 64 (Hd.total_bits d);
    check Alcotest.bool "first member is a bitfield" true
      (Astring_contains.contains (Hd.to_c_struct d)
         "{\n    uint8_t data_offset : 6;")

(* NTP draws each 64-bit timestamp as two 32-bit rows; the merged field
   is built whole, so its width, mask and the fixed size all count 64
   bits *)
let test_ntp_timestamps_whole () =
  let ntp = Doc.parse ~title:"ntp" Sage_corpus.Ntp_rfc.text in
  let d =
    Option.get (List.find_map (fun s -> s.Doc.diagram) ntp.Doc.sections)
  in
  let stamps =
    List.filter
      (fun (f : Hd.field) -> Astring_contains.contains f.Hd.name "Timestamp")
      d.Hd.fields
  in
  check
    Alcotest.(list (pair string (pair int int)))
    "four whole timestamps"
    [ ("Reference Timestamp", (64, 128)); ("Originate Timestamp", (64, 192));
      ("Receive Timestamp", (64, 256)); ("Transmit Timestamp", (64, 320)) ]
    (List.map
       (fun (f : Hd.field) -> (f.Hd.name, (f.Hd.bits, f.Hd.bit_offset)))
       stamps);
  check Alcotest.(list int) "one slot each" [ 8; 9; 10; 11 ]
    (List.map (fun (f : Hd.field) -> f.Hd.slot) stamps);
  check Alcotest.int "12 fixed fields, 12 slots" 12 d.Hd.nslots;
  check Alcotest.int "48-byte header" 48 d.Hd.fixed_bytes;
  check Alcotest.int64 "64-bit mask is all ones" (-1L) (Hd.mask_of_bits 64)

(* Random cell lists over labels whose identifiers coincide in pairs,
   widths 1-64 and an optional open-ended tail: [Hd.v] numbers slots by
   first occurrence of each identifier, lists the fixed fields in order
   and rounds their bits up to bytes. *)
let geometry_labels =
  [| "Type"; "TYPE"; "Code"; "Sequence Number"; "sequence-number";
     "Reserved"; "Flags" |]

let prop_diagram_geometry =
  let label =
    Qcheck_lite.make
      ~shrink:(fun l -> if l = geometry_labels.(0) then [] else [ geometry_labels.(0) ])
      ~print:(Printf.sprintf "%S")
      (fun r ->
        geometry_labels.(Qcheck_lite.int_below r (Array.length geometry_labels)))
  in
  let tail =
    Qcheck_lite.make ~shrink:(fun t -> if t then [ false ] else [])
      ~print:string_of_bool Qcheck_lite.gen_bool
  in
  Qcheck_lite.test ~count:500 "v: slots, fixed fields and size"
    (Qcheck_lite.pair
       (Qcheck_lite.list_of ~max_len:12
          (Qcheck_lite.pair label (Qcheck_lite.int_range 1 64)))
       tail)
    (fun (cells, tail) ->
      let cells =
        List.map (fun (l, bits) -> (l, bits, false)) cells
        @ if tail then [ ("Data ...", 0, true) ] else []
      in
      let d = Hd.v ~name:"random" cells in
      let fixed = Array.to_list d.Hd.fixed in
      let firsts =
        List.fold_left
          (fun acc (f : Hd.field) ->
            if List.mem f.Hd.ident acc then acc else acc @ [ f.Hd.ident ])
          [] fixed
      in
      let rec index x i = function
        | [] -> -1
        | y :: ys -> if String.equal x y then i else index x (i + 1) ys
      in
      let fixed_bits =
        List.fold_left
          (fun n (_, bits, variable) -> if variable then n else n + bits)
          0 cells
      in
      List.map (fun (f : Hd.field) -> f.Hd.name) d.Hd.fields
      = List.map (fun (l, _, _) -> l) cells
      && fixed = List.filter (fun (f : Hd.field) -> not f.Hd.variable) d.Hd.fields
      && List.for_all
           (fun (f : Hd.field) -> f.Hd.slot = index f.Hd.ident 0 firsts)
           fixed
      && List.for_all
           (fun (a : Hd.field) ->
             List.for_all
               (fun (b : Hd.field) ->
                 String.equal a.Hd.ident b.Hd.ident = (a.Hd.slot = b.Hd.slot))
               fixed)
           fixed
      && List.for_all
           (fun (f : Hd.field) -> f.Hd.slot = -1)
           (List.filter (fun (f : Hd.field) -> f.Hd.variable) d.Hd.fields)
      && d.Hd.nslots = List.length firsts
      && d.Hd.fixed_bytes = (fixed_bits + 7) / 8
      && List.for_all
           (fun (f : Hd.field) ->
             Hd.mask_of_bits f.Hd.bits
             = Int64.shift_right_logical (-1L) (64 - f.Hd.bits))
           fixed)

let suite =
  [
    tc "diagram fields" test_diagram_fields;
    tc "diagram offsets" test_diagram_offsets;
    tc "diagram variable field" test_diagram_variable_field;
    tc "diagram sub-byte fields (IGMP)" test_diagram_sub_byte_fields;
    tc "diagram single-bit flags (BFD)" test_diagram_single_bit_flags;
    tc "diagram 64-bit merge (NTP)" test_diagram_64bit_merge;
    tc "diagram garbage rejected" test_diagram_error_on_garbage;
    tc "c identifiers" test_c_identifier;
    tc "c struct rendering" test_c_struct_rendering;
    tc "document sections" test_document_sections;
    tc "document fields" test_document_fields;
    tc "document code values (N for X)" test_document_code_values;
    tc "document fixed value" test_document_fixed_value;
    tc "document prose" test_document_prose_sentences;
    tc "document description" test_document_description;
    tc "sentences with context" test_sentences_with_context;
    tc "code values (N = X)" test_equals_code_value_idiom;
    tc "IP fields zone" test_ip_fields_zone;
    tc "find section" test_find_section;
    tc "corpus documents parse" test_corpus_documents_parse;
    tc "ICMP corpus struct sizes" test_icmp_corpus_structs;
    tc "state diagram: RFC 5880 FSM art" test_state_diagram_bfd;
    tc "state diagram: rightward arrow" test_state_diagram_bidirectional;
    tc "state diagram: leftward arrow" test_state_diagram_leftward;
    tc "state diagram: no boxes" test_state_diagram_no_boxes;
    tc "corpus fields carry their identifiers" test_corpus_idents;
    prop_is_c_identifier_fixed_point;
    tc "diagram fixed cell named data" test_diagram_data_label_fixed;
    tc "NTP timestamps come out whole" test_ntp_timestamps_whole;
    prop_diagram_geometry;
  ]
