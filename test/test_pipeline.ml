(* Integration tests: the full pipeline over the four corpora, asserting
   the paper's evaluation properties (§6). *)

module P = Sage.Pipeline
module Lf = Sage_logic.Lf
module Ir = Sage_codegen.Ir

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* pipeline runs are shared across tests *)
let run_of name = lazy (Corpus_runs.run_of (P.find_corpus name))
let icmp_orig = run_of "icmp"
let icmp_rewr = run_of "icmp-rw"
let igmp = run_of "igmp"
let ntp = run_of "ntp"
let bfd_orig = run_of "bfd"
let bfd_rewr = run_of "bfd-rw"

(* ---- analyze_sentence unit behavior ---- *)

let test_analyze_simple () =
  let spec = P.icmp_spec () in
  match (P.analyze_sentence spec "The checksum is zero.").P.status with
  | P.Parsed lf -> check Alcotest.string "lf" "@Is('checksum', 0)" (Lf.to_string lf)
  | _ -> Alcotest.fail "expected Parsed"

let test_analyze_subject_supply () =
  (* paper §4.1: a field description missing its subject parses once the
     field name is supplied *)
  let spec = P.icmp_spec () in
  let r =
    P.analyze_sentence spec ~field:"Destination Address"
      "The source network and address from the original datagram's data."
  in
  match r.P.status with
  | P.Subject_supplied _ -> ()
  | _ -> Alcotest.fail "expected Subject_supplied"

let test_analyze_pointer_fragment () =
  (* sentence C: verb-phrase fragment, subject inserted after the comma *)
  let spec = P.icmp_spec () in
  let r =
    P.analyze_sentence spec ~field:"Pointer"
      "If code = 0, identifies the octet where an error was detected."
  in
  match r.P.status with
  | P.Subject_supplied _ -> ()
  | _ -> Alcotest.fail "expected Subject_supplied"

let test_analyze_unparseable_gateway () =
  (* sentence D stays at zero LFs even with the subject supplied *)
  let spec = P.icmp_spec () in
  let r =
    P.analyze_sentence spec ~field:"Gateway Internet Address"
      "Address of the gateway to which traffic for the network specified in \
       the internet destination network field of the original datagram's \
       data should be sent."
  in
  check Alcotest.bool "zero LF" true (r.P.status = P.Zero_lf)

let test_analyze_annotated () =
  let spec = P.icmp_spec () in
  let r =
    P.analyze_sentence spec "This checksum may be replaced in the future."
  in
  check Alcotest.bool "annotated" true (r.P.status = P.Annotated_non_actionable);
  (* runs of spaces in the sentence or the prefix collapse to one, and
     the prefix must end on the sentence's word boundaries *)
  let annotated prefix sentence =
    let spec = { spec with P.annotated_non_actionable = [ prefix ] } in
    (P.analyze_sentence spec sentence).P.status = P.Annotated_non_actionable
  in
  List.iter
    (fun (prefix, sentence, want) ->
      check Alcotest.bool (Printf.sprintf "%S starts %S" prefix sentence) want
        (annotated prefix sentence))
    [
      ("The checksum is", "  The   checksum  is zero.", true);
      ("  The checksum   is ", "The checksum is zero.", true);
      ("The checksum is", "The checksum was zero.", false);
      ("The check sum", "The checksum is zero.", false);
      ("", "The checksum is zero.", true);
    ]

(* ---- ICMP original corpus: Table 6 ---- *)

let test_icmp_original_ambiguities () =
  let run = Lazy.force icmp_orig in
  let ambiguous = P.ambiguous_sentences run in
  (* the "To form an <x> reply message ..." family (one unique shape) *)
  check Alcotest.int "ambiguous instances" 3 (List.length ambiguous);
  List.iter
    (fun r ->
      check Alcotest.bool "all are the formation sentence" true
        (Astring_contains.contains r.P.sentence "To form"))
    ambiguous;
  let zero = P.zero_lf_sentences run in
  check Alcotest.int "one zero-LF sentence (D)" 1 (List.length zero);
  check Alcotest.bool "it is the gateway sentence" true
    (Astring_contains.contains (List.hd zero).P.sentence "Address of the gateway")

let test_icmp_original_underspecified_sentences_parse () =
  (* the six "may be zero" sentences parse to one LF each — their flaw is
     only discoverable by unit testing (paper §6.5) *)
  let run = Lazy.force icmp_orig in
  let imprecise =
    List.filter
      (fun r ->
        Astring_contains.contains r.P.sentence "to aid in matching"
        && Astring_contains.contains r.P.sentence "may be zero")
      run.P.sentences
  in
  check Alcotest.int "six instances" 6 (List.length imprecise);
  List.iter
    (fun r ->
      match r.P.status with
      | P.Parsed _ -> ()
      | _ -> Alcotest.failf "imprecise sentence did not parse: %s" r.P.sentence)
    imprecise

let test_icmp_sentence_count () =
  let run = Lazy.force icmp_orig in
  let n = List.length run.P.sentences in
  check Alcotest.bool
    (Printf.sprintf "%d sentences (paper: 87)" n)
    true
    (n >= 75 && n <= 95)

let test_icmp_non_actionable_count () =
  (* paper: 35 non-actionable sentences in ICMP; ours are the annotated
     ones plus iteratively-discovered codegen failures *)
  let run = Lazy.force icmp_orig in
  let annotated =
    List.length
      (List.filter (fun r -> r.P.status = P.Annotated_non_actionable) run.P.sentences)
  in
  let discovered = List.length run.P.codegen.P.non_actionable in
  let total = annotated + discovered in
  check Alcotest.bool
    (Printf.sprintf "non-actionable %d in [30,50]" total)
    true
    (total >= 30 && total <= 50)

let test_icmp_winnowing_reduces_to_one () =
  (* every non-ambiguous multi-LF sentence winnows to exactly 1 *)
  let run = Lazy.force icmp_orig in
  List.iter
    (fun r ->
      match r.P.status, r.P.trace with
      | (P.Parsed _ | P.Subject_supplied _), Some tr ->
        check Alcotest.int
          (Printf.sprintf "1 survivor for %s" r.P.sentence)
          1
          (List.length tr.Sage_disambig.Winnow.survivors)
      | _ -> ())
    run.P.sentences

let test_icmp_functions_generated () =
  let run = Lazy.force icmp_orig in
  let names = List.map (fun f -> f.Ir.fn_name) run.P.codegen.P.functions in
  List.iter
    (fun expected ->
      check Alcotest.bool expected true (List.mem expected names))
    [
      "icmp_destination_unreachable_sender";
      "icmp_time_exceeded_sender";
      "icmp_parameter_problem_sender";
      "icmp_source_quench_sender";
      "icmp_redirect_sender";
      "icmp_echo_sender";
      "icmp_echo_reply_receiver";
      "icmp_timestamp_sender";
      "icmp_timestamp_reply_receiver";
      "icmp_information_request_sender";
      "icmp_information_reply_receiver";
    ]

let test_icmp_structs_recovered () =
  let run = Lazy.force icmp_orig in
  check Alcotest.int "eight structs" 8 (List.length run.P.codegen.P.structs);
  check Alcotest.bool "c code contains struct" true
    (Astring_contains.contains run.P.codegen.P.c_code "struct echo_or_echo_reply_message")

let test_icmp_rewritten_is_clean () =
  let run = Lazy.force icmp_rewr in
  check Alcotest.int "no ambiguous" 0 (List.length (P.ambiguous_sentences run));
  check Alcotest.int "no zero-LF" 0 (List.length (P.zero_lf_sentences run));
  check Alcotest.int "no codegen failures" 0
    (List.length run.P.codegen.P.non_actionable)

let test_icmp_rewritten_receiver_echoes_identifier () =
  (* the clarified identifier sentence is scoped to the sender: the
     receiver must NOT zero the identifier *)
  let run = Lazy.force icmp_rewr in
  let f = Option.get (P.find_function run "icmp_echo_reply_receiver") in
  let zeroes_identifier =
    List.exists
      (function
        | Ir.If (_, [ Ir.Assign (Ir.Lfield (Ir.Proto, "identifier"), Ir.Int 0) ], _)
        | Ir.Assign (Ir.Lfield (Ir.Proto, "identifier"), Ir.Int 0) -> true
        | _ -> false)
      f.Ir.body
  in
  check Alcotest.bool "receiver does not zero identifier" false zeroes_identifier;
  (* ... while the original (pre-rewrite) receiver does: the paper's
     under-specification bug *)
  let orig = Lazy.force icmp_orig in
  let f0 = Option.get (P.find_function orig "icmp_echo_reply_receiver") in
  let zeroes0 =
    List.exists
      (function
        | Ir.If (_, [ Ir.Assign (Ir.Lfield (Ir.Proto, "identifier"), Ir.Int 0) ], _) ->
          true
        | _ -> false)
      f0.Ir.body
  in
  check Alcotest.bool "original receiver zeroes identifier (the bug)" true zeroes0

let test_icmp_type_codes_assigned_per_variant () =
  let run = Lazy.force icmp_rewr in
  let type_value fn =
    let f = Option.get (P.find_function run fn) in
    List.find_map
      (function
        | Ir.Assign (Ir.Lfield (Ir.Proto, "type"), Ir.Int v) -> Some v
        | _ -> None)
      f.Ir.body
  in
  check Alcotest.(option int) "echo sender type 8" (Some 8)
    (type_value "icmp_echo_sender");
  check Alcotest.(option int) "echo receiver type 0" (Some 0)
    (type_value "icmp_echo_reply_receiver");
  check Alcotest.(option int) "timestamp reply type 14" (Some 14)
    (type_value "icmp_timestamp_reply_receiver");
  check Alcotest.(option int) "dest unreachable type 3" (Some 3)
    (type_value "icmp_destination_unreachable_sender")

let test_checksum_computed_last () =
  (* §5.1 advice: the checksum assignment is the last statement *)
  let run = Lazy.force icmp_rewr in
  let f = Option.get (P.find_function run "icmp_echo_reply_receiver") in
  match List.rev f.Ir.body with
  | Ir.Assign (Ir.Lfield (Ir.Proto, "checksum"), _) :: _ -> ()
  | _ -> Alcotest.fail "checksum not last"

(* ---- IGMP / NTP (§6.3) ---- *)

let test_igmp_generates_both_messages () =
  let run = Lazy.force igmp in
  check Alcotest.int "no failures" 0 (List.length run.P.codegen.P.non_actionable);
  check Alcotest.bool "query function" true
    (P.find_function run "igmp_host_membership_query_sender" <> None);
  check Alcotest.bool "report function" true
    (P.find_function run "igmp_host_membership_report_sender" <> None)

let test_igmp_query_sets_destination () =
  let run = Lazy.force igmp in
  let f = Option.get (P.find_function run "igmp_host_membership_query_sender") in
  check Alcotest.bool "sets ip destination" true
    (List.exists
       (function Ir.Assign (Ir.Lfield (Ir.Ip, "dst"), _) -> true | _ -> false)
       f.Ir.body)

let test_ntp_parses_timeout_sentences () =
  let run = Lazy.force ntp in
  check Alcotest.int "no ambiguous" 0 (List.length (P.ambiguous_sentences run));
  let f = Option.get (P.find_function run "ntp_ntp_sender") in
  let rendered = Fmt.str "%a" Ir.pp_func f in
  check Alcotest.bool "calls the timeout procedure" true
    (Astring_contains.contains rendered "timeout_procedure");
  check Alcotest.bool "sets peer.timer from peer.hostpoll" true
    (Astring_contains.contains rendered "state->peer.timer = state->peer.hostpoll");
  check Alcotest.bool "encapsulates in UDP" true
    (Astring_contains.contains rendered "encapsulate_udp(123)")

(* ---- BFD (§6.4, Table 5) ---- *)

let test_bfd_original_has_unparseable_demand_sentence () =
  let run = Lazy.force bfd_orig in
  let zero = P.zero_lf_sentences run in
  check Alcotest.int "one unparseable" 1 (List.length zero);
  check Alcotest.bool "it is the demand-mode rephrasing sentence" true
    (Astring_contains.contains (List.hd zero).P.sentence "Demand mode is active")

let test_bfd_rewritten_is_clean () =
  let run = Lazy.force bfd_rewr in
  check Alcotest.int "no zero-LF" 0 (List.length (P.zero_lf_sentences run));
  check Alcotest.int "no ambiguous" 0 (List.length (P.ambiguous_sentences run));
  check Alcotest.int "no codegen failures" 0
    (List.length run.P.codegen.P.non_actionable)

let test_bfd_reception_function_contents () =
  let run = Lazy.force bfd_rewr in
  let f =
    Option.get (P.find_function run "bfd_reception_of_bfd_control_packets_sender")
  in
  let rendered = Fmt.str "%a" Ir.pp_func f in
  List.iter
    (fun needle ->
      check Alcotest.bool needle true (Astring_contains.contains rendered needle))
    [
      "if (hdr->vers != 1)";
      "return DISCARD;";
      "state->bfd.RemoteDiscr = hdr->my_discriminator;";
      "state->bfd.RemoteSessionState = hdr->sta;";
      "state->bfd.RemoteDemandMode = hdr->d;";
      "select_session(hdr->your_discriminator)";
      "state->bfd.SessionState = 2;" (* Down+Down -> Init *);
    ]

let test_bfd_sentence_count () =
  (* §6.4: 22 state management sentences analyzed *)
  let module B = Sage_corpus.Bfd_rfc in
  let run = Lazy.force bfd_rewr in
  let n =
    List.length
      (List.filter (fun r -> r.P.message = Some B.state_management_section)
         run.P.sentences)
  in
  let lo, hi = B.state_management_band in
  check Alcotest.bool (Printf.sprintf "%d sentences ~22" n) true (n >= lo && n <= hi)

(* The author's rerun loop (Figure 4): with every chart already cached,
   what is left of a run is winnowing, codegen, analysis and mining.
   Allocation is deterministic, so the bound is on minor words: values
   recomputed inside those loops (a field's identifier per lookup, a
   subform list per winnow check, the sentence per annotated prefix)
   took a warm icmp run past 2 M words. *)
let test_warm_run_allocation_bounded () =
  let c = P.find_corpus "icmp" in
  let cache = Sage.Chart_cache.create () in
  let run () = ignore (P.run_corpus ~cache c) in
  run ();
  let before = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. before in
  if words >= 1.5e6 then
    Alcotest.failf "a warm icmp run allocated %.2f M minor words (bound 1.5 M)"
      (words /. 1e6)

(* A cold run parses every sentence: a chart that copies each term it
   reduces took a cold icmp run to 3.45 M words. *)
let test_cold_run_allocation_bounded () =
  let c = P.find_corpus "icmp" in
  let run () = ignore (P.run_corpus c) in
  run ();
  let before = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. before in
  if words >= 2.5e6 then
    Alcotest.failf "a cold icmp run allocated %.2f M minor words (bound 2.5 M)"
      (words /. 1e6)

let suite =
  [
    tc "analyze: simple sentence" test_analyze_simple;
    tc "analyze: subject supply (A)" test_analyze_subject_supply;
    tc "analyze: pointer fragment (C)" test_analyze_pointer_fragment;
    tc "analyze: gateway sentence unparseable (D)" test_analyze_unparseable_gateway;
    tc "analyze: annotated non-actionable" test_analyze_annotated;
    tc "ICMP original: ambiguities (Table 6)" test_icmp_original_ambiguities;
    tc "ICMP original: imprecise sentences parse" test_icmp_original_underspecified_sentences_parse;
    tc "ICMP: ~87 sentences" test_icmp_sentence_count;
    tc "ICMP: ~35 non-actionable" test_icmp_non_actionable_count;
    tc "ICMP: winnowing reaches 1 LF" test_icmp_winnowing_reduces_to_one;
    tc "ICMP: all 11 functions generated" test_icmp_functions_generated;
    tc "ICMP: 8 structs recovered" test_icmp_structs_recovered;
    tc "ICMP rewritten: clean" test_icmp_rewritten_is_clean;
    tc "ICMP: identifier bug fixed by rewrite (6.5)"
      test_icmp_rewritten_receiver_echoes_identifier;
    tc "ICMP: type codes per variant" test_icmp_type_codes_assigned_per_variant;
    tc "ICMP: checksum computed last (5.1)" test_checksum_computed_last;
    tc "IGMP: query and report generated (6.3)" test_igmp_generates_both_messages;
    tc "IGMP: query addressed to all-hosts" test_igmp_query_sets_destination;
    tc "NTP: timeout sentences to code (Table 11)" test_ntp_parses_timeout_sentences;
    tc "BFD original: Table 5 sentence unparseable"
      test_bfd_original_has_unparseable_demand_sentence;
    tc "BFD rewritten: clean (6.4)" test_bfd_rewritten_is_clean;
    tc "BFD: reception function contents" test_bfd_reception_function_contents;
    tc "BFD: ~22 state-management sentences" test_bfd_sentence_count;
    tc "warm icmp run allocation stays bounded" test_warm_run_allocation_bounded;
    tc "cold icmp run allocation stays bounded" test_cold_run_allocation_bounded;
  ]
