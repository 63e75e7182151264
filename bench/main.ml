(* The evaluation harness: regenerates every table and figure of the paper
   (§2, §6, §7) from this reproduction, plus the ablations.  Timed
   benchmark keys live in the lib/bench registry and run through
   `sage bench`.

   Usage:
     bench/main.exe              run every table, figure and ablation
     bench/main.exe <target>...  the named targets: table2..table11, fig5,
                                 fig6, fig7, e2e-pcap, e2e-interop,
                                 generality, bfd, extensions, stats,
                                 ablate-order, ablate-cap, ablate-overgen,
                                 ablate-assoc
*)

module P = Sage.Pipeline
module Lf = Sage_logic.Lf
module Ir = Sage_codegen.Ir
module Winnow = Sage_disambig.Winnow
module Checks = Sage_disambig.Checks
module Doc = Sage_rfc.Document
module Chunker = Sage_nlp.Chunker
module Parser = Sage_ccg.Parser
module Addr = Sage_net.Addr
module Ipv4 = Sage_net.Ipv4
module Icmp = Sage_net.Icmp
module Net = Sage_sim.Network
module Ping = Sage_sim.Ping
module Tr = Sage_sim.Traceroute
module Svc = Sage_sim.Icmp_service
module Sm = Sage_sim.Student_model
module Gs = Sage_sim.Generated_stack
module Rt = Sage_interp.Runtime
module Pcap = Sage_net.Pcap
module Tcpdump = Sage_net.Tcpdump
module Components = Sage_corpus.Components

let a = Addr.of_string_exn

let header title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let truncate_sentence n s = if String.length s <= n then s else String.sub s 0 (n - 3) ^ "..."

(* cached pipeline runs *)
let run_of name = lazy (P.run_corpus (P.find_corpus name))
let icmp_orig = run_of "icmp"
let icmp_rewr = run_of "icmp-rw"
let igmp_run = run_of "igmp"
let ntp_run = run_of "ntp"
let bfd_orig = run_of "bfd"
let bfd_rewr = run_of "bfd-rw"

(* ------------------------------------------------------------------ *)
(* Table 2: student error categories.                                  *)
(* ------------------------------------------------------------------ *)

let table2 () =
  header
    "Table 2: Error types of failed cases and their frequency in faulty\n\
     student ICMP implementations (regenerated by running ping against the\n\
     39-implementation fault-model cohort)";
  let faulty = List.filter (fun s -> s.Sm.faults <> []) Sm.cohort in
  let detected = Hashtbl.create 8 in
  let passed = ref 0 in
  List.iter
    (fun student ->
      let net = Net.default_topology ~service:(Sm.service_of student) () in
      let res = Ping.ping ~count:1 ~net (Net.server1_addr net) in
      if Ping.success res then incr passed;
      let labels =
        List.sort_uniq compare (List.map Ping.failure_label (Ping.failures res))
      in
      (* faults a reply-classifier cannot observe (masked by other faults)
         still count via the student's fault set, as the paper's manual
         code inspection would have found them *)
      let planted = List.sort_uniq compare (List.map Sm.fault_label student.Sm.faults) in
      List.iter
        (fun l ->
          Hashtbl.replace detected l
            (1 + Option.value ~default:0 (Hashtbl.find_opt detected l)))
        (List.sort_uniq compare (labels @ planted)))
    faulty;
  let n = List.length faulty in
  let paper = [ 57; 57; 29; 43; 29; 36 ] in
  Printf.printf "%-52s %10s %10s\n" "ERROR TYPE" "measured" "paper";
  List.iteri
    (fun i row ->
      let c = Option.value ~default:0 (Hashtbl.find_opt detected row) in
      Printf.printf "%-52s %9d%% %9d%%\n" row (100 * c / n) (List.nth paper i))
    Sm.table2_rows;
  Printf.printf "\ncohort: %d students, %d correct (paper: 39 / 24),\n"
    (List.length Sm.cohort)
    (List.length Sm.cohort - n - 1);
  Printf.printf "1 does not compile, %d faulty; %d faulty pass ping (expected 0)\n"
    n !passed

(* ------------------------------------------------------------------ *)
(* Table 3: checksum-range interpretations.                            *)
(* ------------------------------------------------------------------ *)

let table3 () =
  header
    "Table 3: Students' ICMP checksum range interpretations, and whether\n\
     each interoperates with the reference verifier";
  Printf.printf "%-3s %-55s %s\n" "#" "INTERPRETATION" "interoperates";
  List.iteri
    (fun i interp ->
      Printf.printf "%-3d %-55s %b\n" (i + 1)
        (Sm.interpretation_name interp)
        (Sm.interoperates interp))
    Sm.checksum_interpretations

(* ------------------------------------------------------------------ *)
(* Table 4: logical form with context and resulting code.              *)
(* ------------------------------------------------------------------ *)

let table4 () =
  header "Table 4: Logical form with context and resulting code";
  let spec = P.icmp_spec () in
  let r =
    P.analyze_sentence spec ~message:"Destination Unreachable Message"
      ~field:"Type" "The type is 3."
  in
  match r.P.status with
  | P.Parsed lf ->
    Printf.printf "LF      | %s\n" (Lf.to_string lf);
    Printf.printf
      "CONTEXT | {\"protocol\": \"ICMP\", \"message\": \"Destination \
       Unreachable Message\", \"field\": \"type\", \"role\": \"\"}\n";
    let run = Lazy.force icmp_orig in
    let f = Option.get (P.find_function run "icmp_destination_unreachable_sender") in
    let line =
      List.find_map
        (function
          | Ir.Assign (Ir.Lfield (Ir.Proto, "type"), Ir.Int v) ->
            Some (Printf.sprintf "hdr->type = %d;" v)
          | _ -> None)
        f.Ir.body
    in
    Printf.printf "CODE    | %s\n" (Option.value ~default:"(not found)" line)
  | _ -> Printf.printf "unexpected parse status\n"

(* ------------------------------------------------------------------ *)
(* Table 5: challenging BFD sentences, original vs rewritten.          *)
(* ------------------------------------------------------------------ *)

let status_name = function
  | P.Parsed _ -> "1 LF"
  | P.Subject_supplied _ -> "1 LF (subject supplied)"
  | P.Zero_lf -> "0 LF"
  | P.Ambiguous lfs -> Printf.sprintf "%d LFs (ambiguous)" (List.length lfs)
  | P.Annotated_non_actionable -> "annotated non-actionable"
  | P.Crashed e -> Printf.sprintf "crashed: %s" e

let table5 () =
  header "Table 5: Challenging BFD state management sentences";
  let spec = P.bfd_spec () in
  let probe label s =
    let r = P.analyze_sentence spec s in
    Printf.printf "  %-10s %-22s %s\n" label (status_name r.P.status)
      (truncate_sentence 80 s)
  in
  Printf.printf "Nested code (co-reference):\n";
  probe "original" "If no session is found, the packet MUST be discarded.";
  probe "rewritten"
    "If the Your Discriminator field is nonzero and no session is found, the \
     packet MUST be discarded.";
  Printf.printf "\nRephrasing fragment:\n";
  probe "original"
    "If bfd.RemoteDemandMode is 1, bfd.SessionState is Up, and \
     bfd.RemoteSessionState is Up, Demand mode is active on the remote \
     system and the local system MUST cease the periodic transmission of \
     bfd control packets.";
  probe "rewritten"
    "If bfd.RemoteDemandMode is 1, bfd.SessionState is Up, and \
     bfd.RemoteSessionState is Up, the local system MUST cease the periodic \
     transmission of bfd control packets."

(* ------------------------------------------------------------------ *)
(* Table 6: categorized rewritten text.                                *)
(* ------------------------------------------------------------------ *)

let table6 () =
  header
    "Table 6: Categorized rewritten ICMP (RFC 792) text\n\
     (paper: 4 instances with >1 LF, 1 with 0 LF, 6 imprecise)";
  let run = Lazy.force icmp_orig in
  let ambiguous = P.ambiguous_sentences run in
  let zero = P.zero_lf_sentences run in
  let imprecise =
    List.filter
      (fun r ->
        contains r.P.sentence "to aid in matching"
        && contains r.P.sentence "may be zero")
      run.P.sentences
  in
  Printf.printf "%-22s %8s %8s\n" "CATEGORY" "measured" "paper";
  Printf.printf "%-22s %8d %8d\n" "More than 1 LF" (List.length ambiguous) 4;
  Printf.printf "%-22s %8d %8d\n" "0 LF" (List.length zero) 1;
  Printf.printf "%-22s %8d %8d\n" "Imprecise sentence" (List.length imprecise) 6;
  Printf.printf "\nExamples:\n";
  List.iter
    (fun r -> Printf.printf "  >1 LF: %s\n" (truncate_sentence 90 r.P.sentence))
    ambiguous;
  List.iter
    (fun r -> Printf.printf "  0 LF : %s\n" (truncate_sentence 90 r.P.sentence))
    zero

(* ------------------------------------------------------------------ *)
(* Table 7: noun-phrase label quality.                                 *)
(* ------------------------------------------------------------------ *)

let table7 () =
  header
    "Table 7: Number of logical forms under good vs poor noun-phrase labels";
  let spec = P.icmp_spec () in
  let sentence =
    "The address of the source in an echo message will be the destination \
     of the echo reply message."
  in
  let count strategy =
    let r =
      Parser.parse ~strategy ~lexicon:spec.P.lexicon ~dict:spec.P.dictionary
        sentence
    in
    List.length r.Parser.lfs
  in
  let good = count Chunker.Longest_match in
  let poor = count Chunker.First_match in
  Printf.printf "%-60s %6s\n" "LABELING" "#LFs";
  Printf.printf "%-60s %6d   (paper: 6)\n" "good labels (longest dictionary match)" good;
  Printf.printf "%-60s %6d   (paper: 16)\n" "poor labels (first/shortest match)" poor;
  Printf.printf "\nsentence: %s\n" sentence

(* ------------------------------------------------------------------ *)
(* Table 8: disabling the dictionary / NP labeling.                    *)
(* ------------------------------------------------------------------ *)

(* the sentences of a corpus that no human marked non-actionable *)
let corpus_sentences (c : P.corpus) =
  let spec = c.P.spec () in
  Doc.sentences_with_context (Doc.parse ~title:c.P.title c.P.text)
  |> List.filter (fun (s, _, _) ->
         not
           (List.exists
              (fun p ->
                let norm x =
                  String.concat " "
                    (List.filter (fun w -> w <> "") (String.split_on_char ' ' x))
                in
                let s = norm s and p = norm p in
                String.length s >= String.length p
                && String.sub s 0 (String.length p) = p)
              spec.P.annotated_non_actionable))

let table8 () =
  header
    "Table 8: Effect of disabling the domain dictionary and noun-phrase\n\
     labeling on the number of logical forms (ICMP corpus)";
  let spec = P.icmp_spec () in
  let sentences = corpus_sentences (P.find_corpus "icmp") in
  let count ?strategy ?dict s =
    let dict = Option.value ~default:spec.P.dictionary dict in
    (Parser.parse ?strategy ~lexicon:spec.P.lexicon ~dict s).Parser.lfs
    |> List.length
  in
  let eval name ?strategy ?dict () =
    let increase = ref 0 and decrease = ref 0 and zero = ref 0 in
    List.iter
      (fun (s, _, _) ->
        let base = count s in
        let alt = count ?strategy ?dict s in
        if alt = 0 && base > 0 then incr zero
        else if alt > base then incr increase
        else if alt < base then incr decrease)
      sentences;
    Printf.printf "%-28s %9d %9d %6d\n" name !increase !decrease !zero
  in
  Printf.printf "%-28s %9s %9s %6s\n" "" "Increase" "Decrease" "Zero";
  eval "Domain-specific Dict." ~dict:Sage_nlp.Term_dictionary.empty ();
  eval "Noun-phrase Labeling" ~strategy:Chunker.No_labeling ();
  Printf.printf
    "\n(paper: removing the dictionary increases LFs for 17 of 87 sentences;\n\
     removing labeling yields 0 LFs for 54 and fewer LFs for 8)\n"

(* ------------------------------------------------------------------ *)
(* Tables 9 and 10: component inventories.                             *)
(* ------------------------------------------------------------------ *)

let table9 () =
  header "Table 9: Conceptual components in RFCs (x = present)";
  Printf.printf "%-32s" "";
  List.iter (Printf.printf "%6s") Components.rfcs;
  print_newline ();
  List.iter
    (fun c ->
      Printf.printf "%-22s%-10s"
        (Components.conceptual_name c)
        (Components.support_mark (Components.sage_supports_conceptual c));
      List.iter
        (fun rfc ->
          Printf.printf "%6s" (if Components.has_conceptual ~rfc c then "x" else ""))
        Components.rfcs;
      print_newline ())
    Components.conceptual_components

let table10 () =
  header "Table 10: Syntactic components in RFCs (x = present)";
  Printf.printf "%-32s" "";
  List.iter (Printf.printf "%6s") Components.rfcs;
  print_newline ();
  List.iter
    (fun c ->
      Printf.printf "%-22s%-10s"
        (Components.syntactic_name c)
        (Components.support_mark (Components.sage_supports_syntactic c));
      List.iter
        (fun rfc ->
          Printf.printf "%6s" (if Components.has_syntactic ~rfc c then "x" else ""))
        Components.rfcs;
      print_newline ())
    Components.syntactic_components

(* ------------------------------------------------------------------ *)
(* Table 11: NTP peer-variable sentence and resulting code.            *)
(* ------------------------------------------------------------------ *)

let table11 () =
  header "Table 11: NTP peer variable sentence and resulting code";
  let sentence =
    "If peer.mode is symmetric mode or peer.mode is client mode, the \
     transmit procedure is called and peer.timer is set to peer.hostpoll."
  in
  let spec = P.ntp_spec () in
  let r = P.analyze_sentence spec sentence in
  Printf.printf "SENTENCE | %s\n" sentence;
  match r.P.status with
  | P.Parsed lf ->
    Printf.printf "LF       | %s\n" (Lf.to_string lf);
    let ctx =
      Sage_codegen.Context.dynamic ~protocol:"NTP" ~message:"NTP Message" ()
    in
    (match Sage_codegen.Generate.gen_sentence ctx lf with
     | Ok pl ->
       Printf.printf "CODE     |\n";
       List.iter
         (fun st -> Printf.printf "  %s\n" (Fmt.str "%a" Ir.pp_stmt st))
         pl.Sage_codegen.Generate.stmts
     | Error e -> Printf.printf "CODE     | (failed: %s)\n" e)
  | other -> Printf.printf "status: %s\n" (status_name other)

(* ------------------------------------------------------------------ *)
(* Figure 5: LFs after sequential inconsistency checks.                *)
(* ------------------------------------------------------------------ *)

let ambiguous_traces run =
  List.filter_map
    (fun r ->
      match r.P.trace with
      | Some tr when tr.Winnow.base >= 2 -> Some tr
      | _ -> None)
    run.P.sentences

let fig5_one name run =
  let traces = ambiguous_traces run in
  Printf.printf "\nFigure 5 (%s): #LFs after each check, over %d multi-LF sentences\n"
    name (List.length traces);
  if traces = [] then Printf.printf "  (no multi-LF sentences)\n"
  else begin
    let stages = List.map fst (Winnow.stage_counts (List.hd traces)) in
    Printf.printf "  %-8s %6s %8s %6s\n" "stage" "min" "avg" "max";
    List.iteri
      (fun i stage ->
        let values =
          List.map (fun tr -> snd (List.nth (Winnow.stage_counts tr) i)) traces
        in
        let min_v = List.fold_left min max_int values in
        let max_v = List.fold_left max 0 values in
        let avg =
          float_of_int (List.fold_left ( + ) 0 values)
          /. float_of_int (List.length values)
        in
        Printf.printf "  %-8s %6d %8.2f %6d\n" stage min_v avg max_v)
      stages
  end

let fig5 () =
  header
    "Figure 5: Number of LFs after inconsistency checks (Base -> Type ->\n\
     ArgOrd -> PredOrd -> Distrib -> Assoc), min/avg/max per corpus";
  fig5_one "a: ICMP" (Lazy.force icmp_orig);
  fig5_one "b: IGMP" (Lazy.force igmp_run);
  fig5_one "c: BFD" (Lazy.force bfd_rewr);
  Printf.printf
    "\n(paper: ICMP sentences start at 2-46 LFs, BFD up to 56; all reach 1\n\
     after the associativity check, except truly ambiguous sentences)\n"

(* ------------------------------------------------------------------ *)
(* Figure 6: individual effect of each check family.                   *)
(* ------------------------------------------------------------------ *)

let base_lfs_of_corpus (c : P.corpus) =
  let spec = c.P.spec () in
  corpus_sentences c
  |> List.filter_map (fun (s, _, _) ->
         let r = Parser.parse ~lexicon:spec.P.lexicon ~dict:spec.P.dictionary s in
         if List.length r.Parser.lfs >= 2 then Some (s, r.Parser.lfs) else None)

let fig6 () =
  header
    "Figure 6: Effect of individual disambiguation checks on RFC 792\n\
     (left: average LFs filtered per multi-LF sentence; right: number of\n\
     sentences affected)";
  let sentences = base_lfs_of_corpus (P.find_corpus "icmp") in
  let n = List.length sentences in
  Printf.printf "multi-LF sentences: %d (paper: 42)\n\n" n;
  Printf.printf "%-22s %12s %10s %10s\n" "check family" "avg removed" "stderr"
    "#affected";
  List.iter
    (fun family ->
      let removed =
        List.map (fun (_, lfs) -> Winnow.apply_single_family family lfs) sentences
      in
      let affected = List.length (List.filter (fun r -> r > 0) removed) in
      let mean =
        float_of_int (List.fold_left ( + ) 0 removed) /. float_of_int (max 1 n)
      in
      let var =
        List.fold_left
          (fun acc r -> acc +. ((float_of_int r -. mean) ** 2.))
          0. removed
        /. float_of_int (max 1 n)
      in
      let stderr = sqrt var /. sqrt (float_of_int (max 1 n)) in
      Printf.printf "%-22s %12.2f %10.2f %10d\n"
        (Checks.family_name family)
        mean stderr affected)
    [ Checks.Type_check; Checks.Arg_order; Checks.Pred_order;
      Checks.Distributivity; Checks.Associativity ]

(* ------------------------------------------------------------------ *)
(* 6.2 end-to-end experiments.                                         *)
(* ------------------------------------------------------------------ *)

let e2e_pcap () =
  header
    "6.2 Packet-capture verification: every generated message type stored\n\
     in a pcap capture and inspected tcpdump-style";
  let st = Gs.of_run (Lazy.force icmp_rewr) in
  let cap = Pcap.create () in
  let original =
    let payload = Bytes.make 16 'q' in
    Ipv4.encode
      (Ipv4.make ~protocol:Ipv4.protocol_udp ~src:(a "10.0.1.50")
         ~dst:(a "203.0.113.77") ~payload_len:(Bytes.length payload) ())
      ~payload
  in
  List.iter
    (fun fn ->
      match
        Gs.build_message ~data:(Bytes.of_string "sage") ~src:(a "10.0.1.50")
          ~dst:(a "192.168.2.10") st ~fn
      with
      | Ok d -> Pcap.add_packet cap d
      | Error e -> Printf.printf "  %-45s BUILD FAILED: %s\n" fn e)
    [ "icmp_echo_sender"; "icmp_timestamp_sender";
      "icmp_information_request_sender" ];
  List.iter
    (fun (fn, params) ->
      match
        Gs.build_error_message ~params ~router_addr:(a "10.0.1.1") ~original st ~fn
      with
      | Ok d -> Pcap.add_packet cap d
      | Error e -> Printf.printf "  %-45s BUILD FAILED: %s\n" fn e)
    [
      ("icmp_destination_unreachable_sender", []);
      ("icmp_time_exceeded_sender", []);
      ("icmp_source_quench_sender", []);
      ("icmp_parameter_problem_sender", [ ("error_pointer", Rt.VInt 1L) ]);
      ("icmp_redirect_sender",
       [ ("gateway_address",
          Rt.VInt (Int64.logand (Int64.of_int32 (Addr.to_int32 (a "10.0.1.1"))) 0xffffffffL)) ]);
    ];
  let request msg =
    let payload = Icmp.encode msg in
    Ipv4.encode
      (Ipv4.make ~protocol:Ipv4.protocol_icmp ~src:(a "10.0.1.50")
         ~dst:(a "192.168.2.10") ~payload_len:(Bytes.length payload) ())
      ~payload
  in
  List.iter
    (fun (fn, msg) ->
      match Gs.process_request st ~fn ~request:(request msg) with
      | Ok (Some reply) -> Pcap.add_packet cap reply
      | Ok None -> Printf.printf "  %-45s DISCARDED\n" fn
      | Error e -> Printf.printf "  %-45s FAILED: %s\n" fn e)
    [
      ("icmp_echo_reply_receiver",
       Icmp.Echo { Icmp.echo_code = 0; identifier = 7; sequence = 1;
                   payload = Bytes.of_string "ping!!!" });
      ("icmp_timestamp_reply_receiver",
       Icmp.Timestamp { Icmp.ts_code = 0; ts_identifier = 7; ts_sequence = 1;
                        originate = 9l; receive = 0l; transmit = 0l });
      ("icmp_information_reply_receiver",
       Icmp.Information_request { Icmp.info_code = 0; info_identifier = 7;
                                  info_sequence = 1 });
    ];
  (try Pcap.write_file cap "sage_generated.pcap" with _ -> ());
  Printf.printf "captured %d packets (pcap written to ./sage_generated.pcap)\n\n"
    (Pcap.packet_count cap);
  match Tcpdump.inspect_capture_bytes (Pcap.to_bytes cap) with
  | Ok verdicts ->
    let clean = List.length (List.filter Tcpdump.clean verdicts) in
    List.iter
      (fun v ->
        Printf.printf "  %-70s %s\n"
          (truncate_sentence 70 v.Tcpdump.description)
          (if Tcpdump.clean v then "[ok]"
           else "[WARN: " ^ String.concat "; " v.Tcpdump.warnings ^ "]"))
      verdicts;
    Printf.printf "\n%d/%d packets clean (paper: all correct, no warnings)\n"
      clean (List.length verdicts)
  | Error e -> Printf.printf "capture unreadable: %s\n" e

let e2e_interop () =
  header
    "6.2 Interoperation with existing tools: ping and traceroute against\n\
     the SAGE-generated router/receiver";
  let run_against name run =
    let service = Svc.generated (Gs.of_run run) in
    let net = Net.default_topology ~service () in
    let ping_res = Ping.ping ~net (Net.server1_addr net) in
    let tr_res = Tr.traceroute ~net (Net.server1_addr net) in
    Printf.printf
      "%-28s ping: %-4s (%d/%d)   traceroute: %s (%d hops, quotes %s)\n" name
      (if Ping.success ping_res then "ok" else "FAIL")
      ping_res.Ping.received ping_res.Ping.sent
      (if tr_res.Tr.reached then "ok" else "FAIL")
      (Tr.hop_count tr_res)
      (if List.for_all (fun (h : Tr.hop) -> h.Tr.quoted_probe_ok) tr_res.Tr.hops
       then "valid"
       else "INVALID")
  in
  run_against "rewritten (disambiguated)" (Lazy.force icmp_rewr);
  run_against "original RFC text" (Lazy.force icmp_orig);
  Printf.printf
    "\n(paper: the disambiguated spec interoperates perfectly; the original\n\
     text's under-specified identifier sentence breaks ping, which is how\n\
     unit testing discovers it)\n"

let generality () =
  header "6.3 Generality: IGMP and NTP";
  let igmp = Lazy.force igmp_run in
  Printf.printf "IGMP: %d sentences, %d parsed, %d functions, %d codegen failures\n"
    (List.length igmp.P.sentences)
    (List.length (P.parsed_sentences igmp))
    (List.length igmp.P.codegen.P.functions)
    (List.length igmp.P.codegen.P.non_actionable);
  let st = Gs.of_run igmp in
  (match
     Gs.build_message
       ~params:
         [ ("all_hosts_group",
            Rt.VInt (Int64.logand (Int64.of_int32 (Addr.to_int32 (a "224.0.0.1"))) 0xffffffffL)) ]
       ~src:(a "10.0.1.1") ~dst:(a "224.0.0.1") st
       ~fn:"igmp_host_membership_query_sender"
   with
   | Ok dgram ->
     let v = Tcpdump.inspect_datagram dgram in
     Printf.printf "  query generated: %s %s\n" v.Tcpdump.description
       (if Tcpdump.clean v then "[ok]" else "[WARN]");
     (* the commodity switch answers with reports for its joined groups *)
     let switch =
       Sage_sim.Igmp_switch.create
         ~groups:[ a "224.9.9.9"; a "239.1.2.3" ]
         (a "10.0.1.77")
     in
     (match Sage_sim.Igmp_switch.receive switch dgram with
      | Ok reports ->
        Printf.printf "  switch responded with %d report(s):\n"
          (List.length reports);
        List.iter
          (fun r ->
            let v = Tcpdump.inspect_datagram r in
            Printf.printf "    %s %s\n" v.Tcpdump.description
              (if Tcpdump.clean v then "[ok]" else "[WARN]"))
          reports
      | Error e -> Printf.printf "  switch rejected the query: %s\n" e)
   | Error e -> Printf.printf "  query FAILED: %s\n" e);
  let ntp = Lazy.force ntp_run in
  Printf.printf "\nNTP: %d sentences, %d parsed, %d codegen failures\n"
    (List.length ntp.P.sentences)
    (List.length (P.parsed_sentences ntp))
    (List.length ntp.P.codegen.P.non_actionable);
  let stn = Gs.of_run ntp in
  match
    Gs.build_message ~src:(a "10.0.1.50") ~dst:(a "192.168.2.10") stn
      ~fn:"ntp_ntp_sender"
  with
  | Ok dgram ->
    (match Ipv4.decode dgram with
     | Ok (_, ntp_bytes) ->
       (match Sage_net.Ntp.decode ntp_bytes with
        | Ok pkt ->
          Printf.printf "  packet generated: %s [ok]\n"
            (Fmt.str "%a" Sage_net.Ntp.pp pkt)
        | Error e -> Printf.printf "  ntp decode failed: %s\n" (Sage_net.Decode_error.to_string e))
     | Error e -> Printf.printf "  ip decode failed: %s\n" (Sage_net.Decode_error.to_string e))
  | Error e -> Printf.printf "  FAILED: %s\n" e

let bfd_target () =
  header "6.4 BFD state management";
  let orig = Lazy.force bfd_orig in
  let rewr = Lazy.force bfd_rewr in
  Printf.printf "original : %d sentences, %d parsed, %d zero-LF, %d ambiguous\n"
    (List.length orig.P.sentences)
    (List.length (P.parsed_sentences orig))
    (List.length (P.zero_lf_sentences orig))
    (List.length (P.ambiguous_sentences orig));
  Printf.printf "rewritten: %d sentences, %d parsed, %d zero-LF, %d ambiguous\n"
    (List.length rewr.P.sentences)
    (List.length (P.parsed_sentences rewr))
    (List.length (P.zero_lf_sentences rewr))
    (List.length (P.ambiguous_sentences rewr));
  let max_base =
    List.fold_left
      (fun acc r ->
        match r.P.trace with Some tr -> max acc tr.Winnow.base | None -> acc)
      0 rewr.P.sentences
  in
  Printf.printf "max base LFs for one sentence: %d (paper: up to 56)\n" max_base;
  let st = Gs.of_run rewr in
  let scenarios =
    [ (1L, Sage_net.Bfd.Down, "Down + Down");
      (1L, Sage_net.Bfd.Init, "Down + Init");
      (2L, Sage_net.Bfd.Up, "Init + Up");
      (3L, Sage_net.Bfd.Down, "Up + Down") ]
  in
  (* recover the full state machine from the generated code *)
  (match Sage_sim.Fsm.bfd_machine st with
   | Ok machine ->
     let name code =
       match Sage_net.Bfd.state_of_code (Int64.to_int code) with
       | Ok s -> Sage_net.Bfd.state_name s
       | Error _ -> "?"
     in
     Printf.printf "\nstate machine recovered from the generated code:\n%s\n"
       (Fmt.str "%a" (Sage_sim.Fsm.pp ~state_name:name) machine);
     let reference from_state input =
       let s = Sage_net.Bfd.new_session ~local_discr:7l in
       s.Sage_net.Bfd.session_state <-
         Result.get_ok (Sage_net.Bfd.state_of_code (Int64.to_int from_state));
       let pkt =
         { Sage_net.Bfd.default_packet with
           Sage_net.Bfd.my_discriminator = 9l;
           your_discriminator = 7l;
           state = Result.get_ok (Sage_net.Bfd.state_of_code (Int64.to_int input)) }
       in
       match Sage_net.Bfd.receive_control_packet s pkt with
       | `Ok -> Some (Int64.of_int (Sage_net.Bfd.state_code s.Sage_net.Bfd.session_state))
       | `Discard _ -> None
     in
     let disagreements = Sage_sim.Fsm.agrees_with machine ~reference in
     Printf.printf "disagreements with the reference implementation: %d\n"
       (List.length disagreements)
   | Error e -> Printf.printf "fsm extraction failed: %s\n" e);
  Printf.printf "\nstate-machine cross-check (generated vs reference):\n";
  List.iter
    (fun (initial, pkt_state, label) ->
      let pkt =
        { Sage_net.Bfd.default_packet with
          Sage_net.Bfd.my_discriminator = 9l;
          your_discriminator = 7l;
          state = pkt_state }
      in
      let generated =
        match
          Gs.run_state_update
            ~state:[ ("bfd.SessionState", initial); ("bfd.LocalDiscr", 7L) ]
            st
            ~fn:"bfd_reception_of_bfd_control_packets_sender"
            ~packet:(Sage_net.Bfd.encode pkt)
        with
        | Ok (bindings, _) ->
          Option.value ~default:(-1L) (List.assoc_opt "bfd.SessionState" bindings)
        | Error _ -> -1L
      in
      let reference =
        let s = Sage_net.Bfd.new_session ~local_discr:7l in
        s.Sage_net.Bfd.session_state <-
          Result.get_ok (Sage_net.Bfd.state_of_code (Int64.to_int initial));
        ignore (Sage_net.Bfd.receive_control_packet s pkt);
        Int64.of_int (Sage_net.Bfd.state_code s.Sage_net.Bfd.session_state)
      in
      Printf.printf "  %-14s generated=%Ld reference=%Ld %s\n" label generated
        reference
        (if Int64.equal generated reference then "[agree]" else "[DISAGREE]"))
    scenarios

(* ------------------------------------------------------------------ *)
(* 6.1 statistics.                                                     *)
(* ------------------------------------------------------------------ *)

let stats () =
  header "6.1 Implementation statistics (measured vs paper)";
  let lex = Sage_ccg.Lexicon.bfd () in
  let count o = Sage_ccg.Lexicon.count ~origin:o lex in
  Printf.printf "%-46s %9s %8s\n" "" "measured" "paper";
  Printf.printf "%-46s %9d %8s\n" "networking dictionary terms"
    (Sage_nlp.Term_dictionary.size (Sage_nlp.Term_dictionary.base ()))
    "~400";
  Printf.printf "%-46s %9d %8s\n" "lexicon entries for ICMP (core + ICMP)"
    (count Sage_ccg.Lexicon.Core + count Sage_ccg.Lexicon.Icmp)
    "71";
  Printf.printf "%-46s %9d %8s\n" "additional entries for IGMP"
    (count Sage_ccg.Lexicon.Igmp) "8";
  Printf.printf "%-46s %9d %8s\n" "additional entries for NTP"
    (count Sage_ccg.Lexicon.Ntp) "5";
  Printf.printf "%-46s %9d %8s\n" "additional entries for BFD"
    (count Sage_ccg.Lexicon.Bfd) "15";
  Printf.printf "%-46s %9d %8s\n" "type checks" (List.length Checks.type_checks)
    "32";
  Printf.printf "%-46s %9d %8s\n" "argument ordering checks"
    (List.length Checks.arg_order_checks)
    "7";
  Printf.printf "%-46s %9d %8s\n" "predicate ordering checks"
    (List.length Checks.pred_order_checks)
    "4+2";
  Printf.printf "%-46s %9d %8s\n" "distributivity checks" 1 "1";
  Printf.printf "%-46s %9d %8s\n" "predicate handler functions"
    Sage_codegen.Generate.handler_count "25";
  Printf.printf "%-46s %9d %8s\n" "interpreter framework builtins"
    (List.length Sage_interp.Exec.builtin_names)
    "-";
  let icmp = Lazy.force icmp_orig in
  Printf.printf "%-46s %9d %8s\n" "ICMP corpus sentence instances"
    (List.length icmp.P.sentences)
    "87"

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)
(* ------------------------------------------------------------------ *)

let ablate_order () =
  header
    "Ablation: winnowing check order — applying associativity first vs the\n\
     paper's order (Figure 5).  Final survivor counts should agree.";
  let sentences = base_lfs_of_corpus (P.find_corpus "icmp") in
  Printf.printf "%-64s %6s %6s %6s\n" "sentence" "base" "paper" "assoc1";
  List.iter
    (fun (s, lfs) ->
      let fwd = List.length (Winnow.winnow lfs).Winnow.survivors in
      let assoc_first =
        let merged, _ = Checks.merge_isomorphic lfs in
        List.length (Winnow.winnow merged).Winnow.survivors
      in
      Printf.printf "%-64s %6d %6d %6d\n" (truncate_sentence 64 s)
        (List.length lfs) fwd assoc_first)
    sentences

let ablate_assoc () =
  header
    "Ablation: associativity via graph isomorphism vs plain syntactic\n\
     equality (paper 4.2: isomorphism is required to merge of-chains)";
  let spec = P.icmp_spec () in
  let sentence =
    "The checksum is the 16-bit one's complement of the one's complement \
     sum of the ICMP message starting with the ICMP type."
  in
  let r = Parser.parse ~lexicon:spec.P.lexicon ~dict:spec.P.dictionary sentence in
  let with_iso, _ = Checks.merge_isomorphic r.Parser.lfs in
  let with_equality = Lf.dedup r.Parser.lfs in
  Printf.printf "sentence H: %d base LFs\n" (List.length r.Parser.lfs);
  Printf.printf "  after syntactic-equality dedup : %d LFs\n"
    (List.length with_equality);
  Printf.printf "  after isomorphism merge        : %d LF(s)\n"
    (List.length with_iso)


(* ------------------------------------------------------------------ *)
(* 7: extensions — TCP within reach.                                   *)
(* ------------------------------------------------------------------ *)

let extensions () =
  header
    "7 Extensions: TCP (RFC 793 excerpt) with the BFD-level lexicon —\n\
     header format and simple constraints parse today; state-machine prose\n\
     is the measurable gap";
  let run = P.run_corpus (P.find_corpus "tcp") in
  Printf.printf
    "sentences %d, parsed %d, zero-LF %d, ambiguous %d, annotated %d\n\n"
    (List.length run.P.sentences)
    (List.length (P.parsed_sentences run))
    (List.length (P.zero_lf_sentences run))
    (List.length (P.ambiguous_sentences run))
    (List.length
       (List.filter (fun r -> r.P.status = P.Annotated_non_actionable)
          run.P.sentences));
  Printf.printf "parses today (constraints and checksum):\n";
  List.iter
    (fun r ->
      match r.P.status with
      | P.Parsed _ | P.Subject_supplied _ ->
        Printf.printf "  [ok]   %s\n" (truncate_sentence 74 r.P.sentence)
      | _ -> ())
    run.P.sentences;
  Printf.printf "\nout of reach today (state-machine prose, the 7 gap):\n";
  List.iter
    (fun r ->
      match r.P.status with
      | P.Zero_lf | P.Ambiguous _ ->
        Printf.printf "  [gap]  %s\n" (truncate_sentence 74 r.P.sentence)
      | _ -> ())
    run.P.sentences;
  (match P.find_function run "tcp_tcp_segment_header_sender" with
   | Some f -> Printf.printf "\n%s\n" (Sage_codegen.C_printer.render_func f)
   | None -> ());
  Printf.printf
    "\nBGP (RFC 4271 OPEN + FSM prose): the FSM is specified in prose, the\n\
     state-management style SAGE already parses\n\n";
  let bgp = P.run_corpus (P.find_corpus "bgp") in
  Printf.printf "sentences %d, parsed %d, zero-LF %d, codegen failures %d\n"
    (List.length bgp.P.sentences)
    (List.length (P.parsed_sentences bgp))
    (List.length (P.zero_lf_sentences bgp))
    (List.length bgp.P.codegen.P.non_actionable);
  (match P.find_function bgp "bgp_bgp_open_sender" with
   | Some f -> Printf.printf "\n%s\n" (Sage_codegen.C_printer.render_func f)
   | None -> ());
  Printf.printf
    "State-machine diagram parsing (Table 10: previously unsupported):\n\
     RFC 5880 3.2's session FSM art, boxes + horizontal labeled arrows\n\n";
  let bfd_fsm_art =
    "                   +------+                      +------+\n\
    \              +----|      |                      |      |----+\n\
    \          DOWN|    | INIT |--------------------->|  UP  |    |INIT, UP\n\
    \              +--->|      |        INIT, UP      |      |<---+\n\
    \                   +------+                      +------+"
  in
  (match Sage_rfc.State_diagram.parse bfd_fsm_art with
   | Ok t ->
     Printf.printf "%s\n" (Fmt.str "%a" Sage_rfc.State_diagram.pp t);
     Printf.printf "recovered logical forms:\n";
     List.iter
       (fun lf -> Printf.printf "  %s\n" (Lf.to_string lf))
       (Sage_rfc.State_diagram.to_lfs t)
   | Error e -> Printf.printf "diagram parse failed: %s\n" e)


(* ------------------------------------------------------------------ *)
(* Figure 7 / Appendix B: a CCG derivation.                            *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  header
    "Figure 7 (Appendix B): deriving a logical form for\n\
     \"For computing the checksum, the checksum should be zero.\"";
  let spec = P.icmp_spec () in
  let sentence = "For computing the checksum, the checksum should be zero." in
  let r = Parser.parse ~lexicon:spec.P.lexicon ~dict:spec.P.dictionary sentence in
  (match r.Parser.items with
   | item :: _ ->
     Printf.printf "%s\n\n" (Fmt.str "%a" Parser.pp_deriv item.Parser.deriv);
     Printf.printf "final logical forms:\n";
     List.iter
       (fun lf -> Printf.printf "  %s\n" (Lf.to_string lf))
       r.Parser.lfs
   | [] -> Printf.printf "no derivation\n")

(* ------------------------------------------------------------------ *)
(* Ablation: chart cell capacity vs LF recall.                         *)
(* ------------------------------------------------------------------ *)

let ablate_cap () =
  header
    "Ablation: chart cell capacity — too small a cap truncates the chart\n\
     and can lose the correct derivation (sentence E)";
  let spec = P.icmp_spec () in
  let sentence =
    "If code = 0, an identifier to aid in matching echos and replies, may \
     be zero."
  in
  Printf.printf "%-10s %10s %12s %10s\n" "capacity" "base LFs" "truncated"
    "survivors";
  List.iter
    (fun cap ->
      let r =
        Parser.parse ~capacity:cap ~lexicon:spec.P.lexicon
          ~dict:spec.P.dictionary sentence
      in
      let tr = Winnow.winnow r.Parser.lfs in
      Printf.printf "%-10d %10d %12b %10d\n" cap
        (List.length r.Parser.lfs)
        r.Parser.truncated
        (List.length tr.Winnow.survivors))
    [ 4; 8; 16; 32; 64; 160; 512 ]


let ablate_overgen () =
  header
    "Ablation: CCG over-generation modeling — base LFs with and without\n\
     the expansion pass (if-swap + distribution).  Winnowing exists\n\
     precisely because the expansion-modeled readings are derivable.";
  let spec = P.icmp_spec () in
  Printf.printf "%-64s %6s %6s\n" "sentence" "with" "without";
  List.iter
    (fun (s, _) ->
      let with_exp =
        (Parser.parse ~lexicon:spec.P.lexicon ~dict:spec.P.dictionary s)
          .Parser.lfs
      in
      let without =
        (Parser.parse ~expand_distributive:false ~lexicon:spec.P.lexicon
           ~dict:spec.P.dictionary s)
          .Parser.lfs
      in
      Printf.printf "%-64s %6d %6d\n" (truncate_sentence 64 s)
        (List.length with_exp) (List.length without))
    (base_lfs_of_corpus (P.find_corpus "icmp"))

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)
(* ------------------------------------------------------------------ *)

let targets =
  [
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("table6", table6);
    ("table7", table7);
    ("table8", table8);
    ("table9", table9);
    ("table10", table10);
    ("table11", table11);
    ("fig5", fig5);
    ("fig6", fig6);
    ("e2e-pcap", e2e_pcap);
    ("e2e-interop", e2e_interop);
    ("generality", generality);
    ("bfd", bfd_target);
    ("extensions", extensions);
    ("stats", stats);
    ("fig7", fig7);
    ("ablate-order", ablate_order);
    ("ablate-cap", ablate_cap);
    ("ablate-overgen", ablate_overgen);
    ("ablate-assoc", ablate_assoc);
  ]

let () =
  match Array.to_list Sys.argv with
  | [ _ ] ->
    List.iter (fun (_, f) -> f ()) targets;
    Printf.printf "\nAll evaluation targets completed.\n"
  | _ :: names ->
    List.iter
      (fun name ->
        match List.assoc_opt name targets with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown target %S; available: %s\n" name
            (String.concat ", " (List.map fst targets));
          exit 1)
      names
  | [] ->
    Printf.eprintf "usage: %s [target...]\n" Sys.argv.(0);
    exit 1
