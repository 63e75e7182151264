(* The paper page: every table, figure and section of the paper's
   evaluation (§2, §6, §7) and the ablations, regenerated from this
   reproduction as one markdown page (pinned by test/golden/paper.md).
   Each target returns a section: what it measured, as a table or
   verbatim blocks, and claims, each the paper's value, ours, and
   whether the paper's shape statement holds.  Timed benchmark keys
   live in the lib/bench registry and run through `sage bench`.

   Usage: bench/main.exe [ID...]   the whole page, or the sections named
   in [targets] below.  Exits 1 after the page when a printed claim
   fails, naming it on stderr, and 2 on an unknown ID. *)

open Printf
module P = Sage.Pipeline
module Lf = Sage_logic.Lf
module Ir = Sage_codegen.Ir
module Winnow = Sage_disambig.Winnow
module Checks = Sage_disambig.Checks
module Chunker = Sage_nlp.Chunker
module Parser = Sage_ccg.Parser
module Addr = Sage_net.Addr
module Ipv4 = Sage_net.Ipv4
module Udp = Sage_net.Udp
module Icmp = Sage_net.Icmp
module Bfd = Sage_net.Bfd
module Net = Sage_sim.Network
module Ping = Sage_sim.Ping
module Tr = Sage_sim.Traceroute
module Sm = Sage_sim.Student_model
module Gs = Sage_sim.Generated_stack
module Rt = Sage_interp.Runtime
module Pcap = Sage_net.Pcap
module Tcpdump = Sage_net.Tcpdump
module Components = Sage_corpus.Components

type claim = { claim : string; paper : string; measured : string; holds : bool }

type section = {
  title : string;
  table : (string list * string list list) option;  (* header, rows *)
  blocks : string list;  (* verbatim *)
  claims : claim list;
}

let section ?table ?(blocks = []) ?(claims = []) title = { title; table; blocks; claims }
let claim claim ~paper ~measured holds = { claim; paper; measured; holds }
let same claim ~paper ~measured = { claim; paper; measured; holds = (paper = measured) }

let a = Addr.of_string_exn
let addr_value s = Rt.VInt (Int64.logand (Int64.of_int32 (Addr.to_int32 (a s))) 0xffffffffL)
let count p l = List.length (List.filter p l)
let lines f l = String.concat "" (List.map (fun x -> "\n  " ^ f x) l)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let truncate_sentence n s = if String.length s <= n then s else String.sub s 0 (n - 3) ^ "..."

(* cached pipeline runs *)
let runs = List.map (fun (c : P.corpus) -> (c.P.name, lazy (P.run_corpus c))) P.corpora
let run name = Lazy.force (List.assoc name runs)

(* sentences, parsed, zero-LF, ambiguous *)
let census r =
  ( List.length r.P.sentences,
    List.length (P.parsed_sentences r),
    List.length (P.zero_lf_sentences r),
    List.length (P.ambiguous_sentences r) )

let status_name = function
  | P.Parsed _ -> "1 LF"
  | P.Subject_supplied _ -> "1 LF (subject supplied)"
  | P.Zero_lf -> "0 LF"
  | P.Ambiguous lfs -> sprintf "%d LFs (ambiguous)" (List.length lfs)
  | P.Annotated_non_actionable -> "annotated non-actionable"
  | P.Crashed e -> sprintf "crashed: %s" e

(* the chart parser alone, over the ICMP lexicon and dictionary *)
let icmp_spec = lazy (P.icmp_spec ())

let icmp_parse ?strategy ?dict ?capacity ?expand_distributive s =
  let spec = Lazy.force icmp_spec in
  Parser.parse ?strategy ?capacity ?expand_distributive ~lexicon:spec.P.lexicon
    ~dict:(Option.value ~default:spec.P.dictionary dict) s

(* the ICMP run's sentences that no human marked non-actionable, and
   those of them the chart parses to more than one LF *)
let icmp_actionable =
  lazy
    (List.filter_map
       (fun r -> if r.P.status = P.Annotated_non_actionable then None else Some r.P.sentence)
       (run "icmp").P.sentences)

let multi_lf =
  lazy
    (List.filter_map
       (fun s -> match (icmp_parse s).Parser.lfs with _ :: _ :: _ as l -> Some (s, l) | _ -> None)
       (Lazy.force icmp_actionable))

let table2 () =
  let pinged =
    List.map
      (fun student ->
        let net = Net.default_topology ~service:(Sm.service_of student) () in
        (student, Ping.ping ~count:1 ~net (Net.server1_addr net)))
      Sm.cohort
  in
  let faulty = List.filter (fun (s, _) -> s.Sm.faults <> []) pinged in
  let n = List.length faulty in
  let passing l = count (fun (_, res) -> Ping.success res) l in
  (* faults a reply-classifier cannot observe (masked by other faults)
     still count via the student's fault set, as the paper's manual code
     inspection would have found them *)
  let share row =
    let has (student, res) =
      List.mem row
        (List.map Ping.failure_label (Ping.failures res)
        @ List.map Sm.fault_label student.Sm.faults)
    in
    sprintf "%.0f%%" (100. *. float_of_int (count has faulty) /. float_of_int n)
  in
  section
    "Table 2: error types of the failed cases and their frequency in the faulty \
     student ICMP implementations, regenerated by running ping against the \
     39-implementation fault-model cohort (1 does not compile)"
    ~claims:
      (List.map2
         (fun row paper -> same row ~paper ~measured:(share row))
         Sm.table2_rows [ "57%"; "57%"; "29%"; "43%"; "29%"; "36%" ]
      @ [
          same "implementations that interoperate with ping" ~paper:"24 of 39"
            ~measured:(sprintf "%d of %d" (passing pinged) (List.length pinged));
          same "faulty implementations that pass ping" ~paper:"0 of 14"
            ~measured:(sprintf "%d of %d" (passing faulty) n);
        ])

let table3 () =
  let numbered =
    List.mapi (fun i c -> (string_of_int (i + 1), c)) Sm.checksum_interpretations
  in
  section
    "Table 3: students' ICMP checksum range interpretations, checked against the \
     reference verifier"
    ~table:
      ([ "#"; "interpretation" ], List.map (fun (i, c) -> [ i; Sm.interpretation_name c ]) numbered)
    ~claims:
      [
        same "interpretations that interoperate" ~paper:"3, 6"
          ~measured:
            (String.concat ", "
               (List.filter_map
                  (fun (i, c) -> if Sm.interoperates c then Some i else None)
                  numbered));
      ]

let table4 () =
  let r =
    P.analyze_sentence (P.icmp_spec ()) ~message:"Destination Unreachable Message"
      ~field:"Type" "The type is 3."
  in
  let lf = match r.P.status with P.Parsed lf -> Lf.to_string lf | s -> status_name s in
  let f = Option.get (P.find_function (run "icmp") "icmp_destination_unreachable_sender") in
  let code =
    List.find_map
      (function
        | Ir.Assign (Ir.Lfield (Ir.Proto, "type"), Ir.Int v) ->
          Some (sprintf "hdr->type = %d;" v)
        | _ -> None)
      f.Ir.body
    |> Option.value ~default:"(not found)"
  in
  section "Table 4: logical form with context and resulting code"
    ~blocks:
      [
        sprintf
          "LF      | %s\n\
           CONTEXT | {\"protocol\": \"ICMP\", \"message\": \"Destination \
           Unreachable Message\", \"field\": \"type\", \"role\": \"\"}\n\
           CODE    | %s"
          lf code;
      ]
    ~claims:
      [ same "code generated for the type sentence" ~paper:"hdr->type = 3;" ~measured:code ]

let table5 () =
  let spec = P.bfd_spec () in
  let probe case text s =
    [ case; text; status_name (P.analyze_sentence spec s).P.status; truncate_sentence 80 s ]
  in
  let rows =
    [
      probe "nested code (co-reference)" "original"
        "If no session is found, the packet MUST be discarded.";
      probe "nested code (co-reference)" "rewritten"
        "If the Your Discriminator field is nonzero and no session is found, the \
         packet MUST be discarded.";
      probe "rephrasing fragment" "original"
        "If bfd.RemoteDemandMode is 1, bfd.SessionState is Up, and \
         bfd.RemoteSessionState is Up, Demand mode is active on the remote \
         system and the local system MUST cease the periodic transmission of \
         bfd control packets.";
      probe "rephrasing fragment" "rewritten"
        "If bfd.RemoteDemandMode is 1, bfd.SessionState is Up, and \
         bfd.RemoteSessionState is Up, the local system MUST cease the periodic \
         transmission of bfd control packets.";
    ]
  in
  let lfs i = List.nth (List.nth rows i) 2 in
  section "Table 5: challenging BFD state management sentences"
    ~table:([ "case"; "text"; "LFs"; "sentence" ], rows)
    ~claims:
      [
        same "the nested-code rewrite parses" ~paper:"1 LF" ~measured:(lfs 1);
        same "the rephrasing fragment's original text, then its rewrite"
          ~paper:"0 LF, then 1 LF" ~measured:(lfs 2 ^ ", then " ^ lfs 3);
      ]

let table6 () =
  let r = run "icmp" in
  let ambiguous = P.ambiguous_sentences r and zero = P.zero_lf_sentences r in
  let imprecise =
    List.filter
      (fun r ->
        contains r.P.sentence "to aid in matching" && contains r.P.sentence "may be zero")
      r.P.sentences
  in
  let reply r =
    String.starts_with ~prefix:"To form a" r.P.sentence && contains r.P.sentence "reply message"
  in
  let parsed r = match r.P.status with P.Parsed _ -> true | _ -> false in
  let n l = string_of_int (List.length l) in
  let examples kind = List.map (fun r -> [ kind; truncate_sentence 90 r.P.sentence ]) in
  section "Table 6: categorized rewritten ICMP (RFC 792) text"
    ~table:([ "category"; "sentence" ], examples ">1 LF" ambiguous @ examples "0 LF" zero)
    ~claims:
      [
        claim "more than 1 LF: the \"To form a ... reply message\" sentences" ~paper:"4"
          ~measured:(n ambiguous)
          (ambiguous <> [] && List.for_all reply ambiguous);
        same "0 LF" ~paper:"1" ~measured:(n zero);
        claim "imprecise sentences (\"may be zero\"), each parsed to 1 LF" ~paper:"6"
          ~measured:(n imprecise)
          (List.length imprecise = 6 && List.for_all parsed imprecise);
      ]

let table7 () =
  let sentence =
    "The address of the source in an echo message will be the destination of the \
     echo reply message."
  in
  let lfs strategy = List.length (icmp_parse ~strategy sentence).Parser.lfs in
  let good = lfs Chunker.Longest_match and poor = lfs Chunker.First_match in
  section
    ("Table 7: number of logical forms under good vs poor noun-phrase labels, for \""
    ^ sentence ^ "\"")
    ~claims:
      [
        claim
          "poor labels (first/shortest match) give more LFs than good labels \
           (longest dictionary match)"
          ~paper:"16 > 6" ~measured:(sprintf "%d > %d" poor good) (poor > good);
      ]

let table8 () =
  let sentences = Lazy.force icmp_actionable in
  let lfs ?strategy ?dict s = List.length (icmp_parse ?strategy ?dict s).Parser.lfs in
  let effect ?strategy ?dict () =
    List.fold_left
      (fun (up, down, zero) s ->
        let base = lfs s and alt = lfs ?strategy ?dict s in
        if alt = 0 && base > 0 then (up, down, zero + 1)
        else if alt > base then (up + 1, down, zero)
        else if alt < base then (up, down + 1, zero)
        else (up, down, zero))
      (0, 0, 0) sentences
  in
  let describe (up, down, zero) =
    sprintf "%d increase, %d decrease, %d zero (of %d)" up down zero
      (List.length sentences)
  in
  let ((up, down, zero) as no_dict) = effect ~dict:Sage_nlp.Term_dictionary.empty () in
  let ((_, _, unlabeled_zero) as no_labels) = effect ~strategy:Chunker.No_labeling () in
  section
    "Table 8: effect of disabling the domain dictionary and noun-phrase labeling on \
     the number of logical forms (ICMP corpus)"
    ~claims:
      [
        claim "removing the domain dictionary changes sentences' LF counts"
          ~paper:"17 increase (of 87)" ~measured:(describe no_dict) (up + down + zero > 0);
        claim "removing noun-phrase labeling leaves sentences with 0 LFs"
          ~paper:"8 decrease, 54 zero (of 87)" ~measured:(describe no_labels)
          (unlabeled_zero > 0);
      ]

let table11 () =
  let sentence =
    "If peer.mode is symmetric mode or peer.mode is client mode, the transmit \
     procedure is called and peer.timer is set to peer.hostpoll."
  in
  let r = P.analyze_sentence (P.ntp_spec ()) sentence in
  let lf, code =
    match r.P.status with
    | P.Parsed lf ->
      let ctx = Sage_codegen.Context.dynamic ~protocol:"NTP" ~message:"NTP Message" () in
      ( Lf.to_string lf,
        match Sage_codegen.Generate.gen_sentence ctx lf with
        | Ok pl -> lines (Fmt.str "%a" Ir.pp_stmt) pl.Sage_codegen.Generate.stmts
        | Error e -> " (failed: " ^ e ^ ")" )
    | other -> (status_name other, "")
  in
  section "Table 11: NTP peer variable sentence and resulting code"
    ~blocks:[ sprintf "SENTENCE | %s\nLF       | %s\nCODE     |%s" sentence lf code ]
    ~claims:[ same "LFs of the sentence" ~paper:"1 LF" ~measured:(status_name r.P.status) ]

(* Tables 9 and 10: one inventory over either kind of component *)
let inventory title components name support has () =
  section title
    ~table:
      ( "component" :: "SAGE support" :: Components.rfcs,
        List.map
          (fun c ->
            name c :: Components.support_mark (support c)
            :: List.map (fun rfc -> if has ~rfc c then "x" else "") Components.rfcs)
          components )

let fig5 () =
  let traces =
    List.map
      (fun (label, name) ->
        ( label,
          List.filter_map
            (fun r ->
              match r.P.trace with
              | Some tr when tr.Winnow.base >= 2 -> Some (r.P.sentence, tr)
              | _ -> None)
            (run name).P.sentences ))
      [ ("a: ICMP", "icmp"); ("b: IGMP", "igmp"); ("c: BFD", "bfd-rw") ]
  in
  let all = List.concat_map snd traces in
  let stages =
    match all with (_, tr) :: _ -> List.map fst (Winnow.stage_counts tr) | [] -> []
  in
  let cell trs i =
    match List.map (fun (_, tr) -> snd (List.nth (Winnow.stage_counts tr) i)) trs with
    | [] -> "-"
    | v ->
      sprintf "%d / %.2f / %d" (List.fold_left min max_int v)
        (float_of_int (List.fold_left ( + ) 0 v) /. float_of_int (List.length v))
        (List.fold_left max 0 v)
  in
  let above = List.filter (fun (_, tr) -> List.length tr.Winnow.survivors > 1) all in
  let icmp_reply (s, _) =
    List.mem_assoc s (List.assoc "a: ICMP" traces)
    && String.starts_with ~prefix:"To form a" s && contains s "reply message"
  in
  section
    "Figure 5: number of LFs after each inconsistency check (Base -> Type -> ArgOrd \
     -> PredOrd -> Distrib -> Assoc), min / avg / max over each corpus's multi-LF \
     sentences"
    ~table:
      ( "stage"
        :: List.map
             (fun (l, trs) -> sprintf "%s, %d sentences" l (List.length trs))
             traces,
        List.mapi
          (fun i stage -> stage :: List.map (fun (_, trs) -> cell trs i) traces)
          stages )
    ~claims:
      [
        same "multi-LF sentences winnowed to 0 LFs" ~paper:"0"
          ~measured:(string_of_int (count (fun (_, tr) -> tr.Winnow.survivors = []) all));
        claim "sentences left above 1 LF after the associativity check"
          ~paper:"only truly ambiguous ones"
          ~measured:
            (if List.for_all icmp_reply above then
               sprintf "%d, ICMP's \"To form a ... reply message\"" (List.length above)
             else String.concat "; " (List.map (fun (s, _) -> truncate_sentence 40 s) above))
          (List.length above = 3 && List.for_all icmp_reply above);
      ]

let fig6 () =
  let sentences = Lazy.force multi_lf in
  let n = float_of_int (max 1 (List.length sentences)) in
  let effect family =
    let removed =
      List.map (fun (_, lfs) -> float_of_int (Winnow.apply_single_family family lfs)) sentences
    in
    let mean = List.fold_left ( +. ) 0. removed /. n in
    let var = List.fold_left (fun acc r -> acc +. ((r -. mean) ** 2.)) 0. removed /. n in
    (Checks.family_name family, mean, sqrt var /. sqrt n, count (fun r -> r > 0.) removed)
  in
  let effects =
    List.map effect
      [ Checks.Type_check; Checks.Arg_order; Checks.Pred_order; Checks.Distributivity;
        Checks.Associativity ]
  in
  let idle = List.filter (fun (_, _, _, affected) -> affected = 0) effects in
  let by_mean = List.sort (fun (_, m1, _, _) (_, m2, _, _) -> compare m2 m1) effects in
  let top_two = List.filteri (fun i _ -> i < 2) (List.map (fun (f, _, _, _) -> f) by_mean) in
  section
    "Figure 6: effect of each disambiguation check family alone on RFC 792's \
     multi-LF sentences: average LFs removed per sentence, and the number of \
     sentences affected"
    ~table:
      ( [ "check family"; "avg removed"; "stderr"; "sentences affected" ],
        List.map
          (fun (name, mean, stderr, affected) ->
            [ name; sprintf "%.2f" mean; sprintf "%.2f" stderr;
              string_of_int affected ])
          effects )
    ~claims:
      [
        claim "multi-LF sentences (the chart over-generates)" ~paper:"42"
          ~measured:(string_of_int (List.length sentences)) (sentences <> []);
        same "check families that remove LFs from at least one sentence" ~paper:"5 of 5"
          ~measured:
            (String.concat "; "
               (sprintf "%d of 5" (5 - List.length idle)
               :: List.map (fun (f, _, _, _) -> f ^ " removes none") idle));
        claim "the two families that remove the most LFs" ~paper:"type, argument ordering"
          ~measured:(String.concat ", " top_two)
          (List.sort compare top_two = [ "argument ordering"; "type" ]);
      ]

let fig7 () =
  let sentence = "For computing the checksum, the checksum should be zero." in
  let r = icmp_parse sentence in
  section ("Figure 7 (Appendix B): deriving a logical form for \"" ^ sentence ^ "\"")
    ~blocks:
      [
        (match r.Parser.items with
         | item :: _ ->
           Fmt.str "%a" Parser.pp_deriv item.Parser.deriv
           ^ "\n\nfinal logical forms:" ^ lines Lf.to_string r.Parser.lfs
         | [] -> "no derivation");
      ]

let e2e_pcap () =
  let st = Gs.of_run (run "icmp-rw") in
  let datagram ~protocol ~dst payload =
    Ipv4.encode
      (Ipv4.make ~protocol ~src:(a "10.0.1.50") ~dst:(a dst)
         ~payload_len:(Bytes.length payload) ())
      ~payload
  in
  let original = datagram ~protocol:Ipv4.protocol_udp ~dst:"203.0.113.77" (Bytes.make 16 'q') in
  let send fn =
    Result.map Option.some
      (Gs.build_message ~data:(Bytes.of_string "sage") ~src:(a "10.0.1.50")
         ~dst:(a "192.168.2.10") st ~fn)
  in
  let error params fn =
    Result.map Option.some
      (Gs.build_error_message ~params ~router_addr:(a "10.0.1.1") ~original st ~fn)
  in
  let reply msg fn =
    Gs.process_request st ~fn
      ~request:(datagram ~protocol:Ipv4.protocol_icmp ~dst:"192.168.2.10" (Icmp.encode msg))
  in
  let cap = Pcap.create () in
  let failed =
    List.filter_map
      (fun (fn, make) ->
        match make fn with
        | Ok (Some d) -> Pcap.add_packet cap d; None
        | Ok None -> Some [ fn; "DISCARDED" ]
        | Error e -> Some [ fn; "FAILED: " ^ e ])
      [
        ("icmp_echo_sender", send);
        ("icmp_timestamp_sender", send);
        ("icmp_information_request_sender", send);
        ("icmp_destination_unreachable_sender", error []);
        ("icmp_time_exceeded_sender", error []);
        ("icmp_source_quench_sender", error []);
        ("icmp_parameter_problem_sender", error [ ("error_pointer", Rt.VInt 1L) ]);
        ("icmp_redirect_sender", error [ ("gateway_address", addr_value "10.0.1.1") ]);
        ( "icmp_echo_reply_receiver",
          reply
            (Icmp.Echo
               { Icmp.echo_code = 0; identifier = 7; sequence = 1;
                 payload = Bytes.of_string "ping!!!" }) );
        ( "icmp_timestamp_reply_receiver",
          reply
            (Icmp.Timestamp
               { Icmp.ts_code = 0; ts_identifier = 7; ts_sequence = 1; originate = 9l;
                 receive = 0l; transmit = 0l }) );
        ( "icmp_information_reply_receiver",
          reply
            (Icmp.Information_request
               { Icmp.info_code = 0; info_identifier = 7; info_sequence = 1 }) );
      ]
  in
  let verdicts, rows =
    match Tcpdump.inspect_capture_bytes (Pcap.to_bytes cap) with
    | Ok vs ->
      ( vs,
        List.map
          (fun v ->
            [ truncate_sentence 70 v.Tcpdump.description;
              (if Tcpdump.clean v then "ok"
               else "WARN: " ^ String.concat "; " v.Tcpdump.warnings) ])
          vs )
    | Error e -> ([], [ [ "capture unreadable"; e ] ])
  in
  section
    "§6.2 packet-capture verification: every generated message type stored in a \
     pcap capture and inspected tcpdump-style"
    ~table:([ "packet"; "verdict" ], rows @ failed)
    ~claims:
      [
        same "generated packets captured and read without warnings" ~paper:"11/11"
          ~measured:
            (sprintf "%d/%d" (count Tcpdump.clean verdicts)
               (List.length verdicts + List.length failed));
      ]

let e2e_interop () =
  let probe name =
    let service = Sage_sim.Icmp_service.generated (Gs.of_run (run name)) in
    let net = Net.default_topology ~service () in
    let p = Ping.ping ~net (Net.server1_addr net) in
    let t = Tr.traceroute ~net (Net.server1_addr net) in
    let quotes = List.for_all (fun (h : Tr.hop) -> h.Tr.quoted_probe_ok) t.Tr.hops in
    let ok b = if b then "ok" else "FAIL" in
    ( Ping.success p,
      t.Tr.reached && quotes,
      sprintf "ping %s (%d/%d), traceroute %s (%d hops, quotes %s)" (ok (Ping.success p))
        p.Ping.received p.Ping.sent (ok t.Tr.reached) (Tr.hop_count t)
        (if quotes then "valid" else "INVALID") )
  in
  let ping_rw, tr_rw, rewritten = probe "icmp-rw" in
  let ping_orig, _, original = probe "icmp" in
  section
    "§6.2 interoperation with existing tools: ping and traceroute against the \
     SAGE-generated router/receiver"
    ~claims:
      [
        claim "rewritten (disambiguated) text: ping and traceroute interoperate"
          ~paper:"ping ok, traceroute ok" ~measured:rewritten (ping_rw && tr_rw);
        claim "original RFC text: the under-specified identifier sentence breaks ping"
          ~paper:"ping FAIL" ~measured:original (not ping_orig);
      ]

let generality () =
  let inspect d =
    let v = Tcpdump.inspect_datagram d in
    (Tcpdump.clean v, v.Tcpdump.description ^ if Tcpdump.clean v then " [ok]" else " [WARN]")
  in
  let igmp = run "igmp" and ntp = run "ntp" in
  let corpus label r =
    let sentences, parsed, _, _ = census r in
    [ label ^ " corpus";
      sprintf "%d sentences, %d parsed, %d functions, %d codegen failures" sentences parsed
        (List.length r.P.codegen.P.functions) (List.length r.P.codegen.P.non_actionable) ]
  in
  let query, reports =
    match
      Gs.build_message ~params:[ ("all_hosts_group", addr_value "224.0.0.1") ]
        ~src:(a "10.0.1.1") ~dst:(a "224.0.0.1") (Gs.of_run igmp)
        ~fn:"igmp_host_membership_query_sender"
    with
    | Error e -> ((false, "FAILED: " ^ e), [])
    | Ok dgram ->
      (* the commodity switch answers with reports for its joined groups *)
      let switch =
        Sage_sim.Igmp_switch.create ~groups:[ a "224.9.9.9"; a "239.1.2.3" ] (a "10.0.1.77")
      in
      ( inspect dgram,
        match Sage_sim.Igmp_switch.receive switch dgram with
        | Ok reports -> List.map inspect reports
        | Error e -> [ (false, "switch rejected the query: " ^ e) ] )
  in
  let ntp_dgram =
    Gs.build_message ~src:(a "10.0.1.50") ~dst:(a "192.168.2.10") (Gs.of_run ntp)
      ~fn:"ntp_ntp_sender"
  in
  (* IP, then the UDP header the generated code asks for (port 123, RFC
     1059 App. A; the checksum covers the pseudo-header), then NTP *)
  let ntp_layers =
    let decoded r = Result.map_error Sage_net.Decode_error.to_string r in
    Result.bind ntp_dgram (fun dgram ->
        Result.bind (decoded (Ipv4.decode dgram)) (fun (ip, segment) ->
            Result.bind
              (decoded (Udp.decode_verified ~src:ip.Ipv4.src ~dst:ip.Ipv4.dst segment))
              (fun (udp, payload) ->
                Result.map (fun p -> (ip, udp, p)) (decoded (Sage_net.Ntp.decode payload)))))
  in
  section "§6.3 generality: IGMP and NTP"
    ~table:
      ( [ "artifact"; "result" ],
        [ corpus "IGMP" igmp; [ "IGMP query"; snd query ] ]
        @ List.map (fun (_, r) -> [ "IGMP switch report"; r ]) reports
        @ [ corpus "NTP" ntp;
            [ "NTP packet";
              (match ntp_dgram with Ok d -> snd (inspect d) | Error e -> "FAILED: " ^ e) ] ] )
    ~claims:
      [
        claim "IGMP: the switch answers the generated query with clean reports"
          ~paper:"interoperates" ~measured:(sprintf "%d reports" (count fst reports))
          (fst query && reports <> [] && List.for_all fst reports);
        claim
          "NTP: the generated datagram decodes as IP, then UDP from and to port 123 \
           with a valid checksum, then NTP with poll 6"
          ~paper:"NTP and UDP headers"
          ~measured:
            (match ntp_layers with
             | Ok (ip, udp, p) ->
               sprintf "IP protocol %d, UDP %d > %d, NTP poll %d" ip.Ipv4.protocol
                 udp.Udp.src_port udp.Udp.dst_port p.Sage_net.Ntp.poll
             | Error e -> "fails: " ^ e)
          (match ntp_layers with
           | Ok (ip, udp, p) ->
             (* decode_verified accepts a zero (absent) checksum *)
             ip.Ipv4.protocol = Ipv4.protocol_udp && udp.Udp.src_port = 123
             && udp.Udp.dst_port = 123 && udp.Udp.checksum <> 0
             && p.Sage_net.Ntp.poll = 6
           | Error _ -> false);
      ]

let bfd_target () =
  let rewr = run "bfd-rw" in
  let row text r =
    let sentences, parsed, zero, ambiguous = census r in
    text :: List.map string_of_int [ sentences; parsed; zero; ambiguous ]
  in
  let _, _, zero, ambiguous = census rewr in
  (* the paper's state-management sentences *)
  let sm_section = Sage_corpus.Bfd_rfc.state_management_section in
  let lo, hi = Sage_corpus.Bfd_rfc.state_management_band in
  let state_management r =
    count (fun s -> s.P.message = Some sm_section) r.P.sentences
  in
  let sm_original = state_management (run "bfd") and sm_rewritten = state_management rewr in
  let max_base =
    List.fold_left
      (fun acc r -> match r.P.trace with Some tr -> max acc tr.Winnow.base | None -> acc)
      0 rewr.P.sentences
  in
  (* the reference session, moved from [from_state] by a packet in [input] *)
  let reference from_state input =
    let state code = Result.get_ok (Bfd.state_of_code (Int64.to_int code)) in
    let s = Bfd.new_session ~local_discr:7l in
    s.Bfd.session_state <- state from_state;
    match
      Bfd.receive_control_packet s
        { Bfd.default_packet with
          Bfd.my_discriminator = 9l; your_discriminator = 7l; state = state input }
    with
    | `Ok -> Some (Int64.of_int (Bfd.state_code s.Bfd.session_state))
    | `Discard _ -> None
  in
  let fsm, disagreements =
    match Sage_sim.Fsm.bfd_machine (Gs.of_run rewr) with
    | Ok machine ->
      let name code =
        Result.fold ~ok:Bfd.state_name ~error:(fun _ -> "?") (Bfd.state_of_code (Int64.to_int code))
      in
      ( Fmt.str "%a" (Sage_sim.Fsm.pp ~state_name:name) machine,
        sprintf "%d of %d"
          (List.length (Sage_sim.Fsm.agrees_with machine ~reference))
          (List.length machine.Sage_sim.Fsm.transitions) )
    | Error e -> ("fsm extraction failed: " ^ e, "no machine")
  in
  section "§6.4 BFD state management"
    ~table:
      ( [ "text"; "sentences"; "parsed"; "zero-LF"; "ambiguous" ],
        [ row "original" (run "bfd"); row "rewritten" rewr ] )
    ~blocks:[ fsm ]
    ~claims:
      [
        claim "max base LFs of one rewritten sentence, every sentence winnowed to 1"
          ~paper:"up to 56" ~measured:(string_of_int max_base)
          (max_base >= 2 && zero = 0 && ambiguous = 0);
        claim
          (sprintf
             "state-management sentences (under %S), original and rewritten \
              text, each within %d-%d"
             sm_section lo hi)
          ~paper:"22" ~measured:(sprintf "%d, %d" sm_original sm_rewritten)
          (List.for_all (fun n -> n >= lo && n <= hi) [ sm_original; sm_rewritten ]);
        same
          "(state x input) pairs where the state machine recovered from the \
           generated code disagrees with the reference implementation"
          ~paper:"0 of 9" ~measured:disagreements;
      ]

let stats () =
  let lex = Sage_ccg.Lexicon.bfd () in
  let entries o = Sage_ccg.Lexicon.count ~origin:o lex in
  section "§6.1 implementation statistics"
    ~table:
      ( [ "quantity"; "paper"; "measured" ],
        List.map
          (fun (q, paper, measured) -> [ q; paper; string_of_int measured ])
          [
            ( "networking dictionary terms", "~400",
              Sage_nlp.Term_dictionary.size (Sage_nlp.Term_dictionary.base ()) );
            ( "lexicon entries for ICMP (core + ICMP)", "71",
              entries Sage_ccg.Lexicon.Core + entries Sage_ccg.Lexicon.Icmp );
            ("additional entries for IGMP", "8", entries Sage_ccg.Lexicon.Igmp);
            ("additional entries for NTP", "5", entries Sage_ccg.Lexicon.Ntp);
            ("additional entries for BFD", "15", entries Sage_ccg.Lexicon.Bfd);
            ("type checks", "32", List.length Checks.type_checks);
            ("argument ordering checks", "7", List.length Checks.arg_order_checks);
            ("predicate ordering checks", "4+2", List.length Checks.pred_order_checks);
            ("distributivity checks", "1", 1);
            ("predicate handler functions", "25", Sage_codegen.Generate.handler_count);
            ("interpreter framework builtins", "-", List.length Sage_interp.Exec.builtin_names);
            ("ICMP corpus sentence instances", "87", List.length (run "icmp").P.sentences);
          ] )

let extensions () =
  let tcp = run "tcp" and bgp = run "bgp" in
  let c_of r fn =
    Option.to_list (Option.map Sage_codegen.C_printer.render_func (P.find_function r fn))
  in
  let sentences, parsed, zero, ambiguous = census tcp in
  let tcp_rows =
    List.filter_map
      (fun r ->
        match r.P.status with
        | P.Parsed _ | P.Subject_supplied _ -> Some (r.P.sentence, "ok")
        | P.Zero_lf | P.Ambiguous _ -> Some (r.P.sentence, "gap")
        | _ -> None)
      tcp.P.sentences
  in
  let gap = List.filter (fun (_, status) -> status = "gap") tcp_rows in
  let bgp_sentences, bgp_parsed, bgp_zero, _ = census bgp in
  let bgp_failures = List.length bgp.P.codegen.P.non_actionable in
  let bfd_fsm_art =
    "                   +------+                      +------+\n\
    \              +----|      |                      |      |----+\n\
    \          DOWN|    | INIT |--------------------->|  UP  |    |INIT, UP\n\
    \              +--->|      |        INIT, UP      |      |<---+\n\
    \                   +------+                      +------+"
  in
  let diagram_lfs, diagram =
    match Sage_rfc.State_diagram.parse bfd_fsm_art with
    | Ok t ->
      let lfs = Sage_rfc.State_diagram.to_lfs t in
      ( List.length lfs,
        Fmt.str "%a" Sage_rfc.State_diagram.pp t
        ^ "\nrecovered logical forms:" ^ lines Lf.to_string lfs )
    | Error e -> (0, "diagram parse failed: " ^ e)
  in
  section
    "§7 extensions: TCP (RFC 793 excerpt) with the BFD-level lexicon, BGP (RFC 4271 \
     OPEN + FSM prose) and RFC 5880 §3.2's session FSM art (boxes + horizontal \
     labeled arrows): their C, then the parsed diagram"
    ~table:
      ( [ "TCP sentence"; "parses" ],
        List.map (fun (s, status) -> [ truncate_sentence 74 s; status ]) tcp_rows )
    ~blocks:
      (c_of tcp "tcp_tcp_segment_header_sender" @ c_of bgp "bgp_bgp_open_sender" @ [ diagram ])
    ~claims:
      [
        claim "TCP: header format and simple constraints parse; state-machine prose is the gap"
          ~paper:"within reach"
          ~measured:
            (sprintf "%d sentences: %d parsed, %d zero-LF, %d ambiguous, %d annotated"
               sentences parsed zero ambiguous
               (count (fun r -> r.P.status = P.Annotated_non_actionable) tcp.P.sentences))
          (parsed > 0 && gap <> [] && List.for_all (fun (s, _) -> contains s "state") gap);
        claim "BGP: the FSM prose is the state-management style SAGE already parses"
          ~paper:"within reach"
          ~measured:
            (sprintf "%d sentences: %d parsed, %d zero-LF, %d codegen failures"
               bgp_sentences bgp_parsed bgp_zero bgp_failures)
          (bgp_parsed = bgp_sentences && bgp_failures = 0);
        claim "state-machine diagram art lowers to logical forms"
          ~paper:"unsupported (Table 10)"
          ~measured:(sprintf "%d LFs" diagram_lfs) (diagram_lfs > 0);
      ]

let ablate_order () =
  let survivors lfs = List.length (Winnow.winnow lfs).Winnow.survivors in
  let rows =
    List.map
      (fun (s, lfs) ->
        (s, List.length lfs, survivors lfs, survivors (fst (Checks.merge_isomorphic lfs))))
      (Lazy.force multi_lf)
  in
  let agree = count (fun (_, _, fwd, first) -> fwd = first) rows in
  section "Ablation: winnowing check order, associativity first vs the paper's order (Figure 5)"
    ~table:
      ( [ "sentence"; "base"; "paper order"; "assoc first" ],
        List.map
          (fun (s, base, fwd, first) ->
            truncate_sentence 64 s :: List.map string_of_int [ base; fwd; first ])
          rows )
    ~claims:
      [
        claim "sentences where both orders leave the same survivor count" ~paper:"all"
          ~measured:(sprintf "%d of %d" agree (List.length rows))
          (agree = List.length rows);
      ]

let ablate_cap () =
  let sentence =
    "If code = 0, an identifier to aid in matching echos and replies, may be zero."
  in
  let parse ?capacity () =
    let r = icmp_parse ?capacity sentence in
    ( List.length r.Parser.lfs,
      r.Parser.truncated,
      List.length (Winnow.winnow r.Parser.lfs).Winnow.survivors )
  in
  let rows =
    List.map (fun cap -> (cap, parse ~capacity:cap ())) [ 4; 8; 16; 32; 64; 160; 512 ]
  in
  let lost = List.filter (fun (_, (_, _, survivors)) -> survivors = 0) rows in
  let default_lfs, default_truncated, _ = parse () and largest_lfs, _, _ = List.assoc 512 rows in
  section
    "Ablation: chart cell capacity; too small a cap truncates the chart and can \
     lose the correct derivation (sentence E)"
    ~table:
      ( [ "capacity"; "base LFs"; "truncated"; "survivors" ],
        List.map
          (fun (cap, (lfs, truncated, survivors)) ->
            [ string_of_int cap; string_of_int lfs; string_of_bool truncated;
              string_of_int survivors ])
          rows )
    ~claims:
      [
        claim "capacities that lose the derivation, each truncating the chart"
          ~paper:"small caps"
          ~measured:(sprintf "%d of %d" (List.length lost) (List.length rows))
          (lost <> [] && List.for_all (fun (_, (_, truncated, _)) -> truncated) lost);
        claim "the default capacity keeps every LF of the largest cap" ~paper:"loss-free"
          ~measured:
            (sprintf "%d of %d LFs, %s" default_lfs largest_lfs
               (if default_truncated then "truncated" else "not truncated"))
          (default_lfs = largest_lfs && not default_truncated);
      ]

let ablate_overgen () =
  let rows =
    List.map
      (fun (s, lfs) ->
        (s, List.length lfs, List.length (icmp_parse ~expand_distributive:false s).Parser.lfs))
      (Lazy.force multi_lf)
  in
  let more = count (fun (_, w, wo) -> w > wo) rows in
  let fewer = count (fun (_, w, wo) -> w < wo) rows in
  section
    "Ablation: CCG over-generation modeling, base LFs with and without the \
     expansion pass (if-swap + distribution); winnowing exists precisely because \
     the expansion-modeled readings are derivable"
    ~table:
      ( [ "sentence"; "with"; "without" ],
        List.map
          (fun (s, w, wo) -> [ truncate_sentence 64 s; string_of_int w; string_of_int wo ])
          rows )
    ~claims:
      [
        claim "the expansion pass adds readings and never removes one" ~paper:"adds readings"
          ~measured:
            (sprintf "more on %d of %d sentences, fewer on %d" more
               (List.length rows) fewer)
          (more > 0 && fewer = 0);
      ]

let ablate_assoc () =
  let lfs =
    (icmp_parse
       "The checksum is the 16-bit one's complement of the one's complement sum of \
        the ICMP message starting with the ICMP type.")
      .Parser.lfs
  in
  let equality = List.length (Lf.dedup lfs) in
  let iso = List.length (fst (Checks.merge_isomorphic lfs)) in
  section
    "Ablation: associativity via graph isomorphism vs plain syntactic equality \
     (paper §4.2: isomorphism is required to merge of-chains)"
    ~claims:
      [
        claim "sentence H: only the isomorphism merge leaves 1 LF"
          ~paper:"isomorphism required"
          ~measured:
            (sprintf "%d base LFs; %d after equality dedup, %d after isomorphism merge"
               (List.length lfs) equality iso)
          (equality > 1 && iso = 1);
      ]

let table9 =
  inventory "Table 9: conceptual components in RFCs (x = present)"
    Components.conceptual_components Components.conceptual_name
    Components.sage_supports_conceptual Components.has_conceptual

let table10 =
  inventory "Table 10: syntactic components in RFCs (x = present)"
    Components.syntactic_components Components.syntactic_name
    Components.sage_supports_syntactic Components.has_syntactic

let targets =
  [ ("table2", table2); ("table3", table3); ("table4", table4); ("table5", table5);
    ("table6", table6); ("table7", table7); ("table8", table8); ("table9", table9);
    ("table10", table10); ("table11", table11); ("fig5", fig5); ("fig6", fig6);
    ("e2e-pcap", e2e_pcap); ("e2e-interop", e2e_interop); ("generality", generality);
    ("bfd", bfd_target); ("extensions", extensions); ("stats", stats); ("fig7", fig7);
    ("ablate-order", ablate_order); ("ablate-cap", ablate_cap);
    ("ablate-overgen", ablate_overgen); ("ablate-assoc", ablate_assoc) ]

let render_table (header, rows) =
  let row cells = "| " ^ String.concat " | " cells ^ " |\n" in
  String.concat "" (row header :: row (List.map (fun _ -> "---") header) :: List.map row rows)

let render (id, s) =
  let b = Buffer.create 4096 in
  bprintf b "\n## %s\n\n%s\n" id s.title;
  Option.iter (fun t -> bprintf b "\n%s" (render_table t)) s.table;
  List.iter (fun v -> bprintf b "\n```\n%s\n```\n" (String.trim v)) s.blocks;
  if s.claims <> [] then
    bprintf b "\n%s"
      (render_table
         ( [ "claim"; "paper"; "measured"; "holds" ],
           List.map
             (fun c -> [ c.claim; c.paper; c.measured; (if c.holds then "yes" else "NO") ])
             s.claims ));
  Buffer.contents b

let () =
  let ids = match List.tl (Array.to_list Sys.argv) with [] -> List.map fst targets | ids -> ids in
  List.iter
    (fun id ->
      if not (List.mem_assoc id targets) then (
        eprintf "unknown section %S; available: %s\n" id
          (String.concat ", " (List.map fst targets));
        exit 2))
    ids;
  let page = List.map (fun id -> (id, List.assoc id targets ())) ids in
  print_string ("# Paper reproduction\n" ^ String.concat "" (List.map render page));
  let failed =
    List.concat_map (fun (id, s) -> List.map (fun c -> (id, c)) s.claims) page
    |> List.filter (fun (_, c) -> not c.holds)
  in
  List.iter
    (fun (id, c) ->
      eprintf "%s: claim fails: %s (paper: %s, measured: %s)\n" id c.claim c.paper c.measured)
    failed;
  if failed <> [] then exit 1
