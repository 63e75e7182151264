(* Tests for the CCG machinery: categories, semantic terms, lexicon, and
   the chart parser. *)

module Cat = Sage_ccg.Category
module Sem = Sage_ccg.Sem
module Lex = Sage_ccg.Lexicon
module Parser = Sage_ccg.Parser
module Lf = Sage_logic.Lf
module Dict = Sage_nlp.Term_dictionary

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---- categories ---- *)

let cat_roundtrip s =
  match Cat.of_string s with
  | Ok c -> Cat.to_string c
  | Error e -> Alcotest.failf "category %S: %s" s e

let test_category_parse () =
  check Alcotest.string "simple" "NP" (cat_roundtrip "NP");
  check Alcotest.string "verb" "(S\\NP)/NP" (cat_roundtrip "(S\\NP)/NP");
  check Alcotest.string "modal" "(S\\NP)/(S\\NP)" (cat_roundtrip "(S\\NP)/(S\\NP)");
  check Alcotest.string "pp" "PP/NP" (cat_roundtrip "PP/NP")

let test_category_left_assoc () =
  (* X/Y/Z parses as (X/Y)/Z *)
  match Cat.of_string "S/NP/NP" with
  | Ok (Cat.Fwd (Cat.Fwd (Cat.Atom Cat.S, Cat.Atom Cat.NP), Cat.Atom Cat.NP)) -> ()
  | Ok c -> Alcotest.failf "wrong associativity: %s" (Cat.to_string c)
  | Error e -> Alcotest.fail e

let test_category_errors () =
  List.iter
    (fun bad ->
      match Cat.of_string bad with
      | Ok c -> Alcotest.failf "%S parsed to %s" bad (Cat.to_string c)
      | Error _ -> ())
    [ ""; "Q"; "(S"; "S/"; "S)" ]

let test_category_arity () =
  let get s = Result.get_ok (Cat.of_string s) in
  check Alcotest.int "atom" 0 (Cat.arity (get "NP"));
  check Alcotest.int "transitive" 2 (Cat.arity (get "(S\\NP)/NP"))

(* ---- semantic terms ---- *)

let test_beta_identity () =
  let id = Sem.lam "x" (Sem.var "x") in
  let t = Sem.beta_reduce (Sem.app id (Sem.term "checksum")) in
  check Alcotest.bool "identity applies" true (Sem.equal t (Sem.term "checksum"))

let test_beta_copula () =
  (* λx.λy.@Is(y,x) applied to 0 then "checksum" *)
  let copula =
    Sem.lam2 "x" "y" (Sem.pred Lf.p_is [ Sem.var "y"; Sem.var "x" ])
  in
  let t = Sem.beta_reduce (Sem.app (Sem.app copula (Sem.num 0)) (Sem.term "checksum")) in
  match Sem.to_lf t with
  | Some lf ->
    check Alcotest.string "checksum is zero" "@Is('checksum', 0)" (Lf.to_string lf)
  | None -> Alcotest.fail "not ground"

let test_capture_avoidance () =
  (* (λx.λy.x) y must not capture the free y *)
  let k = Sem.lam "x" (Sem.lam "y" (Sem.var "x")) in
  let t = Sem.beta_reduce (Sem.app k (Sem.var "y")) in
  match t with
  | Sem.Lam (binder, Sem.Var v) ->
    check Alcotest.bool "no capture" true (binder <> "y" || v <> binder);
    check Alcotest.bool "body is the free y" true (String.length v > 0)
  | _ -> Alcotest.failf "unexpected %s" (Sem.to_string t)

let test_to_lf_incomplete () =
  check Alcotest.bool "lambda is not ground" true
    (Sem.to_lf (Sem.lam "x" (Sem.var "x")) = None)

let test_alpha_equality () =
  let a = Sem.lam "x" (Sem.var "x") and b = Sem.lam "y" (Sem.var "y") in
  check Alcotest.bool "alpha-equivalent" true (Sem.equal a b)

(* ---- lexicon ---- *)

let test_lexicon_counts_grow () =
  let core = Lex.count (Lex.core ()) in
  let icmp = Lex.count (Lex.icmp ()) in
  let igmp = Lex.count (Lex.igmp ()) in
  let ntp = Lex.count (Lex.ntp ()) in
  let bfd = Lex.count (Lex.bfd ()) in
  check Alcotest.bool "monotone growth" true
    (core < icmp && icmp < igmp && igmp < ntp && ntp < bfd)

let test_lexicon_incremental_extension_sizes () =
  (* §6.3/§6.4: marginal additions per protocol are small *)
  let lex = Lex.bfd () in
  let igmp_only = Lex.count ~origin:Lex.Igmp lex in
  let ntp_only = Lex.count ~origin:Lex.Ntp lex in
  let bfd_only = Lex.count ~origin:Lex.Bfd lex in
  check Alcotest.bool "IGMP adds ~8" true (igmp_only >= 4 && igmp_only <= 12);
  check Alcotest.bool "NTP adds ~5" true (ntp_only >= 3 && ntp_only <= 8);
  check Alcotest.bool "BFD adds ~15" true (bfd_only >= 10 && bfd_only <= 20)

let test_lexicon_lookup () =
  let lex = Lex.icmp () in
  check Alcotest.bool "is has entries" true (List.length (Lex.lookup lex "is") >= 2);
  check Alcotest.bool "checksum keyword" true (Lex.lookup lex "checksum" <> []);
  check Alcotest.bool "case-insensitive" true (Lex.lookup lex "IS" <> [])

let test_lexicon_fallbacks () =
  let lex = Lex.icmp () in
  let np_chunk =
    { Sage_nlp.Chunker.text = "unknown phrase"; is_np = true;
      tokens = [ Sage_nlp.Token.v Sage_nlp.Token.Word "unknown" ] }
  in
  (match Lex.entries_for_chunk lex np_chunk with
   | [ e ] -> check Alcotest.bool "NP fallback" true (Cat.equal e.Lex.cat Cat.np)
   | other -> Alcotest.failf "expected 1 entry, got %d" (List.length other));
  let num_chunk =
    { Sage_nlp.Chunker.text = "42"; is_np = false;
      tokens = [ Sage_nlp.Token.v Sage_nlp.Token.Number "42" ] }
  in
  match Lex.entries_for_chunk lex num_chunk with
  | [ e ] ->
    check Alcotest.bool "number fallback sem" true
      (Sem.equal e.Lex.sem (Sem.num 42))
  | other -> Alcotest.failf "expected 1 entry, got %d" (List.length other)

(* ---- parser ---- *)

let dict = Dict.base ()
let lexicon = Lex.icmp ()

let parse s = Parser.parse ~lexicon ~dict s

let lf_strings r = List.map Lf.to_string r.Parser.lfs

let test_parse_simple_assignment () =
  let r = parse "The checksum is zero." in
  check Alcotest.(list string) "one LF" [ "@Is('checksum', 0)" ] (lf_strings r)

let test_parse_condition () =
  let r = parse "If code = 0, the identifier may be zero." in
  check Alcotest.bool "has test reading" true
    (List.exists (fun lf -> Lf.mem_pred Lf.p_cmp lf) r.Parser.lfs);
  check Alcotest.bool "has assignment reading" true
    (List.exists
       (fun lf ->
         Lf.exists
           (function
             | Lf.Pred (p, [ Lf.Term "code"; Lf.Num 0 ]) -> p = Lf.p_is
             | _ -> false)
           lf)
       r.Parser.lfs)

let test_parse_if_overgenerates_order () =
  (* paper §4.1: @IF(A,B) and @IF(B,A) both derived *)
  let r = parse "If code = 0, the identifier may be zero." in
  let if_args =
    List.filter_map
      (function Lf.Pred (p, [ a; _ ]) when p = Lf.p_if -> Some a | _ -> None)
      r.Parser.lfs
  in
  check Alcotest.bool "both orders present" true
    (List.exists (fun a -> Lf.mem_pred Lf.p_may a) if_args
     && List.exists (fun a -> not (Lf.mem_pred Lf.p_may a)) if_args)

let test_parse_associativity_ambiguity () =
  (* "A of B of C" gives multiple groupings *)
  let r =
    parse
      "The checksum is the 16-bit one's complement of the one's complement \
       sum of the ICMP message starting with the ICMP type."
  in
  check Alcotest.bool "multiple LFs" true (List.length r.Parser.lfs >= 2)

let test_parse_passive () =
  let r = parse "The checksum is recomputed." in
  check Alcotest.(list string) "action"
    [ {|@Action("recompute", 'checksum')|} ]
    (lf_strings r)

let test_parse_coordination_distribution () =
  (* "the source and destination addresses are reversed" over-generates
     grouped and distributed readings (source/destination are separate
     dictionary terms) *)
  let r = parse "The source and the destination are simply reversed." in
  check Alcotest.bool "grouped present" true
    (List.exists
       (fun lf ->
         match lf with
         | Lf.Pred (p, [ _; Lf.Pred (c, _) ]) -> p = Lf.p_action && c = Lf.p_and
         | _ -> false)
       r.Parser.lfs);
  check Alcotest.bool "distributed present" true
    (List.exists
       (fun lf -> match lf with Lf.Pred (c, _) -> c = Lf.p_and | _ -> false)
       r.Parser.lfs)

let test_parse_goal () =
  let r = parse "To form an echo reply message, the type is changed to 0." in
  check Alcotest.bool "goal-wrapped" true
    (List.exists (Lf.mem_pred "@Goal") r.Parser.lfs)

let test_parse_advice () =
  let r = parse "For computing the checksum, the checksum should be zero." in
  check Alcotest.bool "advice present" true
    (List.exists (Lf.mem_pred Lf.p_adv_before) r.Parser.lfs)

let test_parse_unknown_vocabulary_fails () =
  let r = parse "Qwerty zxcvb asdfgh." in
  check Alcotest.int "no parse" 0 (List.length r.Parser.lfs)

let test_parse_fragment_is_zero_lf () =
  (* a subject-less fragment cannot form an S *)
  let r = parse "The internet header plus the first 64 bits." in
  check Alcotest.int "fragment" 0 (List.length r.Parser.lfs)

let test_parse_empty () =
  let r = Parser.parse_chunks ~lexicon [] in
  check Alcotest.int "empty input" 0 (List.length r.Parser.lfs)

let test_derivation_printing () =
  let r = parse "The checksum is zero." in
  match r.Parser.items with
  | it :: _ ->
    let rendered = Fmt.str "%a" Parser.pp_deriv it.Parser.deriv in
    check Alcotest.bool "mentions lexical entries" true
      (String.length rendered > 10)
  | [] -> Alcotest.fail "no items"

let test_no_labeling_breaks_parsing () =
  (* Table 8: removing NP labeling entirely breaks most sentences *)
  let r =
    Parser.parse ~strategy:Sage_nlp.Chunker.No_labeling ~lexicon ~dict
      "The echo reply message is sent to the source host."
  in
  check Alcotest.int "zero LFs without labeling" 0 (List.length r.Parser.lfs)

(* An icmp sentence with its "=" replaced by a comma list of n copies:
   the readings of the list multiply with every copy, so only the cell
   capacity bounds the chart.  A full cell stops combining, which bounds
   the work; allocation is deterministic, so the bound is on minor words
   rather than time.  The bounds fail a reducer that copies every term
   it reduces (7.8 M and 346 M words). *)
let test_parse_comma_list_bounded () =
  let sentence n =
    Printf.sprintf
      "If code %s 0, identifies the octet where an error was detected."
      (String.concat ", " (List.init n (fun _ -> "=")))
  in
  let parse_counting n =
    let before = Gc.minor_words () in
    let r = parse (sentence n) in
    (r, Gc.minor_words () -. before)
  in
  let r, words = parse_counting 8 in
  check Alcotest.bool "8 copies truncated" true r.Parser.truncated;
  check Alcotest.(list string) "8 copies: no LFs" [] (lf_strings r);
  if words >= 3e6 then
    Alcotest.failf "8 copies allocated %.1f M minor words (bound 3 M)"
      (words /. 1e6);
  check Alcotest.bool "12 copies truncated" true
    (parse (sentence 12)).Parser.truncated;
  let r, words = parse_counting 24 in
  check Alcotest.bool "24 copies truncated" true r.Parser.truncated;
  if words >= 40e6 then
    Alcotest.failf "24 copies allocated %.1f M minor words (bound 40 M)"
      (words /. 1e6)

(* Reduction shares what it leaves unchanged, so a term already normal
   comes back itself, without allocating: every lexicon entry is, and
   so is every chart item. *)
let test_beta_normal_is_itself () =
  let shared what sem =
    if Sem.beta_reduce sem != sem then
      Alcotest.failf "%s %s came back as a copy" what (Sem.to_string sem)
  in
  let words sem =
    let calls = 1_000 in
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (Sem.beta_reduce sem))
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  let entries = Lex.entries (Lex.bgp ()) in
  List.iter (fun (e : Lex.entry) -> shared "lexicon entry" e.Lex.sem) entries;
  let copula =
    List.find (fun (e : Lex.entry) -> e.Lex.phrase = "is") entries
  in
  check (Alcotest.float 0.01) "words per lexicon entry" 0. (words copula.Lex.sem);
  match (parse "The checksum is zero.").Parser.items with
  | [] -> Alcotest.fail "no spanning item"
  | items ->
    List.iter (fun (it : Parser.item) -> shared "chart item" it.Parser.sem) items;
    check (Alcotest.float 0.01) "words per chart item" 0.
      (words (List.hd items).Parser.sem)

let suite =
  [
    tc "category parse/print" test_category_parse;
    tc "category left associativity" test_category_left_assoc;
    tc "category errors" test_category_errors;
    tc "category arity" test_category_arity;
    tc "beta identity" test_beta_identity;
    tc "beta copula (lexicon example)" test_beta_copula;
    tc "capture avoidance" test_capture_avoidance;
    tc "to_lf incomplete" test_to_lf_incomplete;
    tc "alpha equality" test_alpha_equality;
    tc "lexicon counts grow by protocol" test_lexicon_counts_grow;
    tc "lexicon incremental extension sizes (6.3/6.4)"
      test_lexicon_incremental_extension_sizes;
    tc "lexicon lookup" test_lexicon_lookup;
    tc "lexicon fallbacks" test_lexicon_fallbacks;
    tc "parse: checksum is zero" test_parse_simple_assignment;
    tc "parse: condition readings" test_parse_condition;
    tc "parse: if over-generates order (4.1)" test_parse_if_overgenerates_order;
    tc "parse: of-chain ambiguity (Fig 3)" test_parse_associativity_ambiguity;
    tc "parse: passive participle" test_parse_passive;
    tc "parse: coordination distribution (4.1)" test_parse_coordination_distribution;
    tc "parse: goal clause" test_parse_goal;
    tc "parse: advice (Fig 2)" test_parse_advice;
    tc "parse: unknown vocabulary" test_parse_unknown_vocabulary_fails;
    tc "parse: fragment yields 0 LFs" test_parse_fragment_is_zero_lf;
    tc "parse: empty input" test_parse_empty;
    tc "derivation printing (Appendix B)" test_derivation_printing;
    tc "parse: no labeling breaks parsing (Table 8)" test_no_labeling_breaks_parsing;
    tc "parse: comma list of '=' stays bounded" test_parse_comma_list_bounded;
    tc "beta_reduce returns a normal term itself" test_beta_normal_is_itself;
  ]
