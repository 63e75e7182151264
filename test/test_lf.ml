(* Unit and property tests for logical forms (lib/logic). *)

module Lf = Sage_logic.Lf
module Q = Qcheck_lite

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let sample =
  Lf.if_
    (Lf.pred Lf.p_cmp [ Lf.term "eq"; Lf.term "code"; Lf.num 0 ])
    (Lf.pred Lf.p_may [ Lf.is_ (Lf.term "identifier") (Lf.num 0) ])

let test_print () =
  check Alcotest.string "paper notation" "@Is('checksum', 0)"
    (Lf.to_string (Lf.is_ (Lf.term "checksum") (Lf.num 0)))

let test_print_nested () =
  check Alcotest.string "nested"
    "@If(@Cmp('eq', 'code', 0), @May(@Is('identifier', 0)))"
    (Lf.to_string sample)

let test_parse_roundtrip () =
  match Lf.of_string (Lf.to_string sample) with
  | Ok lf -> check Alcotest.bool "roundtrip equal" true (Lf.equal lf sample)
  | Error e -> Alcotest.failf "parse error: %s" e

let test_parse_string_literal () =
  match Lf.of_string {|@Action("reverse", 'addresses')|} with
  | Ok (Lf.Pred (p, [ Lf.Str "reverse"; Lf.Term "addresses" ])) ->
    check Alcotest.string "pred name" Lf.p_action p
  | Ok other -> Alcotest.failf "unexpected %s" (Lf.to_string other)
  | Error e -> Alcotest.fail e

let test_parse_negative_number () =
  match Lf.of_string "@Is('x', -3)" with
  | Ok (Lf.Pred (_, [ _; Lf.Num n ])) -> check Alcotest.int "negative" (-3) n
  | Ok other -> Alcotest.failf "unexpected %s" (Lf.to_string other)
  | Error e -> Alcotest.fail e

let test_parse_errors () =
  List.iter
    (fun bad ->
      match Lf.of_string bad with
      | Ok lf -> Alcotest.failf "%S parsed to %s" bad (Lf.to_string lf)
      | Error _ -> ())
    [ "@Is('a',"; "'unterminated"; "@Is('a', 0) trailing"; ""; "@Is(,)" ]

let test_size_depth () =
  check Alcotest.int "size" 9 (Lf.size sample);
  check Alcotest.int "depth" 4 (Lf.depth sample);
  check Alcotest.int "leaf size" 1 (Lf.size (Lf.term "x"));
  check Alcotest.int "leaf depth" 1 (Lf.depth (Lf.num 5))

let test_head_predicates () =
  check Alcotest.(option string) "head" (Some Lf.p_if) (Lf.head sample);
  check Alcotest.(option string) "leaf head" None (Lf.head (Lf.term "x"));
  check
    Alcotest.(list string)
    "predicates pre-order"
    [ Lf.p_if; Lf.p_cmp; Lf.p_may; Lf.p_is ]
    (Lf.predicates sample)

let test_leaves () =
  check Alcotest.int "leaf count" 5 (List.length (Lf.leaves sample))

let test_mem_pred () =
  check Alcotest.bool "has @May" true (Lf.mem_pred Lf.p_may sample);
  check Alcotest.bool "no @Send" false (Lf.mem_pred Lf.p_send sample)

let test_map () =
  let renamed =
    Lf.map
      (function Lf.Term "code" -> Lf.Term "kode" | other -> other)
      sample
  in
  check Alcotest.bool "renamed" true
    (Lf.exists (function Lf.Term "kode" -> true | _ -> false) renamed);
  check Alcotest.bool "original kept" false
    (Lf.exists (function Lf.Term "code" -> true | _ -> false) renamed)

let test_dedup () =
  let a = Lf.term "a" and b = Lf.term "b" in
  check Alcotest.int "dedup" 2 (List.length (Lf.dedup [ a; b; a; a; b ]))

let test_isomorphic_of_chains () =
  (* Figure 3: "(A of B) of C" and "A of (B of C)" are isomorphic *)
  let a = Lf.term "a" and b = Lf.term "b" and c = Lf.term "c" in
  let left = Lf.of_ (Lf.of_ a b) c in
  let right = Lf.of_ a (Lf.of_ b c) in
  check Alcotest.bool "of associativity" true
    (Lf.isomorphic ~commutative:(fun _ -> false) left right)

let test_not_isomorphic () =
  let a = Lf.term "a" and b = Lf.term "b" and c = Lf.term "c" in
  let left = Lf.is_ (Lf.of_ a b) c in
  let right = Lf.is_ a (Lf.of_ b c) in
  check Alcotest.bool "different attachments of @Is" false
    (Lf.isomorphic ~commutative:(fun _ -> false) left right)

let test_commutative_isomorphism () =
  let a = Lf.term "a" and b = Lf.term "b" in
  let comm p = String.equal p Lf.p_and in
  check Alcotest.bool "and commutes" true
    (Lf.isomorphic ~commutative:comm (Lf.and_ a b) (Lf.and_ b a));
  check Alcotest.bool "is does not commute" false
    (Lf.isomorphic ~commutative:comm (Lf.is_ a b) (Lf.is_ b a))

let test_compare_total_order () =
  let forms =
    [ Lf.term "a"; Lf.num 1; Lf.str "s"; Lf.is_ (Lf.term "a") (Lf.num 0) ]
  in
  List.iter
    (fun x ->
      check Alcotest.int "reflexive" 0 (Lf.compare x x);
      List.iter
        (fun y ->
          check Alcotest.int "antisymmetric" (Lf.compare x y)
            (-Lf.compare y x))
        forms)
    forms

(* ------------------------------------------------------------------ *)
(* Property-based tests.                                               *)
(* ------------------------------------------------------------------ *)

let prop_print_parse_roundtrip =
  Q.test ~count:200 "of_string (to_string lf) = lf" Q.lf (fun lf ->
      match Lf.of_string (Lf.to_string lf) with
      | Ok lf' -> Lf.equal lf lf'
      | Error _ -> false)

let prop_iso_reflexive =
  Q.test ~count:200 "isomorphic lf lf" Q.lf (fun lf ->
      Lf.isomorphic ~commutative:(fun _ -> false) lf lf)

let prop_canonicalize_idempotent =
  Q.test ~count:200 "canonicalize idempotent" Q.lf (fun lf ->
      let c = Lf.canonicalize ~commutative:(fun p -> p = Lf.p_and)
          ~associative:(fun p -> p = Lf.p_and || p = Lf.p_of)
      in
      Lf.equal (c lf) (c (c lf)))

let prop_size_positive =
  Q.test ~count:200 "size >= depth >= 1" Q.lf (fun lf ->
      Lf.size lf >= Lf.depth lf && Lf.depth lf >= 1)

(* a drawn list followed by copies of some of its own elements, so that
   every non-empty draw holds duplicates for dedup to remove; an element
   shrinks in all its copies at once, so that the copies stay equal *)
let lfs_with_duplicates =
  let lfs = Q.list_of ~max_len:8 Q.lf in
  let shrink_copies l =
    List.concat_map
      (fun x ->
        List.map
          (fun c -> List.map (fun y -> if y = x then c else y) l)
          (Q.lf.Q.shrink x))
      (Q.dedup l)
  in
  Q.make
    ~shrink:(fun l -> lfs.Q.shrink l @ shrink_copies l)
    ~print:lfs.Q.print
    (fun r ->
      match lfs.Q.gen r with
      | [] -> []
      | l -> l @ List.init (Q.gen_range r 1 4) (fun _ -> Q.pick r l))

let prop_dedup_no_duplicates =
  Q.test ~count:100 "dedup removes all duplicates" lfs_with_duplicates (fun lfs ->
      let d = Lf.dedup lfs in
      let rec no_dups = function
        | [] -> true
        | x :: rest -> (not (List.exists (Lf.equal x) rest)) && no_dups rest
      in
      no_dups d)

(* [Lf.exists] against a reference built the obvious way: [List.exists]
   over the pre-order list of subforms.  Both must also ask the predicate
   about the same subforms in the same order, which pins the pre-order
   walk and the stop at the first hit. *)
let rec preorder lf =
  match lf with
  | Lf.Pred (_, args) -> lf :: List.concat_map preorder args
  | Lf.Term _ | Lf.Num _ | Lf.Str _ | Lf.Var _ -> [ lf ]

let prop_exists_matches_reference =
  Q.test ~count:300 "exists = List.exists over pre-order" Q.lf (fun lf ->
      let agrees p =
        let asked = ref [] and ref_asked = ref [] in
        let got = Lf.exists (fun x -> asked := x :: !asked; p x) lf in
        let want =
          List.exists (fun x -> ref_asked := x :: !ref_asked; p x) (preorder lf)
        in
        got = want && List.equal Lf.equal !asked !ref_asked
      in
      List.for_all agrees
        [
          (fun _ -> false);
          (fun _ -> true);
          (function Lf.Num n -> n > 32 | _ -> false);
          (function Lf.Term "checksum" -> true | _ -> false);
          (function Lf.Pred (p, _) -> p = Lf.p_if | _ -> false);
          (function Lf.Pred (_, args) -> List.length args = 3 | _ -> false);
        ])

(* winnowing asks [exists] dozens of questions of every candidate LF; the
   walk itself must not allocate *)
let test_exists_allocates_nothing () =
  let calls = 10_000 in
  let never _ = false in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Lf.exists never sample))
  done;
  check (Alcotest.float 0.01) "words per call" 0.
    ((Gc.minor_words () -. before) /. float_of_int calls)

let suite =
  [
    tc "print basic" test_print;
    tc "print nested" test_print_nested;
    tc "parse roundtrip" test_parse_roundtrip;
    tc "parse string literal" test_parse_string_literal;
    tc "parse negative number" test_parse_negative_number;
    tc "parse errors" test_parse_errors;
    tc "size and depth" test_size_depth;
    tc "head and predicates" test_head_predicates;
    tc "leaves" test_leaves;
    tc "mem_pred" test_mem_pred;
    tc "map" test_map;
    tc "exists allocates nothing" test_exists_allocates_nothing;
    tc "dedup" test_dedup;
    tc "isomorphic of-chains (Figure 3)" test_isomorphic_of_chains;
    tc "non-isomorphic attachments" test_not_isomorphic;
    tc "commutative isomorphism" test_commutative_isomorphism;
    tc "compare is a total order" test_compare_total_order;
    prop_print_parse_roundtrip;
    prop_iso_reflexive;
    prop_canonicalize_idempotent;
    prop_size_positive;
    prop_dedup_no_duplicates;
    prop_exists_matches_reference;
  ]
