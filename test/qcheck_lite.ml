(* A minimal property-based testing harness: seeded deterministic
   generators plus greedy counterexample shrinking, packaged as Alcotest
   cases.  The fixed seed makes every run replay the same cases.

   The random stream and the minimizer are the fuzzer's: draws come
   from Sage_fuzz.Rng (splitmix64), a falsified draw is minimized by
   Sage_fuzz.Shrink (as fuzz findings and chaos schedules are), and
   bytes shrink along Sage_fuzz.Gen's packet ladder.  The stream is
   independent of the stdlib Random module, whose sequence changed
   across OCaml versions and is domain-local on OCaml 5. *)

type rand = Sage_fuzz.Rng.t

let rand_of_seed = Sage_fuzz.Rng.of_seed
let next_int64 = Sage_fuzz.Rng.next_int64
let int_below = Sage_fuzz.Rng.int_below
let gen_range = Sage_fuzz.Rng.range
let gen_bool = Sage_fuzz.Rng.bool
let pick = Sage_fuzz.Rng.pick

(* ------------------------------------------------------------------ *)
(* Arbitraries: generator + shrinker + printer.                        *)
(* ------------------------------------------------------------------ *)

type 'a t = {
  gen : rand -> 'a;
  shrink : 'a -> 'a list;  (* strictly-simpler candidates, best first *)
  print : 'a -> string;
}

let make ?(shrink = fun _ -> []) ~print gen = { gen; shrink; print }

let dedup xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

(* -- ints -- *)

let shrink_int_toward lo n =
  if n = lo then []
  else dedup (List.filter (fun c -> c <> n) [ lo; lo + ((n - lo) / 2); n - 1 ])

let int_range lo hi =
  if lo > hi then invalid_arg "Qcheck_lite.int_range";
  {
    gen = (fun r -> gen_range r lo hi);
    shrink = (fun n -> List.filter (fun c -> c >= lo && c <= hi) (shrink_int_toward lo n));
    print = string_of_int;
  }

let small_nat = int_range 0 100

(* -- strings -- *)

let shrink_string s =
  let n = String.length s in
  if n = 0 then []
  else
    dedup
      (List.filter
         (fun c -> c <> s)
         ((if n >= 2 then [ String.sub s 0 (n / 2) ] else [])
          @ [ String.sub s 0 (n - 1) ]
          @ (if String.exists (fun c -> c <> 'a') s then [ String.make n 'a' ] else [])))

let string_of ?(min_len = 0) ~max_len gen_char =
  {
    gen =
      (fun r ->
        let n = gen_range r min_len max_len in
        String.init n (fun _ -> gen_char r));
    shrink = (fun s -> List.filter (fun c -> String.length c >= min_len) (shrink_string s));
    print = (fun s -> Printf.sprintf "%S" s);
  }

(* -- bytes: every byte value; packet material, so it shrinks like the
   fuzzer's packets -- *)

let print_bytes b =
  Printf.sprintf "%d bytes [%s]" (Bytes.length b) (Sage_net.Bytes_util.hex b)

let bytes_arb ?(min_len = 0) ~max_len () =
  {
    gen =
      (fun r ->
        let n = gen_range r min_len max_len in
        Bytes.init n (fun _ -> Char.chr (int_below r 256)));
    shrink =
      (fun b ->
        List.filter (fun c -> Bytes.length c >= min_len) (Sage_fuzz.Gen.shrink_candidates b));
    print = print_bytes;
  }

(* -- lists -- *)

let rec remove_at i = function
  | [] -> []
  | _ :: rest when i = 0 -> rest
  | x :: rest -> x :: remove_at (i - 1) rest

let rec replace_at i v = function
  | [] -> []
  | _ :: rest when i = 0 -> v :: rest
  | x :: rest -> x :: replace_at (i - 1) v rest

let take n l = List.filteri (fun i _ -> i < n) l

let shrink_list shrink_elt l =
  let n = List.length l in
  if n = 0 then []
  else
    let halves = if n >= 2 then [ take (n / 2) l ] else [] in
    let removals = List.mapi (fun i _ -> remove_at i l) l in
    let pointwise =
      List.concat (List.mapi (fun i x -> List.map (fun c -> replace_at i c l) (shrink_elt x)) l)
    in
    dedup (List.filter (fun c -> c <> l) (halves @ removals @ pointwise))

let list_of ?(min_len = 0) ~max_len elt =
  {
    gen =
      (fun r ->
        let n = gen_range r min_len max_len in
        List.init n (fun _ -> elt.gen r));
    shrink =
      (fun l -> List.filter (fun c -> List.length c >= min_len) (shrink_list elt.shrink l));
    print = (fun l -> "[" ^ String.concat "; " (List.map elt.print l) ^ "]");
  }

(* -- combinators -- *)

let pair a b =
  {
    gen = (fun r -> (a.gen r, b.gen r));
    shrink =
      (fun (x, y) ->
        List.map (fun x' -> (x', y)) (a.shrink x)
        @ List.map (fun y' -> (x, y')) (b.shrink y));
    print = (fun (x, y) -> Printf.sprintf "(%s, %s)" (a.print x) (b.print y));
  }

let map ~print f a =
  (* shrinking is lost across an arbitrary map; use for final assembly
     (e.g. tuple-of-fields -> packet record), not for shrinkable cores *)
  { gen = (fun r -> f (a.gen r)); shrink = (fun _ -> []); print }

(* A size that is mostly small with a long tail: half below 10, a
   quarter below 100, a fifth below 1 000, the rest below 10 000. *)
let nat_size r =
  let bound =
    match int_below r 20 with
    | k when k < 10 -> 10
    | k when k < 15 -> 100
    | k when k < 19 -> 1_000
    | _ -> 10_000
  in
  int_below r bound

(* -- logical forms (Lf and winnowing fodder): trees over a fixed pool
   of leaves and predicates, whose depth grows with [nat_size] (up to
   14 levels); a predicate shrinks to its arguments -- *)

let lf =
  let module Lf = Sage_logic.Lf in
  let leaf r =
    match int_below r 3 with
    | 0 -> Lf.Term (pick r [ "checksum"; "code"; "type"; "identifier" ])
    | 1 -> Lf.Num (gen_range r 0 64)
    | _ -> Lf.Str (pick r [ "reverse"; "compute"; "send" ])
  in
  let rec gen size r =
    if size <= 1 || int_below r 4 = 0 then leaf r
    else
      let p = pick r [ Lf.p_is; Lf.p_and; Lf.p_of; Lf.p_if; Lf.p_action; Lf.p_may ] in
      let arity = gen_range r 1 3 in
      Lf.Pred (p, List.init arity (fun _ -> gen (size / 2) r))
  in
  {
    gen = (fun r -> gen (nat_size r) r);
    shrink = (function Lf.Pred (_, args) -> args | _ -> []);
    print = Lf.to_string;
  }

(* ------------------------------------------------------------------ *)
(* Runner.                                                             *)
(* ------------------------------------------------------------------ *)

let default_seed = 0xBEEF

let eval prop x =
  match prop x with
  | true -> None
  | false -> Some "returned false"
  | exception exn -> Some ("raised " ^ Printexc.to_string exn)

(* A falsified property, fully described: what failed, on which draw,
   how far the shrinker got, and how to replay the exact run. *)
type failure = {
  case_index : int;  (** 1-based draw that first falsified *)
  case_count : int;
  seed : int;
  counterexample : string;  (** printed, after shrinking *)
  reason : string;
  shrink_steps : int;
}

let failure_message name f =
  Printf.sprintf
    "property %S falsified (case %d/%d, seed %d):\n\
    \  counterexample: %s\n\
    \  %s\n\
    \  shrink steps: %d\n\
    \  repro: pass ~seed:%d to Qcheck_lite.test" name f.case_index
    f.case_count f.seed f.counterexample f.reason f.shrink_steps f.seed

(* The runner core, returning the first failure instead of raising — so
   the reporting path itself is unit-testable (test_misc pins the
   message down against a deliberately failing property). *)
let find_failure ?(count = 200) ?(seed = default_seed) arb prop =
  let r = rand_of_seed seed in
  let rec go i =
    if i > count then None
    else
      let x = arb.gen r in
      match eval prop x with
      | None -> go (i + 1)
      | Some reason ->
        let x', shrunk_reason, steps =
          Sage_fuzz.Shrink.minimize ~candidates:arb.shrink ~still_failing:(eval prop) x
        in
        Some
          {
            case_index = i;
            case_count = count;
            seed;
            counterexample = arb.print x';
            reason = Option.value shrunk_reason ~default:reason;
            shrink_steps = steps;
          }
  in
  go 1

let test ?count ?seed name arb prop =
  Alcotest.test_case name `Quick (fun () ->
      match find_failure ?count ?seed arb prop with
      | None -> ()
      | Some f -> Alcotest.fail (failure_message name f))

(* ------------------------------------------------------------------ *)
(* Stateful (state-machine) properties: generate command sequences     *)
(* against a pure model, shrink failing sequences by dropping/halving  *)
(* commands.  The system under test is exercised inside [prop], which  *)
(* receives the full command list and replays it from scratch — so     *)
(* shrunk candidates are self-contained runs, not suffixes.            *)
(* ------------------------------------------------------------------ *)

type ('cmd, 'model) machine = {
  init_model : 'model;
  gen_cmd : 'model -> rand -> 'cmd;
      (* model-aware generation: enables/biases commands by state *)
  step_model : 'model -> 'cmd -> 'model;
  print_cmd : 'cmd -> string;
}

let commands ?(max_len = 12) m =
  {
    gen =
      (fun r ->
        let n = gen_range r 0 max_len in
        let rec go model acc k =
          if k = 0 then List.rev acc
          else
            let c = m.gen_cmd model r in
            go (m.step_model model c) (c :: acc) (k - 1)
        in
        go m.init_model [] n);
    (* command shrinks would need re-generation context; drop/halve the
       sequence instead, which is what isolates a minimal trigger *)
    shrink = (fun l -> shrink_list (fun _ -> []) l);
    print = (fun l -> "[" ^ String.concat "; " (List.map m.print_cmd l) ^ "]");
  }

let test_machine ?count ?seed ?max_len name m prop =
  test ?count ?seed name (commands ?max_len m) prop
