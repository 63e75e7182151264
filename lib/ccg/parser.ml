module Lf = Sage_logic.Lf
module Chunker = Sage_nlp.Chunker

type rule = Lex | Fwd_app | Bwd_app | Fwd_comp | Bwd_comp | Coord | Glue | Compound

type deriv =
  | Leaf of string * Lexicon.entry
  | Node of rule * Category.t * deriv * deriv

type item = { cat : Category.t; sem : Sem.t; deriv : deriv }

type result = {
  items : item list;
  lfs : Lf.t list;
  truncated : bool;
  chunks : Chunker.chunk list;
}

let cell_capacity = 160

let rule_name = function
  | Lex -> "lex"
  | Fwd_app -> ">"
  | Bwd_app -> "<"
  | Fwd_comp -> ">B"
  | Bwd_comp -> "<B"
  | Coord -> "&"
  | Glue -> ","
  | Compound -> "N+N"

let conj_op = function
  | "and" -> Lf.p_and
  | "or" -> Lf.p_or
  | _ -> Lf.p_and (* comma read as conjunction *)

(* Each chart cell deduplicates its items on their (cat, sem) as they
   arrive.  The hash folds over every node of both terms: [Hashtbl.hash]
   reads only 10 meaningful nodes, so the deep terms of a long
   coordination would crowd a few buckets (a comma list of 24 copies of
   "=" then parses 3.4x slower: 8.7 s against 2.5 s, medians of four runs
   on a 2-core Xeon).  A key carries its hash, so each candidate is walked
   once.  Equality is exact structure rather than [Sem.equal]:
   alpha-equivalence would also merge items that differ only in
   bound-variable names, which changes the spanning-item counts that
   test/golden/ccg.parses.txt pins (18 items become 13 on one sentence)
   and which items a full cell keeps. *)
let mix h x = (h * 31) + x
let mix_string h s = mix h (Hashtbl.hash s)

let rec hash_cat h = function
  | Category.Atom a -> mix (mix h 1) (Hashtbl.hash a)
  | Category.Fwd (x, y) -> hash_cat (hash_cat (mix h 2) x) y
  | Category.Bwd (x, y) -> hash_cat (hash_cat (mix h 3) x) y
  | Category.Conj c -> mix_string (mix h 4) c

let rec hash_lf h = function
  | Lf.Term s -> mix_string (mix h 5) s
  | Lf.Num n -> mix (mix h 6) n
  | Lf.Str s -> mix_string (mix h 7) s
  | Lf.Var s -> mix_string (mix h 8) s
  | Lf.Pred (p, args) ->
    List.fold_left hash_lf (mix_string (mix (mix h 9) (List.length args)) p) args

let rec hash_sem h = function
  | Sem.Var x -> mix_string (mix h 10) x
  | Sem.Lam (x, b) -> hash_sem (mix_string (mix h 11) x) b
  | Sem.App (f, a) -> hash_sem (hash_sem (mix h 12) f) a
  | Sem.Lf l -> hash_lf (mix h 13) l
  | Sem.Pred (p, args) ->
    List.fold_left hash_sem (mix_string (mix (mix h 14) (List.length args)) p) args

type key = { hash : int; item : item }

let key item = { hash = hash_sem (hash_cat 0 item.cat) item.sem; item }

module Cell_table = Hashtbl.Make (struct
  type t = key

  let hash k = k.hash

  let equal a b =
    a.hash = b.hash
    && Category.equal a.item.cat b.item.cat
    && a.item.sem = b.item.sem
end)

(* A chart cell is an [item array], filled through the one [fill] of a
   parse: each candidate goes to [add] in emission order, the first
   occurrence of a key wins, and the cell's items collect in [buf] until
   [take_cell] copies them out (an empty cell is the shared [[||]]).
   The table and the buffer serve every cell, and [combine] runs from
   index loops, so a pair of items that combines to nothing allocates
   nothing.  Once the cell holds [capacity] items, the next new one
   marks the parse truncated and ends the cell: no later candidate could
   enter it, so the cap bounds work as well as memory. *)
type fill = {
  seen : unit Cell_table.t;
  mutable buf : item array;
  mutable len : int;
  capacity : int;
  mutable truncated : bool;
}

exception Cell_full

let add st it =
  let k = key it in
  if not (Cell_table.mem st.seen k) then begin
    if st.len >= st.capacity then begin
      st.truncated <- true;
      raise_notrace Cell_full
    end;
    Cell_table.add st.seen k ();
    if st.len = Array.length st.buf then begin
      let buf = Array.make (max 16 (2 * st.len)) it in
      Array.blit st.buf 0 buf 0 st.len;
      st.buf <- buf
    end;
    st.buf.(st.len) <- it;
    st.len <- st.len + 1
  end

(* the filled cell, leaving [st] empty for the next one *)
let take_cell st =
  let cell = if st.len = 0 then [||] else Array.sub st.buf 0 st.len in
  st.len <- 0;
  Cell_table.clear st.seen;
  cell

let emit st rule cat sem left right =
  match Sem.beta_reduce sem with
  | sem -> add st { cat; sem; deriv = Node (rule, cat, left.deriv, right.deriv) }
  | exception Failure _ -> ()

(* Combine two adjacent items with every applicable rule, passing each
   result to [add] in rule order. *)
let combine st left right =
  (match left.cat, right.cat with
   (* forward application: X/Y Y => X *)
   | Category.Fwd (x, y), ry when Category.equal y ry ->
     emit st Fwd_app x (Sem.app left.sem right.sem) left right
   | _ -> ());
  (match left.cat, right.cat with
   (* backward application: Y X\Y => X *)
   | ly, Category.Bwd (x, y) when Category.equal y ly ->
     emit st Bwd_app x (Sem.app right.sem left.sem) left right
   | _ -> ());
  (match left.cat, right.cat with
   (* forward composition: X/Y Y/Z => X/Z *)
   | Category.Fwd (x, y), Category.Fwd (y', z) when Category.equal y y' ->
     emit st Fwd_comp
       (Category.Fwd (x, z))
       (Sem.lam "_z" (Sem.app left.sem (Sem.app right.sem (Sem.var "_z"))))
       left right
   | _ -> ());
  (match left.cat, right.cat with
   (* backward composition: Y\Z X\Y => X\Z *)
   | Category.Bwd (y', z), Category.Bwd (x, y) when Category.equal y y' ->
     emit st Bwd_comp
       (Category.Bwd (x, z))
       (Sem.lam "_z" (Sem.app right.sem (Sem.app left.sem (Sem.var "_z"))))
       left right
   | _ -> ());
  (match left.cat, right.cat, left.deriv, right.deriv with
   (* noun compounding: two adjacent *lexical* noun phrases form a
      compound ("echo reply" + "message").  Under good labels the
      dictionary pre-merges such phrases; under poor labels this rule
      keeps the sentence parseable, at the cost of more ambiguity
      (Table 7).  Restricting it to lexical items keeps the chart small
      and matches the linguistics: compounds join nouns, not derived
      phrases. *)
   | Category.Atom Category.NP, Category.Atom Category.NP, _, Leaf _ ->
     emit st Compound Category.np (Sem.pred "@Compound" [ left.sem; right.sem ])
       left right
   | _ -> ());
  (match left.cat, right.cat with
   (* coordination, step 1: conj X => X\X *)
   | Category.Conj c, x when (match x with Category.Conj _ -> false | _ -> true)
     ->
     let op = conj_op c in
     emit st Coord
       (Category.Bwd (x, x))
       (Sem.lam "_a" (Sem.pred op [ Sem.var "_a"; right.sem ]))
       left right
   | _ -> ());
  (match left.cat, right.cat with
   (* comma glue: absorb a bare comma on either side *)
   | x, Category.Conj "," when (match x with Category.Conj _ -> false | _ -> true)
     ->
     add st { cat = x; sem = left.sem;
              deriv = Node (Glue, x, left.deriv, right.deriv) }
   | Category.Conj ",", x when (match x with Category.Conj _ -> false | _ -> true)
     ->
     add st { cat = x; sem = right.sem;
              deriv = Node (Glue, x, left.deriv, right.deriv) }
   | _ -> ())

let lexical_items lexicon (chunk : Chunker.chunk) =
  let phrase = String.lowercase_ascii chunk.text in
  let conj name =
    {
      cat = Category.Conj name;
      sem = Sem.lf (Lf.Str name);
      deriv =
        Leaf
          ( chunk.text,
            { Lexicon.phrase; cat = Category.Conj name; sem = Sem.lf (Lf.Str name);
              origin = Lexicon.Core } );
    }
  in
  match phrase with
  | "and" -> [ conj "and" ]
  | "or" -> [ conj "or" ]
  | "," | ";" -> [ conj "," ]
  | _ ->
    Lexicon.entries_for_chunk lexicon chunk
    |> List.map (fun (e : Lexicon.entry) ->
           { cat = e.cat; sem = e.sem; deriv = Leaf (chunk.text, e) })

(* Distributive expansion (paper §4.1 "predicate distributivity"): when the
   left argument of an @Is/@Set is a coordination, CCG can also derive the
   reading where the right-hand side distributes over the conjuncts.  We
   reproduce that over-generation here: for each applicable node, both the
   grouped and the distributed variant are emitted. *)
let imperative_root lf =
  match lf with
  | Lf.Pred (p, _) ->
    List.mem p
      [ Lf.p_action; Lf.p_send; Lf.p_set; Lf.p_discard; Lf.p_select;
        Lf.p_may; Lf.p_must; Lf.p_call; Lf.p_update ]
  | _ -> false

let expand_distribution lf =
  let rec variants lf =
    match lf with
    (* order-sensitive predicate arguments (paper §4.1): for "If A, B"
       with an imperative consequent, CCG also derives @If(B, A) *)
    | Lf.Pred (p, [ c; b ]) when p = Lf.p_if && imperative_root b ->
      List.concat_map
        (fun b' -> [ Lf.Pred (p, [ c; b' ]); Lf.Pred (p, [ b'; c ]) ])
        (variants b)
    (* coordination in the argument of a participle: "the source and
       destination addresses are reversed" can mean reverse-the-pair or
       reverse-each — CCG derives both via type raising *)
    | Lf.Pred (p, [ (Lf.Str _ as f); Lf.Pred (c, [ a; b ]) ])
      when p = Lf.p_action && (c = Lf.p_and || c = Lf.p_or) ->
      [ lf;
        Lf.Pred (c, [ Lf.Pred (p, [ f; a ]); Lf.Pred (p, [ f; b ]) ]) ]
    | Lf.Pred (p, [ Lf.Pred (c, [ a; b ]); rhs ])
      when (p = Lf.p_is || p = Lf.p_set) && (c = Lf.p_and || c = Lf.p_or) ->
      let grouped =
        List.concat_map
          (fun rhs' -> [ Lf.Pred (p, [ Lf.Pred (c, [ a; b ]); rhs' ]) ])
          (variants rhs)
      in
      let distributed =
        List.concat_map
          (fun rhs' ->
            [ Lf.Pred (c, [ Lf.Pred (p, [ a; rhs' ]); Lf.Pred (p, [ b; rhs' ]) ]) ])
          (variants rhs)
      in
      grouped @ distributed
    | Lf.Pred (p, args) ->
      let arg_variants = List.map variants args in
      let rec cartesian = function
        | [] -> [ [] ]
        | vs :: rest ->
          let tails = cartesian rest in
          List.concat_map (fun v -> List.map (fun tl -> v :: tl) tails) vs
      in
      (* cap combinatorial blow-up: a sentence with many coordinations
         would explode; 64 variants is far above anything in the corpora *)
      let combos = cartesian arg_variants in
      let combos = if List.length combos > 64 then [ args ] else combos in
      List.map (fun args' -> Lf.Pred (p, args')) combos
    | leaf -> [ leaf ]
  in
  variants lf

let parse_chunks ?(expand_distributive = true) ?(capacity = cell_capacity)
    ~lexicon chunks =
  let chunks = Array.of_list chunks in
  let n = Array.length chunks in
  if n = 0 then { items = []; lfs = []; truncated = false; chunks = [] }
  else begin
    let chart = Array.init n (fun _ -> Array.make (n + 1) [||]) in
    let st =
      { seen = Cell_table.create 16; buf = [||]; len = 0; capacity;
        truncated = false }
    in
    for i = 0 to n - 1 do
      (try List.iter (add st) (lexical_items lexicon chunks.(i))
       with Cell_full -> ());
      chart.(i).(i + 1) <- take_cell st
    done;
    for span = 2 to n do
      for i = 0 to n - span do
        let j = i + span in
        (try
           for k = i + 1 to j - 1 do
             let lefts = chart.(i).(k) and rights = chart.(k).(j) in
             for a = 0 to Array.length lefts - 1 do
               for b = 0 to Array.length rights - 1 do
                 combine st lefts.(a) rights.(b)
               done
             done
           done
         with Cell_full -> ());
        chart.(i).(j) <- take_cell st
      done
    done;
    (* every item is beta-normal: lexicon entries are, and [emit]
       reduces what the rules build *)
    let spanning =
      List.filter
        (fun it -> Category.equal it.cat Category.s)
        (Array.to_list chart.(0).(n))
    in
    let lfs =
      spanning
      |> List.filter_map (fun it -> Sem.to_lf it.sem)
      |> (fun lfs ->
           if expand_distributive then List.concat_map expand_distribution lfs
           else lfs)
      |> Lf.dedup
    in
    { items = spanning; lfs; truncated = st.truncated; chunks = Array.to_list chunks }
  end

let parse ?strategy ?expand_distributive ?capacity ~lexicon ~dict sentence =
  parse_chunks ?expand_distributive ?capacity ~lexicon
    (Chunker.drop_terminator (Chunker.chunk_sentence ?strategy ~dict sentence))

let rec pp_deriv ppf = function
  | Leaf (text, entry) ->
    Fmt.pf ppf "%S := %a : %a" text Category.pp entry.Lexicon.cat Sem.pp
      entry.Lexicon.sem
  | Node (rule, cat, l, r) ->
    Fmt.pf ppf "@[<v 2>%s => %a@,%a@,%a@]" (rule_name rule) Category.pp cat
      pp_deriv l pp_deriv r
