type chunk = { text : string; is_np : bool; tokens : Token.t list }

type strategy = Longest_match | First_match | No_dictionary | No_labeling

let make_chunk is_np tokens =
  let text = String.concat " " (List.map (fun t -> t.Token.text) tokens) in
  { text; is_np; tokens }

(* Length (in tokens) of the shortest dictionary phrase that is a prefix of
   [words]; 0 if none.  Used by the First_match ("poor labels") strategy. *)
let first_match dict words =
  let n = List.length words in
  let rec go k =
    if k > n then 0
    else
      let rec take i = function
        | [] -> []
        | _ when i = 0 -> []
        | w :: ws -> w :: take (i - 1) ws
      in
      if Term_dictionary.mem dict (String.concat " " (take k words)) then k
      else go (k + 1)
  in
  go 1

(* Generic NP rule for word runs not covered by the dictionary:
   Det? Adj* NounLike+ .  The determiner itself is not folded into the NP
   (the CCG lexicon gives determiners their own category). *)
let generic_np_run tokens =
  let rec count_nouns acc = function
    | t :: rest
      when Token.is_word t && Pos.is_noun_like (Pos.tag_of_word (Token.lower t))
      ->
      count_nouns (acc + 1) rest
    | _ -> acc
  in
  let rec count_adjs acc = function
    | t :: rest when Token.is_word t && Pos.tag_of_word (Token.lower t) = Pos.Adj
      ->
      count_adjs (acc + 1) rest
    | rest ->
      let nouns = count_nouns 0 rest in
      if nouns > 0 then acc + nouns else 0
  in
  count_adjs 0 tokens

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: xs -> x :: take (n - 1) xs

let rec drop n = function
  | [] -> []
  | l when n = 0 -> l
  | _ :: xs -> drop (n - 1) xs

let chunk ?(strategy = Longest_match) ~dict tokens =
  match strategy with
  | No_labeling -> List.map (fun t -> make_chunk false [ t ]) tokens
  | _ ->
    let dict_match words =
      match strategy with
      | Longest_match -> Term_dictionary.longest_match dict words
      | First_match -> first_match dict words
      | No_dictionary | No_labeling -> 0
    in
    let rec go acc tokens =
      match tokens with
      | [] -> List.rev acc
      | t :: _ when Token.is_word t || Token.is_number t ->
        let words =
          (* Candidate window for dictionary matching: the upcoming run of
             word/number tokens. *)
          let rec run = function
            | x :: xs when Token.is_word x || Token.is_number x ->
              Token.lower x :: run xs
            | _ -> []
          in
          run tokens
        in
        let m = dict_match words in
        if m > 0 then
          let matched = take m tokens in
          go (make_chunk true matched :: acc) (drop m tokens)
        else
          let g = if Token.is_word t then generic_np_run tokens else 0 in
          if g > 0 then
            let matched = take g tokens in
            go (make_chunk true matched :: acc) (drop g tokens)
          else go (make_chunk false [ t ] :: acc) (drop 1 tokens)
      | t :: rest -> go (make_chunk false [ t ] :: acc) rest
    in
    go [] tokens

let chunk_sentence ?strategy ~dict s =
  chunk ?strategy ~dict (Tokenizer.tokenize s)

let drop_terminator chunks =
  match List.rev chunks with
  | { tokens = [ t ]; _ } :: rest when t.Token.kind = Token.Terminator ->
    List.rev rest
  | _ -> chunks

let np_count chunks = List.length (List.filter (fun c -> c.is_np) chunks)

let pp_chunk ppf c =
  if c.is_np then Fmt.pf ppf "[%s]" c.text else Fmt.pf ppf "%s" c.text
