module Lru = Sage_sched.Lru

type t = Sage_ccg.Parser.result Lru.t

let create () = Lru.create ~capacity:4096

let kind_char = function
  | Sage_nlp.Token.Word -> 'w'
  | Sage_nlp.Token.Number -> 'n'
  | Sage_nlp.Token.Symbol -> 's'
  | Sage_nlp.Token.Punct -> 'p'
  | Sage_nlp.Token.Terminator -> 't'

(* \x1e separates chunks, \x1f separates tokens: neither occurs in RFC
   text, so distinct chunkings cannot collide *)
let key ~protocol chunks =
  let buf = Buffer.create 128 in
  Buffer.add_string buf protocol;
  List.iter
    (fun (c : Sage_nlp.Chunker.chunk) ->
      Buffer.add_char buf '\x1e';
      Buffer.add_char buf (if c.Sage_nlp.Chunker.is_np then 'N' else '-');
      List.iter
        (fun (tok : Sage_nlp.Token.t) ->
          Buffer.add_char buf '\x1f';
          Buffer.add_char buf (kind_char tok.Sage_nlp.Token.kind);
          Buffer.add_string buf tok.Sage_nlp.Token.text)
        c.Sage_nlp.Chunker.tokens)
    chunks;
  Buffer.contents buf

let parse ?cache ?trace ~protocol ~lexicon chunks =
  let module Trace = Sage_trace.Trace in
  let do_parse () =
    Trace.with_span ~cat:"cache" trace "ccg-parse" @@ fun () ->
    Sage_ccg.Parser.parse_chunks ~lexicon chunks
  in
  match cache with
  | None -> do_parse ()
  | Some cache ->
    let k = key ~protocol chunks in
    (match Lru.find cache k with
     | Some result ->
       Trace.instant ~cat:"cache" trace "cache-hit";
       result
     | None ->
       Trace.instant ~cat:"cache" trace "cache-miss";
       let result = do_parse () in
       Lru.add cache k result;
       result)

let hits = Lru.hits
let misses = Lru.misses
let stats = Lru.stats
