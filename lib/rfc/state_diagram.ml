module Lf = Sage_logic.Lf

type state = {
  state_name : string;
  top_row : int;
  left_col : int;
  right_col : int;
}

type transition = { from_state : string; to_state : string; label : string }

type t = { states : state list; transitions : transition list }

let char_at lines r c =
  if r < 0 || r >= Array.length lines then ' '
  else
    let line = lines.(r) in
    if c < 0 || c >= String.length line then ' ' else line.[c]

(* A box top edge: '+' then >= 2 dashes then '+' on one line. *)
let top_edges lines =
  let edges = ref [] in
  Array.iteri
    (fun r line ->
      let n = String.length line in
      let c = ref 0 in
      while !c < n do
        if line.[!c] = '+' then begin
          let d = ref (!c + 1) in
          while !d < n && line.[!d] = '-' do incr d done;
          if !d < n && line.[!d] = '+' && !d - !c >= 3 then begin
            edges := (r, !c, !d) :: !edges;
            c := !d (* the closing '+' may open the next edge *)
          end
          else incr c
        end
        else incr c
      done)
    lines;
  List.rev !edges

(* Grow a box downward from a top edge: interior rows must have '|' at
   both columns; the box closes at a row with '+' at both columns. *)
let box_from_top lines (r, c1, c2) =
  let height = Array.length lines in
  let rec scan row interior =
    if row >= height || row > r + 8 then None
    else if char_at lines row c1 = '+' && char_at lines row c2 = '+' then
      if interior = [] then None else Some (List.rev interior, row)
    else if char_at lines row c1 = '|' && char_at lines row c2 = '|' then
      let text = ref "" in
      for c = c1 + 1 to c2 - 1 do
        text := !text ^ String.make 1 (char_at lines row c)
      done;
      scan (row + 1) (String.trim !text :: interior)
    else None
  in
  match scan (r + 1) [] with
  | None -> None
  | Some (interior, _bottom) ->
    let name =
      match List.filter (fun s -> s <> "") interior with
      | [] -> ""
      | names -> String.concat " " names
    in
    if name = "" then None
    else Some { state_name = name; top_row = r; left_col = c1; right_col = c2 }

let label_near lines row c1 c2 =
  (* the nearest non-empty text directly above or below the arrow span *)
  let span_text r =
    let buf = Buffer.create 16 in
    for c = c1 to c2 do
      Buffer.add_char buf (char_at lines r c)
    done;
    let s = String.trim (Buffer.contents buf) in
    (* a label is words, not line art *)
    if s <> "" && String.exists (fun ch -> ch >= 'A' && ch <= 'z') s then Some s
    else None
  in
  match span_text (row - 1) with
  | Some s -> s
  | None -> (match span_text (row + 1) with Some s -> s | None -> "")

(* Horizontal arrows on one line between two box side-columns. *)
let arrows_on_line lines states row =
  let line = lines.(row) in
  let n = String.length line in
  let state_with_right_edge_at c =
    List.find_opt
      (fun s ->
        s.right_col = c
        && row > s.top_row
        && char_at lines s.top_row c = '+')
      states
  in
  let state_with_left_edge_at c =
    List.find_opt (fun s -> s.left_col = c) states
  in
  let found = ref [] in
  let c = ref 0 in
  while !c < n do
    if line.[!c] = '-' then begin
      let start = !c in
      let d = ref !c in
      while !d < n && line.[!d] = '-' do incr d done;
      let stop = !d - 1 in
      if stop - start + 1 >= 3 then begin
        (* rightward: dashes then '>' then a box's left edge *)
        (match
           ( char_at lines row (stop + 1),
             state_with_right_edge_at (start - 1),
             state_with_left_edge_at (stop + 2) )
         with
         | '>', Some src, Some dst ->
           found :=
             { from_state = src.state_name; to_state = dst.state_name;
               label = label_near lines row start stop }
             :: !found
         | _ -> ());
        (* leftward: a box's right edge, '<', dashes, a box's left edge *)
        (match
           ( char_at lines row (start - 1),
             state_with_right_edge_at (start - 2),
             state_with_left_edge_at (stop + 1) )
         with
         | '<', Some dst, Some src ->
           found :=
             { from_state = src.state_name; to_state = dst.state_name;
               label = label_near lines row start stop }
             :: !found
         | _ -> ())
      end;
      c := !d
    end
    else incr c
  done;
  List.rev !found

let parse text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let states = List.filter_map (box_from_top lines) (top_edges lines) in
  (* a nested/duplicate box (self-loop decorations) can produce repeats *)
  let states =
    List.fold_left
      (fun acc s ->
        if List.exists (fun s' -> s'.state_name = s.state_name) acc then acc
        else s :: acc)
      [] states
    |> List.rev
  in
  if states = [] then Error "no state boxes found"
  else begin
    let transitions =
      List.concat_map
        (fun row -> arrows_on_line lines states row)
        (List.init (Array.length lines) Fun.id)
    in
    Ok { states; transitions }
  end

(* "INIT --(INIT, UP)--> UP" becomes
   @If(@And(@Cmp('eq','state','INIT'), @Cmp('eq','received state','INIT')),
       @Set('state','UP')) — one LF per trigger in the label *)
let to_lfs t =
  List.concat_map
    (fun tr ->
      let triggers =
        if tr.label = "" then [ "" ]
        else
          String.split_on_char ',' tr.label
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
      in
      List.map
        (fun trigger ->
          let state_is name = Lf.pred Lf.p_cmp [ Lf.term "eq"; Lf.term "state"; Lf.term name ] in
          let cond =
            if trigger = "" then state_is tr.from_state
            else
              Lf.and_ (state_is tr.from_state)
                (Lf.pred Lf.p_cmp
                   [ Lf.term "eq"; Lf.term "received state"; Lf.term trigger ])
          in
          Lf.if_ cond (Lf.pred Lf.p_set [ Lf.term "state"; Lf.term tr.to_state ]))
        triggers)
    t.transitions

let pp ppf t =
  Fmt.pf ppf "@[<v>states: %s@,"
    (String.concat ", " (List.map (fun s -> s.state_name) t.states));
  List.iter
    (fun tr ->
      Fmt.pf ppf "  %s -> %s%s@," tr.from_state tr.to_state
        (if tr.label = "" then "" else " on " ^ tr.label))
    t.transitions;
  Fmt.pf ppf "@]"
