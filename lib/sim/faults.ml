(* Deterministic fault injection for the simulated wire.

   Every random decision flows from a single splitmix64 stream seeded at
   [create] time, so a run is a pure function of (seed, plan, traffic):
   replaying the same traffic through a plan with the same seed yields a
   byte-for-byte identical delivery schedule.  That reproducibility is
   what makes loss/corruption bugs in the protocol layers above
   (ping/traceroute statistics, BFD detection timers) debuggable. *)

type fault =
  | Drop
  | Duplicate
  | Reorder
  | Delay of int
  | Corrupt of { offset : int; mask : int }
  | Truncate of int

type rule = { probability : float; fault : fault }
type plan = rule list

type t = {
  mutable state : int64;   (* splitmix64 stream state *)
  mutable plan : plan;     (* swappable mid-run: the PRNG stream survives *)
  mutable tick : int;
  mutable pending : (int * bytes) list;  (* (due tick, packet), FIFO order *)
  mutable held : bytes option;           (* packet withheld by Reorder *)
  mutable observer : (fault -> unit) option;
      (* notified each time a rule fires; never affects the stream *)
}

(* splitmix64 (Steele, Lea & Flood 2014): tiny, fast, and passes BigCrush;
   exactly reproducible across platforms, unlike Stdlib.Random whose
   algorithm is not pinned by the OCaml manual. *)
let next_u64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* uniform float in [0, 1) from the top 53 bits *)
let draw t =
  let bits = Int64.shift_right_logical (next_u64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let create ?(plan = []) ~seed () =
  {
    state = Int64.of_int seed;
    plan;
    tick = 0;
    pending = [];
    held = None;
    observer = None;
  }

let tick t = t.tick
let plan t = t.plan

(* Swapping plans at an episode boundary deliberately leaves [state]
   untouched: a chaos campaign's whole fault history stays a pure
   function of the one seed, whatever schedule drives the swaps. *)
let set_plan t plan = t.plan <- plan

let set_observer t f = t.observer <- Some f

let in_flight t =
  List.length t.pending + (match t.held with None -> 0 | Some _ -> 1)

let corrupt_packet ~offset ~mask p =
  let len = Bytes.length p in
  if len = 0 then p
  else begin
    let b = Bytes.copy p in
    let off = ((offset mod len) + len) mod len in
    Bytes.set b off
      (Char.chr (Char.code (Bytes.get b off) lxor (mask land 0xff)));
    b
  end

let truncate_packet n p =
  let keep = max 0 (min n (Bytes.length p)) in
  if keep = Bytes.length p then p else Bytes.sub p 0 keep

(* Run one packet through one rule.  Each candidate packet draws its own
   probability, so a duplicated packet can independently be dropped or
   corrupted by a later rule. *)
let apply_rule t rule pkts =
  List.concat_map
    (fun p ->
      if draw t >= rule.probability then [ p ]
      else begin
        (match t.observer with Some f -> f rule.fault | None -> ());
        match rule.fault with
        | Drop -> []
        | Duplicate -> [ p; Bytes.copy p ]
        | Delay n ->
          t.pending <- t.pending @ [ (t.tick + max 1 n, p) ];
          []
        | Reorder -> (
          match t.held with
          | None ->
            t.held <- Some p;
            []
          | Some q ->
            t.held <- Some p;
            [ q ])
        | Corrupt { offset; mask } -> [ corrupt_packet ~offset ~mask p ]
        | Truncate n -> [ truncate_packet n p ]
      end)
    pkts

(* Packets leave the wire in due-tick order regardless of the order the
   delay rules queued them; the stable sort keeps same-tick packets in
   FIFO order. *)
let by_due = List.stable_sort (fun (at1, _) (at2, _) -> compare at1 at2)

let release_due t =
  let due, rest = List.partition (fun (at, _) -> at <= t.tick) t.pending in
  t.pending <- rest;
  List.map snd (by_due due)

let transmit t pkt =
  t.tick <- t.tick + 1;
  let due = release_due t in
  due @ List.fold_left (fun pkts r -> apply_rule t r pkts) [ pkt ] t.plan

let idle t =
  t.tick <- t.tick + 1;
  release_due t

(* Delayed packets first (in due-tick order — they were on the wire
   before the reorder rule withheld anything), then the withheld one. *)
let flush t =
  let pending = List.map snd (by_due t.pending) in
  let held = match t.held with None -> [] | Some p -> [ p ] in
  t.pending <- [];
  t.held <- None;
  pending @ held

(* ---- plan syntax -------------------------------------------------------
   Comma-separated rules, each [kind[:args]@probability]:
     drop@0.1  dup@0.05  reorder@0.1  delay:3@0.2
     corrupt:8:0x04@0.02  truncate:20@0.1                                *)

let fault_to_string = function
  | Drop -> "drop"
  | Duplicate -> "dup"
  | Reorder -> "reorder"
  | Delay n -> Printf.sprintf "delay:%d" n
  | Corrupt { offset; mask } -> Printf.sprintf "corrupt:%d:0x%02x" offset mask
  | Truncate n -> Printf.sprintf "truncate:%d" n

let rule_to_string r = Printf.sprintf "%s@%g" (fault_to_string r.fault) r.probability

let plan_to_string plan = String.concat "," (List.map rule_to_string plan)

let rule_of_string s =
  match String.split_on_char '@' s with
  | [ spec; prob ] -> (
    let probability =
      match float_of_string_opt prob with
      | Some p when p >= 0.0 && p <= 1.0 -> Ok p
      | _ -> Error (Printf.sprintf "bad probability %S in rule %S" prob s)
    in
    let fault =
      match String.split_on_char ':' spec with
      | [ "drop" ] -> Ok Drop
      | [ "dup" ] | [ "duplicate" ] -> Ok Duplicate
      | [ "reorder" ] -> Ok Reorder
      | [ "delay"; n ] -> (
        match int_of_string_opt n with
        | Some n when n > 0 -> Ok (Delay n)
        | _ -> Error (Printf.sprintf "bad delay %S in rule %S" n s))
      | [ "corrupt"; off; mask ] -> (
        match (int_of_string_opt off, int_of_string_opt mask) with
        | Some offset, Some mask when mask land 0xff <> 0 ->
          Ok (Corrupt { offset; mask = mask land 0xff })
        | _ -> Error (Printf.sprintf "bad corrupt spec in rule %S" s))
      | [ "truncate"; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 0 -> Ok (Truncate n)
        | _ -> Error (Printf.sprintf "bad truncate length %S in rule %S" n s))
      | _ -> Error (Printf.sprintf "unknown fault %S in rule %S" spec s)
    in
    match (fault, probability) with
    | Ok fault, Ok probability -> Ok { probability; fault }
    | Error e, _ | _, Error e -> Error e)
  | _ -> Error (Printf.sprintf "rule %S is not of the form kind@probability" s)

let plan_of_string s =
  let items =
    String.split_on_char ',' (String.trim s)
    |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  if items = [] then Error "empty fault plan"
  else
    List.fold_left
      (fun acc item ->
        match (acc, rule_of_string item) with
        | Error e, _ -> Error e
        | Ok rules, Ok r -> Ok (r :: rules)
        | Ok _, Error e -> Error e)
      (Ok []) items
    |> Result.map List.rev
