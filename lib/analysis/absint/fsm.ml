(* SA011: static FSM reachability over generated state variables — the
   static counterpart of chaos's no-silent-wedge oracle.

   A state variable (State-layer cell, e.g. "bfd.SessionState" or
   "bgp.State") is treated as a finite-state machine when the program
   (i) only ever assigns it integer constants, (ii) compares it for
   equality/inequality against constants somewhere, and (iii) drives it
   to at least two distinct target states.  Variables failing any of
   these are counters or flags ("bgp.ConnectRetryCounter",
   "bfd.PeriodicTx"), not machines, and produce no model.

   Each constant assignment is an *edge* whose source is recovered
   from the pins the enclosing [If] guards place on the variable:
   [var == k] pins the then-branch to [Eq k] (and, when the guard is
   exactly that comparison, the else-branch to [Neq k]); [var != k]
   the reverse; unpinned assignments are wildcard ([Any]) edges.

   A state [s] is *enterable* when some edge targets it; it is a
   *wedge* when no edge that can fire in [s] leaves it — once entered,
   no packet or event sequence moves the machine again.  The shipped
   BFD/BGP machines are wedge-free; the wedge fixture of
   `sage analyze --seeded wedge` (BFD recovery transitions removed) is
   exactly what this flags. *)

module Ir = Sage_codegen.Ir
module D = Diagnostic

type src = Any | Eq of int64 | Neq of int64

type edge = {
  fn : string;  (** generated function containing the assignment *)
  id : int;  (** statement id of the assignment *)
  src : src;
  dst : int64;
}

type model = {
  var : string;
  states : int64 list;  (** sorted; assignment targets and compared pins *)
  edges : edge list;
}

(* pins the guard places on [var] when the whole condition holds
   (conjunctions contribute both sides); [pins_false] is only safe for
   a bare comparison, where the negation is exact *)
let rec pins_true var = function
  | Ir.Cmp ("eq", Ir.Field (Ir.State, v), Ir.Int k)
  | Ir.Cmp ("eq", Ir.Int k, Ir.Field (Ir.State, v))
    when v = var -> [ Eq (Int64.of_int k) ]
  | Ir.Cmp ("ne", Ir.Field (Ir.State, v), Ir.Int k)
  | Ir.Cmp ("ne", Ir.Int k, Ir.Field (Ir.State, v))
    when v = var -> [ Neq (Int64.of_int k) ]
  | Ir.And (a, b) -> pins_true var a @ pins_true var b
  | _ -> []

let pins_false var = function
  | Ir.Cmp ("eq", Ir.Field (Ir.State, v), Ir.Int k)
  | Ir.Cmp ("eq", Ir.Int k, Ir.Field (Ir.State, v))
    when v = var -> [ Neq (Int64.of_int k) ]
  | Ir.Cmp ("ne", Ir.Field (Ir.State, v), Ir.Int k)
  | Ir.Cmp ("ne", Ir.Int k, Ir.Field (Ir.State, v))
    when v = var -> [ Eq (Int64.of_int k) ]
  | _ -> []

(* the most specific pin wins: any [Eq] dominates; contradictory [Eq]s
   cannot both hold, keep the innermost *)
let src_of_pins pins =
  match List.find_opt (function Eq _ -> true | Neq _ | Any -> false) pins with
  | Some e -> e
  | None -> (
    match pins with [] -> Any | p :: _ -> p)

(* ------------------------------------------------------------------ *)
(* Model recovery.                                                     *)
(* ------------------------------------------------------------------ *)

module SMap = Map.Make (String)

type probe = {
  mutable const_assigns : (string * int * src list * int64) list;
      (* fn, stmt id, pins, target — reverse order *)
  mutable nonconst_assign : bool;
  mutable compared : bool;
  mutable pin_consts : int64 list;
}

let probe () =
  { const_assigns = []; nonconst_assign = false; compared = false;
    pin_consts = [] }

let models funcs =
  let tbl = ref SMap.empty in
  let get var =
    match SMap.find_opt var !tbl with
    | Some p -> p
    | None ->
      let p = probe () in
      tbl := SMap.add var p !tbl;
      p
  in
  (* comparisons anywhere mark the variable as inspected *)
  let rec scan_cmp = function
    | Ir.Cmp (("eq" | "ne"), Ir.Field (Ir.State, v), Ir.Int k)
    | Ir.Cmp (("eq" | "ne"), Ir.Int k, Ir.Field (Ir.State, v)) ->
      let p = get v in
      p.compared <- true;
      p.pin_consts <- Int64.of_int k :: p.pin_consts
    | Ir.Cmp (_, a, b) | Ir.And (a, b) | Ir.Or (a, b) ->
      scan_cmp a;
      scan_cmp b
    | Ir.Not e -> scan_cmp e
    | Ir.Call (_, args) -> List.iter scan_cmp args
    | Ir.Int _ | Ir.Str _ | Ir.Field _ | Ir.Request_field _ | Ir.Param _ ->
      ()
  in
  (* the state variables a condition mentions *)
  let rec vars_of e acc =
    match e with
    | Ir.Field (Ir.State, v) -> if List.mem v acc then acc else v :: acc
    | Ir.Cmp (_, a, b) | Ir.And (a, b) | Ir.Or (a, b) ->
      vars_of b (vars_of a acc)
    | Ir.Not a -> vars_of a acc
    | Ir.Call (_, args) -> List.fold_left (fun acc a -> vars_of a acc) acc args
    | Ir.Int _ | Ir.Str _ | Ir.Field _ | Ir.Request_field _ | Ir.Param _ ->
      acc
  in
  (* state variables a subtree assigns (their pins go stale after it) *)
  let assigned_vars stmts =
    Ir.fold_stmts
      (fun acc s ->
        match s with
        | Ir.Assign (Ir.Lfield (Ir.State, v), _) when not (List.mem v acc)
          -> v :: acc
        | _ -> acc)
      [] stmts
  in
  (* structured walk threading guard pins per state variable; an
     assignment replaces the variable's pin with its now-known value,
     and a branch invalidates the pins of whatever it assigned *)
  let rec go fn (pins : src list SMap.t) ~base stmts =
    match stmts with
    | [] -> ()
    | s :: rest ->
      let pins' =
        match s with
        | Ir.Assign (Ir.Lfield (Ir.State, v), e) ->
          scan_cmp e;
          let p = get v in
          (match e with
           | Ir.Int k ->
             p.const_assigns <-
               (fn, base,
                Option.value ~default:[] (SMap.find_opt v pins),
                Int64.of_int k)
               :: p.const_assigns;
             SMap.add v [ Eq (Int64.of_int k) ] pins
           | _ ->
             p.nonconst_assign <- true;
             SMap.remove v pins)
        | Ir.Assign (_, e) | Ir.Do e ->
          scan_cmp e;
          pins
        | Ir.If (c, then_, else_) ->
          scan_cmp c;
          let extend side pins =
            List.fold_left
              (fun pins v ->
                match side v c with
                | [] -> pins
                | ps ->
                  SMap.update v
                    (fun cur -> Some (ps @ Option.value ~default:[] cur))
                    pins)
              pins (vars_of c [])
          in
          go fn (extend pins_true pins) ~base:(base + 1) then_;
          go fn (extend pins_false pins)
            ~base:(base + 1 + Ir.extent then_)
            else_;
          List.fold_left
            (fun pins v -> SMap.remove v pins)
            pins
            (assigned_vars then_ @ assigned_vars else_)
        | Ir.Discard | Ir.Send _ | Ir.Comment _ -> pins
      in
      go fn pins' ~base:(base + Ir.stmt_extent s) rest
  in
  List.iter
    (fun (f : Ir.func) -> go f.Ir.fn_name SMap.empty ~base:0 f.Ir.body)
    funcs;
  (* distill probes into models *)
  SMap.fold
    (fun var p acc ->
      let targets =
        List.sort_uniq Int64.compare
          (List.map (fun (_, _, _, d) -> d) p.const_assigns)
      in
      if
        p.nonconst_assign || (not p.compared) || List.length targets < 2
      then acc
      else
        let edges =
          List.rev_map
            (fun (fn, id, pins, dst) ->
              { fn; id; src = src_of_pins pins; dst })
            p.const_assigns
        in
        let states =
          List.sort_uniq Int64.compare (targets @ p.pin_consts)
        in
        { var; states; edges } :: acc)
    !tbl []
  |> List.sort (fun a b -> compare a.var b.var)

(* ------------------------------------------------------------------ *)
(* Wedge detection.                                                    *)
(* ------------------------------------------------------------------ *)

let covers src s =
  match src with
  | Any -> true
  | Eq k -> Int64.equal k s
  | Neq k -> not (Int64.equal k s)

let wedges model =
  let enterable =
    List.sort_uniq Int64.compare (List.map (fun e -> e.dst) model.edges)
  in
  List.filter
    (fun s ->
      not
        (List.exists
           (fun e -> covers e.src s && not (Int64.equal e.dst s))
           model.edges))
    enterable

let check ~protocol funcs =
  List.concat_map
    (fun model ->
      List.map
        (fun s ->
          (* anchor the finding to the last transition into the wedge *)
          let entering =
            List.filter (fun e -> Int64.equal e.dst s) model.edges
          in
          let anchor =
            List.fold_left
              (fun acc (e : edge) ->
                match acc with
                | Some (a : edge) when (a.fn, a.id) >= (e.fn, e.id) -> acc
                | _ -> Some e)
              None entering
          in
          let fn_name, stmt_id =
            match anchor with
            | Some e -> (e.fn, Some e.id)
            | None -> ((match funcs with
                        | (f : Ir.func) :: _ -> f.Ir.fn_name
                        | [] -> ""), None)
          in
          D.v ~field:model.var ?stmt_id ~code:"SA011" ~severity:D.Error
            ~fn_name ~protocol
            (Printf.sprintf
               "state %Ld of %s is a wedge: every transition that can fire \
                there stays in %Ld; no recovery out-edge exists"
               s model.var s))
        (wedges model))
    (models funcs)
