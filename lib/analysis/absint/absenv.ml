(* Abstract environments: a finite map from storage cells to
   {!Interval} values, plus the set of local variables known to be
   defined on every path (the abstract counterpart of the runtime's
   local-variable table, whose lookup failure is one of the faults
   SA007 proves absent).

   Cells mirror the interpreter's addressable state:
   - [Cur (layer, f)]: a field of the outgoing/current message view
     ([Ir.Field]/[Ir.Lfield]);
   - [Req (layer, f)]: a field of the received-request view
     ([Ir.Request_field]);
   - [Par p]: an environment parameter or local variable.

   Proto field names are normalized through [Hd.c_identifier] so "Hold
   Time" and "hold_time" share a cell, exactly as they share the
   header diagram's storage slot.  The map is keyed by the normalized cell
   itself; a name that already is an identifier (codegen's are) is used
   as it is, so a lookup builds no string.  A cell absent from the map
   is [Top]. *)

module Ir = Sage_codegen.Ir
module Hd = Sage_rfc.Header_diagram
module I = Interval
module SSet = Set.Make (String)

type cell =
  | Cur of Ir.layer * string
  | Req of Ir.layer * string
  | Par of string

module CMap = Map.Make (struct
  type t = cell

  let compare = compare
end)

type t = { vals : I.t CMap.t; locals : SSet.t }

let norm_cell = function
  | Cur (Ir.Proto, f) when not (Hd.is_c_identifier f) ->
    Cur (Ir.Proto, Hd.c_identifier f)
  | Req (Ir.Proto, f) when not (Hd.is_c_identifier f) ->
    Req (Ir.Proto, Hd.c_identifier f)
  | c -> c

let empty = { vals = CMap.empty; locals = SSet.empty }

let get t c =
  match CMap.find (norm_cell c) t.vals with
  | v -> v
  | exception Not_found -> I.top

let set t c v = { t with vals = CMap.add (norm_cell c) v t.vals }

let add_local t p = { t with locals = SSet.add p t.locals }
let is_local t p = SSet.mem p t.locals

(* ------------------------------------------------------------------ *)
(* Entry-state construction.                                           *)
(* ------------------------------------------------------------------ *)

(* The initial abstraction of one message-view field under [layout]: a
   fixed [bits]-wide field deserializes (or zero-initializes) to
   [0, 2^bits - 1]; the variable trailing field holds the bytes beyond
   the fixed header, so its int view (the byte length, per
   [Runtime.int_of_value]) is exactly [payload_length - fixed_bytes]
   whenever the executed packet is the one [payload_length] describes —
   which is the harness contract ([Generated_stack.run_state_update]
   and the fuzz driver bind [payload_length] to the executed packet's
   byte length). *)
let proto_field_init lay f =
  match Hd.find_ident lay f with
  | Some fd when not fd.Hd.variable -> I.of_range 0L (Hd.mask_of_bits fd.Hd.bits)
  | Some _ ->
    let fixed = Int64.neg (Int64.of_int lay.Hd.fixed_bytes) in
    I.v ~lo:0L ~dlo:fixed ~dhi:fixed ()
  | None -> I.top

let cell_init ~layout c =
  match c with
  | Cur (Ir.Proto, f) | Req (Ir.Proto, f) -> (
    match layout with Some lay -> proto_field_init lay f | None -> I.top)
  | Par "payload_length" ->
    let min =
      match layout with
      | Some lay -> Int64.of_int lay.Hd.fixed_bytes
      | None -> 0L
    in
    I.plen ~min
  | Cur ((Ir.Ip | Ir.State), _) | Req ((Ir.Ip | Ir.State), _) | Par _ -> I.top

(* Every cell the function body mentions (reads, writes, request
   fields, parameters), so that joins after [If] compare like against
   like. *)
let cells_of_func (func : Ir.func) =
  let acc = ref [] in
  let seen = Hashtbl.create 16 in
  let add c =
    let c = norm_cell c in
    if not (Hashtbl.mem seen c) then (
      Hashtbl.add seen c ();
      acc := c :: !acc)
  in
  let rec expr = function
    | Ir.Int _ | Ir.Str _ -> ()
    | Ir.Field (l, f) -> add (Cur (l, f))
    | Ir.Request_field (l, f) -> add (Req (l, f))
    | Ir.Param p -> add (Par p)
    | Ir.Call (_, args) -> List.iter expr args
    | Ir.Not e -> expr e
    | Ir.Cmp (_, a, b) | Ir.And (a, b) | Ir.Or (a, b) ->
      expr a;
      expr b
  in
  Ir.iter_stmts
    (function
      | Ir.Assign (lv, e) ->
        (match lv with
         | Ir.Lfield (l, f) -> add (Cur (l, f))
         | Ir.Lvar v -> add (Par v));
        expr e
      | Ir.Do e | Ir.If (e, _, _) -> expr e
      | Ir.Discard | Ir.Send _ | Ir.Comment _ -> ())
    func.Ir.body;
  add (Par "payload_length");
  List.rev !acc

let entry ?layout (func : Ir.func) =
  List.fold_left
    (fun t c -> set t c (cell_init ~layout c))
    empty (cells_of_func func)

(* ------------------------------------------------------------------ *)
(* Lattice structure (pointwise).                                      *)
(* ------------------------------------------------------------------ *)

let merge_with f a b =
  CMap.merge
    (fun _ x y ->
      Some (f (Option.value ~default:I.top x) (Option.value ~default:I.top y)))
    a b

let join a b =
  {
    vals = merge_with I.join a.vals b.vals;
    locals = SSet.inter a.locals b.locals;
  }

let widen prev next =
  {
    vals = merge_with I.widen prev.vals next.vals;
    locals = SSet.inter prev.locals next.locals;
  }

let leq a b =
  CMap.for_all
    (fun k bv ->
      I.leq (Option.value ~default:I.top (CMap.find_opt k a.vals)) bv)
    b.vals
  && SSet.subset b.locals a.locals
