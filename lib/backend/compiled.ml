(* The closure-compiling backend.

   [load] translates an [Ir.func] body into a tree of OCaml closures
   once: field names are resolved to slot indices with their masks,
   environment parameters and state variables to preallocated array
   cells, checksum primitives to precomputed byte ranges over the slot
   arrays, and unknown names to closures raising the interpreter's
   exact error messages at the same program points.  Executing a packet
   then touches no hashtables, field lists or identifier normalization:
   decode the fixed header into a reused slot array, run the compiled
   closure, re-pack — the zero-allocation hot path behind the fuzz
   throughput target.

   Semantic parity with `lib/interp/exec.ml` is load-bearing: the fuzz
   engine's backend-agreement oracle and the differential test suite
   compare discards, sends, outputs, errors and final state bit for bit
   against the interpreter on every input.  One deliberate divergence
   is the step budget, counted per statement here instead of per
   expression node — generated IR is loop-free, so the budget is a
   runaway backstop that neither backend can exhaust on real bodies. *)

module Ir = Sage_codegen.Ir
module Hd = Sage_rfc.Header_diagram
module Rt = Sage_interp.Runtime
module Exec = Sage_interp.Exec
module Coverage = Sage_interp.Coverage
module Trace = Sage_trace.Trace
module Addr = Sage_net.Addr
module Checksum = Sage_net.Checksum
module L = Layout

let name = "compiled"

let fail fmt = Printf.ksprintf (fun s -> raise (Exec.Runtime_error s)) fmt

(* Mutable execution state threaded through every compiled closure.
   Arrays are preallocated at load time and reused across executions;
   outcomes snapshot what they need, so they stay valid afterwards. *)
type cstate = {
  view_slots : int64 array;  (* parsed packet, untouched by execution *)
  proto_slots : int64 array;  (* the outgoing message *)
  mutable view_data : bytes;
  mutable proto_data : bytes;
  mutable ip : Rt.ip_info;
  mutable request_ip : Rt.ip_info option;
  mutable has_request : bool;
  params : Rt.value array;
  param_set : bool array;
  states : int64 array;
  state_written : bool array;
  mutable discarded : bool;
  mutable sent : string list;
  mutable called : string list;
  mutable selected_session : int64 option;
  mutable steps : int;
  mutable cov : (Coverage.t * int ref array) option;
      (* per-point counters interned once per (program, sink) pair; the
         array is indexed by the statement's dense compile-time index *)
  mutable trace : Trace.t option;
}

type ctx = {
  layout : Hd.t;
  fn : string;
  pidx : (string, int) Hashtbl.t;  (* param name -> cell *)
  sidx : (string, int) Hashtbl.t;  (* state name -> cell *)
  mutable npoints : int;  (* executable statements compiled so far *)
  mutable point_ids : int list;  (* their pre-order ids, newest first *)
}

(* ------------------------------------------------------------------ *)
(* Load-time name collection: every parameter and state variable the   *)
(* body can touch, including the ones builtins reach for implicitly.   *)
(* ------------------------------------------------------------------ *)

let collect_names body =
  let params = ref [] and states = ref [] in
  let add cell n = if not (List.mem n !cell) then cell := n :: !cell in
  let rec expr = function
    | Ir.Int _ | Ir.Str _ -> ()
    | Ir.Field (Ir.State, f) | Ir.Request_field (Ir.State, f) ->
      add states f
    | Ir.Field _ | Ir.Request_field _ -> ()
    | Ir.Param p -> add params p
    | Ir.Call (fn, args) ->
      (match fn with
       | "original_field" -> add params "original_datagram"
       | "encapsulate_udp" -> add params "udp_dst_port"
       | "session_found" | "select_session" -> add states "bfd.LocalDiscr"
       | _ -> ());
      List.iter expr args
    | Ir.Not a -> expr a
    | Ir.Cmp (_, a, b) | Ir.And (a, b) | Ir.Or (a, b) ->
      expr a;
      expr b
  in
  let rec stmt = function
    | Ir.Assign (Ir.Lfield (Ir.State, f), e) ->
      add states f;
      expr e
    | Ir.Assign (Ir.Lfield (_, _), e) -> expr e
    | Ir.Assign (Ir.Lvar v, e) ->
      add params v;
      expr e
    | Ir.If (c, then_, else_) ->
      expr c;
      List.iter stmt then_;
      List.iter stmt else_
    | Ir.Do e -> expr e
    | Ir.Discard | Ir.Send _ | Ir.Comment _ -> ()
  in
  List.iter stmt body;
  (Array.of_list (List.rev !params), Array.of_list (List.rev !states))

(* ------------------------------------------------------------------ *)
(* Load-time field resolution: the first field whose identifier        *)
(* matches, as [Packet_view] looks fields up.                          *)
(* ------------------------------------------------------------------ *)

type proto_field = Tail | Fixed of Hd.field | Missing

(* "data", or any variable-length field, names the byte tail *)
let resolve ctx field =
  if field = "data" then Tail
  else
    match Hd.find_ident ctx.layout field with
    | Some f when f.Hd.variable -> Tail
    | Some f -> Fixed f
    | None -> Missing

(* the slot of the first fixed field named [ident], or -1: a scan that
   allocates nothing, for the per-packet field reads *)
let rec fixed_slot (fixed : Hd.field array) ident i =
  if i = Array.length fixed then -1
  else
    let f = Array.unsafe_get fixed i in
    if String.equal f.Hd.ident ident then f.Hd.slot
    else fixed_slot fixed ident (i + 1)

(* ------------------------------------------------------------------ *)
(* Expression compilation: Ir.expr -> (cstate -> Rt.value).            *)
(* ------------------------------------------------------------------ *)

let comp_read_ip field =
  match field with
  | "src" -> fun (ip : Rt.ip_info) -> Int64.of_int32 (Addr.to_int32 ip.Rt.src)
  | "dst" -> fun ip -> Int64.of_int32 (Addr.to_int32 ip.Rt.dst)
  | "ttl" -> fun ip -> Int64.of_int ip.Rt.ttl
  | "tos" -> fun ip -> Int64.of_int ip.Rt.tos
  | f -> fun _ -> fail "unknown IP field %S" f

let comp_write_ip field =
  let addr v = Addr.of_int32 (Int64.to_int32 v) in
  match field with
  | "src" -> fun (ip : Rt.ip_info) v -> ip.Rt.src <- addr v
  | "dst" -> fun ip v -> ip.Rt.dst <- addr v
  | "ttl" -> fun ip v -> ip.Rt.ttl <- Int64.to_int v
  | "tos" -> fun ip v -> ip.Rt.tos <- Int64.to_int v
  | f -> fun _ _ -> fail "unknown IP field %S" f

(* reading a proto-layer field; [request] reads the received message *)
let comp_read_proto ctx ~request field =
  match resolve ctx field with
  | Tail ->
    if request then fun st ->
      if st.has_request then Rt.VBytes st.view_data
      else fail "no received message in this role"
    else fun st -> Rt.VBytes st.proto_data
  | Fixed { Hd.slot = i; _ } ->
    if request then fun st ->
      if st.has_request then Rt.VInt st.view_slots.(i)
      else fail "no received message in this role"
    else fun st -> Rt.VInt st.proto_slots.(i)
  | Missing ->
    let sn = ctx.layout.Hd.struct_name in
    if request then fun st ->
      if st.has_request then fail "no field %S in struct %s" field sn
      else fail "no received message in this role"
    else fun _ -> fail "no field %S in struct %s" field sn

(* [comp_read_proto] without the [VInt] box for fixed fields *)
let comp_read_proto_int ctx ~request field : cstate -> int64 =
  match resolve ctx field with
  | Fixed { Hd.slot = i; _ } ->
    if request then fun st ->
      if st.has_request then st.view_slots.(i)
      else fail "no received message in this role"
    else fun st -> st.proto_slots.(i)
  | Tail | Missing ->
    let read = comp_read_proto ctx ~request field in
    fun st -> Rt.int_of_value (read st)

let comp_read ctx ~request layer field =
  match (layer : Ir.layer) with
  | Ir.Proto -> comp_read_proto ctx ~request field
  | Ir.Ip ->
    let rd = comp_read_ip field in
    if request then fun st ->
      (match st.request_ip with
       | Some ip -> Rt.VInt (rd ip)
       | None -> fail "no received IP header in this role")
    else fun st -> Rt.VInt (rd st.ip)
  | Ir.State ->
    let i = Hashtbl.find ctx.sidx field in
    fun st -> Rt.VInt st.states.(i)

let comp_write ctx layer field =
  match (layer : Ir.layer) with
  | Ir.Proto -> (
    match resolve ctx field with
    | Tail -> fun st v -> st.proto_data <- Rt.bytes_of_value v
    | Fixed f ->
      let i = f.Hd.slot and mask = Hd.mask_of_bits f.Hd.bits in
      fun st v -> st.proto_slots.(i) <- Int64.logand (Rt.int_of_value v) mask
    | Missing ->
      let sn = ctx.layout.Hd.struct_name in
      fun _ _ -> fail "no field %S in struct %s" field sn)
  | Ir.Ip ->
    let wr = comp_write_ip field in
    fun st v -> wr st.ip (Rt.int_of_value v)
  | Ir.State ->
    let i = Hashtbl.find ctx.sidx field in
    fun st v ->
      st.states.(i) <- Rt.int_of_value v;
      st.state_written.(i) <- true

(* integer field write without the [Rt.value] detour — the assignment
   hot path; the byte tail keeps the value-based [comp_write] *)
let comp_write_i ctx layer field : cstate -> int64 -> unit =
  match (layer : Ir.layer) with
  | Ir.Proto -> (
    match resolve ctx field with
    | Fixed f ->
      let i = f.Hd.slot and mask = Hd.mask_of_bits f.Hd.bits in
      fun st v -> st.proto_slots.(i) <- Int64.logand v mask
    | Tail ->
      let w = comp_write ctx layer field in
      fun st v -> w st (Rt.VInt v)
    | Missing ->
      let sn = ctx.layout.Hd.struct_name in
      fun _ _ -> fail "no field %S in struct %s" field sn)
  | Ir.Ip ->
    let wr = comp_write_ip field in
    fun st v -> wr st.ip v
  | Ir.State ->
    let i = Hashtbl.find ctx.sidx field in
    fun st v ->
      st.states.(i) <- v;
      st.state_written.(i) <- true

(* grow-once scratch for packed images that are summed and dropped *)
let scratch_for scratch need =
  if Bytes.length !scratch < need then scratch := Bytes.create need;
  !scratch

(* checksum over the outgoing message with the named field zeroed — the
   [recompute_checksum]/[recompute_<field>] primitive.  The packed image
   only feeds the sum, so it goes into a reused scratch buffer. *)
let comp_checksum_outgoing ctx ~checksum_field =
  let layout = ctx.layout in
  match Hd.find_ident layout checksum_field with
  | Some f when f.Hd.variable ->
    fun _ -> fail "field %S is variable-length" checksum_field
  | Some { Hd.slot = cs; _ } ->
    let scratch = ref Bytes.empty in
    fun st ->
      let buf =
        scratch_for scratch
          (layout.Hd.fixed_bytes + Bytes.length st.proto_data)
      in
      let len =
        L.pack_fields_into ~zero_slot:cs ~fields:layout.Hd.fixed
          ~nbytes:layout.Hd.fixed_bytes st.proto_slots ~data:st.proto_data
          buf
      in
      Rt.VInt (Int64.of_int (Checksum.checksum ~len buf))
  | None ->
    fun _ ->
      fail "no field %S in struct %s" checksum_field layout.Hd.struct_name

(* the [message_from] field range: fields from [f] onward, their packed
   width, and the checksum slot to zero — shared by the value-producing
   compile and the fused checksum path below *)
let message_from_plan ctx f =
  match Hd.find_ident ctx.layout f with
  | None -> Error `No_field
  | Some start when start.Hd.bit_offset mod 8 <> 0 -> Error `Unaligned
  | Some start ->
    let fixed = ctx.layout.Hd.fixed in
    let fields =
      Array.of_list
        (List.filter
           (fun (fld : Hd.field) -> fld.Hd.bit_offset >= start.Hd.bit_offset)
           (Array.to_list fixed))
    in
    let total_bits =
      Array.fold_left (fun acc (fld : Hd.field) -> acc + fld.Hd.bits) 0 fields
    in
    Ok (fields, (total_bits + 7) / 8, fixed_slot fixed "checksum" 0)

(* serialize the outgoing message from field [f] onward with the
   checksum zeroed — the [message_from] primitive; range precomputed *)
let comp_message_from ctx f =
  match message_from_plan ctx f with
  | Error `No_field -> fun _ -> fail "no field %S" f
  | Error `Unaligned -> fun _ -> fail "field %S is not byte-aligned" f
  | Ok (fields, nbytes, zero_slot) ->
    fun st ->
      Rt.VBytes
        (L.pack_fields ~zero_slot ~fields ~nbytes st.proto_slots
           ~data:st.proto_data)

let rec comp_expr ctx (e : Ir.expr) : cstate -> Rt.value =
  match e with
  | Ir.Int n ->
    let v = Rt.VInt (Int64.of_int n) in
    fun _ -> v
  | Ir.Str s -> fun _ -> Rt.VBytes (Bytes.of_string s)
  | Ir.Field (l, f) -> comp_read ctx ~request:false l f
  | Ir.Request_field (l, f) -> comp_read ctx ~request:true l f
  | Ir.Param p ->
    let i = Hashtbl.find ctx.pidx p in
    fun st ->
      if st.param_set.(i) then st.params.(i)
      else fail "environment parameter %S not provided" p
  | Ir.Call (fn, args) -> comp_call ctx fn args
  | Ir.Not e ->
    let ce = comp_expr ctx e in
    fun st -> Rt.VInt (if Rt.int_of_value (ce st) = 0L then 1L else 0L)
  | Ir.Cmp (op, a, b) ->
    let ca = comp_expr ctx a and cb = comp_expr ctx b in
    let cmp =
      match op with
      | "eq" -> Some (fun c -> c = 0)
      | "ne" -> Some (fun c -> c <> 0)
      | "gt" -> Some (fun c -> c > 0)
      | "ge" -> Some (fun c -> c >= 0)
      | "lt" -> Some (fun c -> c < 0)
      | "le" -> Some (fun c -> c <= 0)
      | _ -> None
    in
    (match cmp with
     | Some test ->
       fun st ->
         let va = Rt.int_of_value (ca st) and vb = Rt.int_of_value (cb st) in
         Rt.VInt (if test (Int64.compare va vb) then 1L else 0L)
     | None ->
       (* the interpreter evaluates both operands before failing *)
       fun st ->
         ignore (Rt.int_of_value (ca st));
         ignore (Rt.int_of_value (cb st));
         fail "unknown comparison %S" op)
  | Ir.And (a, b) ->
    let ca = comp_expr ctx a and cb = comp_expr ctx b in
    fun st ->
      Rt.VInt
        (if Rt.int_of_value (ca st) <> 0L && Rt.int_of_value (cb st) <> 0L
         then 1L
         else 0L)
  | Ir.Or (a, b) ->
    let ca = comp_expr ctx a and cb = comp_expr ctx b in
    fun st ->
      Rt.VInt
        (if Rt.int_of_value (ca st) <> 0L || Rt.int_of_value (cb st) <> 0L
         then 1L
         else 0L)

and comp_call ctx fn args =
  match (fn, args) with
  | "swap_ip_addresses", [] ->
    fun st ->
      let ip = st.ip in
      let s = ip.Rt.src in
      ip.Rt.src <- ip.Rt.dst;
      ip.Rt.dst <- s;
      Rt.VInt 0L
  | "swap_fields", [ Ir.Field (l1, f1); Ir.Field (l2, f2) ] ->
    let r1 = comp_read ctx ~request:false l1 f1
    and r2 = comp_read ctx ~request:false l2 f2
    and w1 = comp_write ctx l1 f1
    and w2 = comp_write ctx l2 f2 in
    fun st ->
      let v1 = r1 st and v2 = r2 st in
      w1 st v2;
      w2 st v1;
      Rt.VInt 0L
  | "message_from", [ Ir.Field (Ir.Proto, f) ] -> comp_message_from ctx f
  | "whole_message", _ ->
    fun st -> Rt.VBytes (L.pack ctx.layout st.proto_slots ~data:st.proto_data)
  | "ones_complement_sum", [ Ir.Call ("message_from", [ Ir.Field (Ir.Proto, f) ]) ] -> (
    (* fused: the packed range only feeds the sum — reuse a scratch
       buffer instead of allocating the image every execution *)
    match message_from_plan ctx f with
    | Error `No_field -> fun _ -> fail "no field %S" f
    | Error `Unaligned -> fun _ -> fail "field %S is not byte-aligned" f
    | Ok (fields, nbytes, zero_slot) ->
      let scratch = ref Bytes.empty in
      fun st ->
        let buf =
          scratch_for scratch (nbytes + Bytes.length st.proto_data)
        in
        let len =
          L.pack_fields_into ~zero_slot ~fields ~nbytes st.proto_slots
            ~data:st.proto_data buf
        in
        Rt.VInt (Int64.of_int (Checksum.ones_complement_sum ~len buf)))
  | "ones_complement_sum", [ Ir.Call ("whole_message", _) ] ->
    let layout = ctx.layout in
    let scratch = ref Bytes.empty in
    fun st ->
      let buf =
        scratch_for scratch
          (layout.Hd.fixed_bytes + Bytes.length st.proto_data)
      in
      let len =
        L.pack_fields_into ~fields:layout.Hd.fixed
          ~nbytes:layout.Hd.fixed_bytes st.proto_slots ~data:st.proto_data buf
      in
      Rt.VInt (Int64.of_int (Checksum.ones_complement_sum ~len buf))
  | "ones_complement_sum", [ a ] ->
    let ca = comp_expr ctx a in
    fun st ->
      Rt.VInt
        (Int64.of_int
           (Checksum.ones_complement_sum (Rt.bytes_of_value (ca st))))
  | "complement16", [ a ] ->
    let ca = comp_expr ctx a in
    fun st ->
      let v = Rt.int_of_value (ca st) in
      Rt.VInt (Int64.of_int (0xffff land lnot (Int64.to_int v)))
  | ("recompute_checksum" | "recompute_cksum"), [] ->
    comp_checksum_outgoing ctx ~checksum_field:"checksum"
  | "concat", [ a; b ] ->
    let ca = comp_expr ctx a and cb = comp_expr ctx b in
    fun st ->
      Rt.VBytes
        (Bytes.cat (Rt.bytes_of_value (ca st)) (Rt.bytes_of_value (cb st)))
  | "first_64_bits", [ a ] ->
    let ca = comp_expr ctx a in
    fun st ->
      let b = Rt.bytes_of_value (ca st) in
      Rt.VBytes (Bytes.sub b 0 (min 8 (Bytes.length b)))
  | "original_field", [ Ir.Str _label ] ->
    let i = Hashtbl.find ctx.pidx "original_datagram" in
    fun st ->
      if not st.param_set.(i) then fail "no original datagram in environment"
      else
        (match st.params.(i) with
         | Rt.VBytes dgram ->
           (match Sage_net.Ipv4.decode dgram with
            | Ok (hdr, _) ->
              Rt.VInt
                (Int64.of_int32 (Addr.to_int32 hdr.Sage_net.Ipv4.src))
            | Error e ->
              fail "original datagram: %s" (Sage_net.Decode_error.to_string e))
         | Rt.VInt _ -> fail "original datagram is not bytes")
  | "session_found", [] ->
    let i = Hashtbl.find ctx.sidx "bfd.LocalDiscr" in
    fun st ->
      (match st.selected_session with
       | Some k -> Rt.VInt (if k = st.states.(i) then 1L else 0L)
       | None -> Rt.VInt 0L)
  | "select_session", [ key ] ->
    let ck = comp_expr ctx key in
    let i = Hashtbl.find ctx.sidx "bfd.LocalDiscr" in
    fun st ->
      let k = Rt.int_of_value (ck st) in
      st.selected_session <- Some k;
      st.called <- "select_session" :: st.called;
      Rt.VInt (if k = st.states.(i) then 1L else 0L)
  | "encapsulate_udp", [ port ] ->
    let cp = comp_expr ctx port in
    let i = Hashtbl.find ctx.pidx "udp_dst_port" in
    fun st ->
      let p = Rt.int_of_value (cp st) in
      st.params.(i) <- Rt.VInt p;
      st.param_set.(i) <- true;
      st.called <- "encapsulate_udp" :: st.called;
      Rt.VInt 0L
  | "add", [ a; b ] ->
    let ca = comp_expr ctx a and cb = comp_expr ctx b in
    fun st ->
      Rt.VInt (Int64.add (Rt.int_of_value (ca st)) (Rt.int_of_value (cb st)))
  | "sub", [ a; b ] ->
    let ca = comp_expr ctx a and cb = comp_expr ctx b in
    fun st ->
      Rt.VInt (Int64.sub (Rt.int_of_value (ca st)) (Rt.int_of_value (cb st)))
  | "event_expire", [ a ] ->
    let ca = comp_expr ctx a in
    fun st -> Rt.VInt (if Rt.int_of_value (ca st) = 0L then 1L else 0L)
  | "event_occur", [ a ] ->
    let ca = comp_expr ctx a in
    fun st -> Rt.VInt (if Rt.int_of_value (ca st) <> 0L then 1L else 0L)
  | (("transmit_procedure" | "timeout_procedure") as proc), [] ->
    fun st ->
      st.called <- proc :: st.called;
      Rt.VInt 0L
  | fn, args ->
    if String.length fn > 10 && String.sub fn 0 10 = "recompute_" && args = []
    then
      comp_checksum_outgoing ctx
        ~checksum_field:(String.sub fn 10 (String.length fn - 10))
    else
      let n = List.length args in
      fun _ -> fail "unknown framework function %S/%d" fn n

(* Unboxed integer compilation: same semantics as [comp_expr] followed
   by [Rt.int_of_value] — identical evaluation order and error
   messages — but slot and state reads skip the [VInt] wrapper.
   Anything not specialized falls back to the value path. *)
and comp_int ctx (e : Ir.expr) : cstate -> int64 =
  match e with
  | Ir.Int n ->
    let v = Int64.of_int n in
    fun _ -> v
  | Ir.Field (Ir.Proto, f) -> comp_read_proto_int ctx ~request:false f
  | Ir.Request_field (Ir.Proto, f) -> comp_read_proto_int ctx ~request:true f
  | Ir.Field (Ir.State, f) | Ir.Request_field (Ir.State, f) ->
    let i = Hashtbl.find ctx.sidx f in
    fun st -> st.states.(i)
  | Ir.Field (Ir.Ip, f) ->
    let rd = comp_read_ip f in
    fun st -> rd st.ip
  | Ir.Request_field (Ir.Ip, f) ->
    let rd = comp_read_ip f in
    fun st ->
      (match st.request_ip with
       | Some ip -> rd ip
       | None -> fail "no received IP header in this role")
  | Ir.Cmp _ | Ir.And _ | Ir.Or _ | Ir.Not _ ->
    let cc = comp_cond ctx e in
    fun st -> if cc st then 1L else 0L
  | _ ->
    let ce = comp_expr ctx e in
    fun st -> Rt.int_of_value (ce st)

(* Boolean compilation for conditions: no boxed result at all. *)
and comp_cond ctx (e : Ir.expr) : cstate -> bool =
  match e with
  | Ir.Cmp (op, a, b) -> (
    let test =
      match op with
      | "eq" -> Some (fun c -> c = 0)
      | "ne" -> Some (fun c -> c <> 0)
      | "gt" -> Some (fun c -> c > 0)
      | "ge" -> Some (fun c -> c >= 0)
      | "lt" -> Some (fun c -> c < 0)
      | "le" -> Some (fun c -> c <= 0)
      | _ -> None
    in
    let ca = comp_int ctx a and cb = comp_int ctx b in
    match test with
    | Some test -> fun st -> test (Int64.compare (ca st) (cb st))
    | None ->
      (* the interpreter evaluates both operands before failing *)
      fun st ->
        ignore (ca st);
        ignore (cb st);
        fail "unknown comparison %S" op)
  | Ir.And (a, b) ->
    let ca = comp_cond ctx a and cb = comp_cond ctx b in
    fun st -> ca st && cb st
  | Ir.Or (a, b) ->
    let ca = comp_cond ctx a and cb = comp_cond ctx b in
    fun st -> ca st || cb st
  | Ir.Not a ->
    let ca = comp_cond ctx a in
    fun st -> not (ca st)
  | _ ->
    let ci = comp_int ctx e in
    fun st -> ci st <> 0L

(* ------------------------------------------------------------------ *)
(* Statement compilation.  Statements carry the same stable pre-order  *)
(* ids as the interpreter ([Ir.numbered_stmts]), so coverage sets are  *)
(* identical between backends on identical inputs.                     *)
(* ------------------------------------------------------------------ *)

let budget = Rt.default_step_budget

let bump st =
  st.steps <- st.steps + 1;
  if st.steps > budget then
    fail "step budget exhausted after %d steps (runaway generated code?)"
      budget

let rec comp_block ctx ~base stmts : cstate -> unit =
  let rec go base acc = function
    | [] -> List.rev acc
    | stmt :: rest ->
      go (base + Ir.stmt_extent stmt) (comp_stmt ctx ~id:base stmt :: acc) rest
  in
  match Array.of_list (go base [] stmts) with
  | [||] -> fun _ -> ()
  | arr ->
    let n = Array.length arr in
    fun st ->
      let i = ref 0 in
      while !i < n && not st.discarded do
        (Array.unsafe_get arr !i) st;
        incr i
      done

and comp_stmt ctx ~id stmt : cstate -> unit =
  match stmt with
  | Ir.Comment _ -> bump (* budget tick, no coverage point *)
  | _ ->
    let k = ctx.npoints in
    ctx.npoints <- k + 1;
    ctx.point_ids <- id :: ctx.point_ids;
    let body =
      match stmt with
      | Ir.Assign (Ir.Lfield (Ir.Proto, f), e) when resolve ctx f = Tail ->
        (* bytes target: keep the value path *)
        let ce = comp_expr ctx e and w = comp_write ctx Ir.Proto f in
        fun st -> w st (ce st)
      | Ir.Assign (Ir.Lfield (l, f), e) ->
        let ce = comp_int ctx e and wi = comp_write_i ctx l f in
        fun st -> wi st (ce st)
      | Ir.Assign (Ir.Lvar v, e) ->
        let ce = comp_expr ctx e in
        let i = Hashtbl.find ctx.pidx v in
        fun st ->
          let value = ce st in
          st.params.(i) <- value;
          st.param_set.(i) <- true
      | Ir.If (c, then_, else_) ->
        let cc = comp_cond ctx c in
        let ct = comp_block ctx ~base:(id + 1) then_ in
        let ce = comp_block ctx ~base:(id + 1 + Ir.extent then_) else_ in
        fun st -> if cc st then ct st else ce st
      | Ir.Do e ->
        let ce = comp_expr ctx e in
        fun st -> ignore (ce st)
      | Ir.Discard ->
        fun st ->
          st.discarded <- true;
          Trace.instant ~cat:"interp" st.trace "discard"
      | Ir.Send m ->
        let args = [ ("message", Trace.Str m) ] in
        fun st ->
          st.sent <- m :: st.sent;
          Trace.instant ~cat:"interp" ~args st.trace "send"
      | Ir.Comment _ -> assert false
    in
    fun st ->
      bump st;
      (match st.cov with
       | Some (c, refs) -> Coverage.bump c (Array.unsafe_get refs k)
       | None -> ());
      body st

(* ------------------------------------------------------------------ *)
(* Program loading and the packet execution cycle.                     *)
(* ------------------------------------------------------------------ *)

type prog = {
  func : Ir.func;
  layout : Hd.t;
  assigns_checksum : bool;
  run : cstate -> unit;
  st : cstate;
  pidx : (string, int) Hashtbl.t;
  sidx : (string, int) Hashtbl.t;
  pnames : string array;
  snames : string array;
  point_ids : int array;  (* dense statement index -> pre-order id *)
  mutable cov_cache : (Coverage.t * int ref array) option;
}

let index_of names =
  let h = Hashtbl.create (Array.length names * 2) in
  Array.iteri (fun i n -> Hashtbl.replace h n i) names;
  h

let dummy_ip () = Rt.ip_info ~src:Addr.any ~dst:Addr.any ()

let load ~layout (func : Ir.func) =
  let pnames, snames = collect_names func.Ir.body in
  let pidx = index_of pnames and sidx = index_of snames in
  let ctx =
    {
      layout;
      fn = func.Ir.fn_name;
      pidx;
      sidx;
      npoints = 0;
      point_ids = [];
    }
  in
  let block = comp_block ctx ~base:0 func.Ir.body in
  let point_ids = Array.of_list (List.rev ctx.point_ids) in
  let span_args = [ ("fn", Trace.Str func.Ir.fn_name) ] in
  let span_name = "exec:" ^ func.Ir.fn_name in
  (* tracing off (the fuzz hot path): run the body directly, no span
     and no per-call thunk *)
  let run st =
    match st.trace with
    | None -> block st
    | Some _ ->
      Trace.with_span ~cat:"interp" ~args:span_args st.trace span_name
        (fun () -> block st)
  in
  let st =
    {
      view_slots = Array.make (max 1 layout.Hd.nslots) 0L;
      proto_slots = Array.make (max 1 layout.Hd.nslots) 0L;
      view_data = Bytes.empty;
      proto_data = Bytes.empty;
      ip = dummy_ip ();
      request_ip = None;
      has_request = false;
      params = Array.make (max 1 (Array.length pnames)) (Rt.VInt 0L);
      param_set = Array.make (max 1 (Array.length pnames)) false;
      states = Array.make (max 1 (Array.length snames)) 0L;
      state_written = Array.make (max 1 (Array.length snames)) false;
      discarded = false;
      sent = [];
      called = [];
      selected_session = None;
      steps = 0;
      cov = None;
      trace = None;
    }
  in
  {
    func;
    layout;
    assigns_checksum = Intf.assigns_checksum func;
    run;
    st;
    pidx;
    sidx;
    pnames;
    snames;
    point_ids;
    cov_cache = None;
  }

(* [Packet_view.get] over a slot snapshot, raw-name normalization
   deferred to the slow path (observed names are usually already
   canonical identifiers) *)
let read_field (layout : Hd.t) slots field =
  let fixed = layout.Hd.fixed in
  let slot =
    match fixed_slot fixed field 0 with
    | -1 -> fixed_slot fixed (Hd.c_identifier field) 0
    | i -> i
  in
  if slot >= 0 then Ok slots.(slot)
  else
    let ident = Hd.c_identifier field in
    if
      List.exists
        (fun (f : Hd.field) -> f.Hd.variable && String.equal f.Hd.ident ident)
        layout.Hd.fields
    then Error (Printf.sprintf "field %S is variable-length" field)
    else
      Error
        (Printf.sprintf "no field %S in struct %s" field layout.Hd.struct_name)

(* Environment loading, as top-level recursions: closures defined
   inside [exec] would be re-allocated on every packet.  The function
   reads a handful of names at most, so a linear scan beats hashing
   every provided parameter; the first matching name wins, like the
   hashtable the interpreter seeds. *)
let rec set_param pnames (params : Rt.value array) param_set np k v i =
  if i < np then
    if String.equal (Array.unsafe_get pnames i) k then begin
      params.(i) <- v;
      param_set.(i) <- true
    end
    else set_param pnames params param_set np k v (i + 1)

let rec fill_params pnames params param_set np = function
  | [] -> ()
  | (k, v) :: rest ->
    set_param pnames params param_set np k v 0;
    fill_params pnames params param_set np rest

(* [List.assoc_opt] without the [Some] box; absent names default to 0,
   the interpreter's convention for unset state *)
let rec state_of name = function
  | [] -> 0L
  | (k, v) :: rest -> if String.equal k name then v else state_of name rest

let final_state t env_state states written =
  let bindings = ref [] in
  Array.iteri
    (fun i name ->
      if written.(i) && not (List.mem_assoc name env_state) then
        bindings := (name, states.(i)) :: !bindings)
    t.snames;
  List.iter
    (fun (k, v) ->
      let v =
        match Hashtbl.find_opt t.sidx k with
        | Some i -> states.(i)
        | None -> v
      in
      bindings := (k, v) :: !bindings)
    env_state;
  List.sort compare !bindings

let exec t ?coverage ?trace ~(env : Intf.env) packet =
  let layout = t.layout in
  let plen = Bytes.length packet and fixed_bytes = layout.Hd.fixed_bytes in
  if plen < fixed_bytes then
    Error
      (Printf.sprintf "short packet: %d bytes, struct %s needs %d" plen
         layout.Hd.struct_name fixed_bytes)
  else begin
    let st = t.st in
    L.read layout packet st.view_slots;
    Array.blit st.view_slots 0 st.proto_slots 0 layout.Hd.nslots;
    let data =
      if plen = fixed_bytes then Bytes.empty
      else Bytes.sub packet fixed_bytes (plen - fixed_bytes)
    in
    (* the tail is never mutated in place, only replaced: share it *)
    st.view_data <- data;
    st.proto_data <- data;
    st.ip <- Intf.ip_info_of_spec env.Intf.ip;
    st.request_ip <- Option.map Intf.ip_info_of_spec env.Intf.request_ip;
    st.has_request <- env.Intf.request_ip <> None;
    Array.fill st.param_set 0 (Array.length st.param_set) false;
    fill_params t.pnames st.params st.param_set (Array.length t.pnames)
      env.Intf.params;
    for i = 0 to Array.length t.snames - 1 do
      st.states.(i) <- state_of t.snames.(i) env.Intf.state;
      st.state_written.(i) <- false
    done;
    st.discarded <- false;
    st.sent <- [];
    st.called <- [];
    st.selected_session <- None;
    st.steps <- 0;
    st.cov <-
      (match coverage with
       | None -> None
       | Some cov -> (
         match t.cov_cache with
         | Some (c, _) as cached when c == cov -> cached
         | _ ->
           let fn = t.func.Ir.fn_name in
           let refs =
             Array.map (fun id -> Coverage.counter cov ~fn ~id) t.point_ids
           in
           let cached = Some (cov, refs) in
           t.cov_cache <- cached;
           cached));
    st.trace <- trace;
    let error =
      match t.run st with
      | () -> None
      | exception Exec.Runtime_error e -> Some e
    in
    (* snapshot the reused arrays so the outcome survives the next exec *)
    let view_slots = Array.copy st.view_slots in
    let states = Array.copy st.states in
    let written = Array.copy st.state_written in
    let env_state = env.Intf.state in
    Ok
      {
        Intf.backend = Intf.Compiled;
        discarded = st.discarded;
        error;
        output = L.pack layout st.proto_slots ~data:st.proto_data;
        reserialized = L.pack layout view_slots ~data;
        sent = st.sent;
        called = st.called;
        ip = st.ip;
        read_field = (fun f -> read_field layout view_slots f);
        final_state = lazy (final_state t env_state states written);
        assigns_checksum = t.assigns_checksum;
      }
  end
