type ip_info = {
  mutable src : Sage_net.Addr.t;
  mutable dst : Sage_net.Addr.t;
  mutable ttl : int;
  mutable tos : int;
}

type value = VInt of int64 | VBytes of bytes

type t = {
  proto : Packet_view.t;
  request : Packet_view.t option;
  ip : ip_info;
  request_ip : ip_info option;
  params : (string, value) Hashtbl.t;
  state : (string, int64) Hashtbl.t;
  mutable discarded : bool;
  mutable sent_messages : string list;
  mutable called : string list;
  mutable selected_session : int64 option;
  step_budget : int;
  mutable steps : int;
  trace : Sage_trace.Trace.t option;
  coverage : Coverage.t option;
}

let ip_info ?(ttl = 64) ?(tos = 0) ~src ~dst () = { src; dst; ttl; tos }

let default_step_budget = 100_000

let create ?request ?request_ip ?(params = []) ?(state = [])
    ?(step_budget = default_step_budget) ?trace ?coverage ~proto ~ip () =
  let param_tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace param_tbl k v) params;
  let state_tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace state_tbl k v) state;
  {
    proto;
    request;
    ip;
    request_ip;
    params = param_tbl;
    state = state_tbl;
    discarded = false;
    sent_messages = [];
    called = [];
    selected_session = None;
    step_budget;
    steps = 0;
    trace;
    coverage;
  }

(* true when this step is still within budget; exec turns false into a
   runtime error so malformed generated code cannot spin forever *)
let step t =
  t.steps <- t.steps + 1;
  t.steps <= t.step_budget

let param t name = Hashtbl.find_opt t.params name
let set_param t name v = Hashtbl.replace t.params name v
let state_get t name = Option.value ~default:0L (Hashtbl.find_opt t.state name)
let state_set t name v = Hashtbl.replace t.state name v

let int_of_value = function
  | VInt n -> n
  | VBytes b -> Int64.of_int (Bytes.length b)

let bytes_of_value = function
  | VBytes b -> b
  | VInt n ->
    if Int64.equal n 0L then Bytes.make 1 '\000'
    else begin
      let rec count_bytes acc v =
        if Int64.equal v 0L then acc
        else count_bytes (acc + 1) (Int64.shift_right_logical v 8)
      in
      let len = count_bytes 0 n in
      let b = Bytes.make len '\000' in
      for i = 0 to len - 1 do
        Bytes.set b (len - 1 - i)
          (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical n (8 * i)) 0xffL)))
      done;
      b
    end

let original_excerpts original =
  match Sage_net.Ipv4.decode original with
  | Error e ->
    Error
      (Printf.sprintf "original datagram: %s" (Sage_net.Decode_error.to_string e))
  | Ok (hdr, payload) ->
    Ok
      [
        ("original_datagram", VBytes original);
        ("original_datagram_data", VBytes payload);
        ( "internet_header",
          VBytes (Bytes.sub original 0 (Sage_net.Ipv4.header_len hdr)) );
      ]
