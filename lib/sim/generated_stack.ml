(* Driving SAGE-generated code as a protocol implementation: the bridge
   between the pipeline's output and the simulated network.  All four
   entry points lower to one shape — build the packet bytes, build the
   backend environment, run the loaded program — so the whole simulated
   stack (interop, chaos campaigns) runs the compiled backend, the
   production executor; the interpreter stays the semantic reference
   the fuzzer checks it against.  Compiled programs reuse state
   preallocated at load time ([Compiled.cstate] and the scratch
   buffers), so one stack must not be shared across [Pool] domains. *)

module Rt = Sage_interp.Runtime
module Hd = Sage_rfc.Header_diagram
module Addr = Sage_net.Addr
module Ipv4 = Sage_net.Ipv4
module Udp = Sage_net.Udp
module Ir = Sage_codegen.Ir
module Backend = Sage_backend.Backend

type observer =
  fn:string -> env:Backend.env -> Backend.outcome -> unit

type t = {
  run : Sage.Pipeline.run;
  trace : Sage_trace.Trace.t option;
  backend : Backend.choice;
  observer : observer option;
      (* called after every structurally-accepted execution, with the
         environment it ran under — the chaos campaign's hook for
         runtime requirement assertions *)
  progs : (string, Backend.loaded) Hashtbl.t;
      (* programs load once per function: field resolution (and, for
         the compiled backend, closure compilation) is not a
         per-message cost *)
}

type env_value = Rt.value

let of_run ?trace ?(backend = Backend.Compiled) ?observer run =
  { run; trace; backend; observer; progs = Hashtbl.create 16 }

let functions t = t.run.Sage.Pipeline.codegen.Sage.Pipeline.functions

let protocol_number t =
  match String.lowercase_ascii t.run.Sage.Pipeline.spec.Sage.Pipeline.protocol with
  | "icmp" -> Ipv4.protocol_icmp
  | "igmp" -> Ipv4.protocol_igmp
  | "tcp" -> Ipv4.protocol_tcp
  | _ -> Ipv4.protocol_udp

let find_function t fn =
  match Sage.Pipeline.find_function t.run fn with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "no generated function %S" fn)

let struct_for t fn =
  match
    List.assoc_opt fn
      t.run.Sage.Pipeline.codegen.Sage.Pipeline.struct_of_function
  with
  | Some sd -> Ok sd
  | None -> Error (Printf.sprintf "no header layout for function %S" fn)

let loaded_for t fn =
  match Hashtbl.find_opt t.progs fn with
  | Some l -> Ok l
  | None ->
    Result.bind (find_function t fn) (fun f ->
        Result.map
          (fun sd ->
            let l = Backend.load t.backend ~layout:sd f in
            Hashtbl.add t.progs fn l;
            l)
          (struct_for t fn))

let default_clock = 43_200_000L (* milliseconds since midnight UT: noon *)

let base_params =
  [ ("current_time", Rt.VInt default_clock) ]

let exec t (l : Backend.loaded) ~env packet =
  match l.Backend.exec ?trace:t.trace ~env packet with
  | Error e -> Error e
  | Ok o ->
    (match t.observer with
     | Some f -> f ~fn:l.Backend.func.Ir.fn_name ~env o
     | None -> ());
    (match o.Backend.error with Some e -> Error e | None -> Ok o)

(* The port a function's [encapsulate_udp] call passes: codegen emits
   the well-known port ("encapsulated in a UDP datagram" — 123 for NTP)
   as a constant. *)
let udp_port (f : Ir.func) =
  Ir.fold_stmts
    (fun acc -> function
      | Ir.Do (Ir.Call ("encapsulate_udp", [ Ir.Int port ])) -> Some port
      | _ -> acc)
    None f.Ir.body

let ip_datagram ~protocol ~src ~dst payload =
  Ipv4.encode (Ipv4.make ~protocol ~src ~dst ~payload_len:(Bytes.length payload) ()) ~payload

(* The static framework's transport and IP layers.  A message whose
   code called [encapsulate_udp] goes into a UDP datagram from and to
   that port, checksummed over the pseudo-header; every message then
   goes under an IP header with the source/destination the generated
   code left in the IP info. *)
let encapsulate t (l : Backend.loaded) (o : Backend.outcome) =
  let src = o.Backend.ip.Rt.src and dst = o.Backend.ip.Rt.dst in
  match
    if List.mem "encapsulate_udp" o.Backend.called then udp_port l.Backend.func else None
  with
  | Some port ->
    let payload = o.Backend.output in
    let udp = Udp.make ~src_port:port ~dst_port:port ~payload_len:(Bytes.length payload) in
    ip_datagram ~protocol:Ipv4.protocol_udp ~src ~dst (Udp.encode ~src ~dst udp ~payload)
  | None -> ip_datagram ~protocol:(protocol_number t) ~src ~dst o.Backend.output

(* An all-zero fixed header with [data] appended: what
   [Packet_view.create] plus [set_data] serialized to, as raw packet
   bytes. *)
let blank_packet (sd : Hd.t) data =
  let fixed = Bytes.make sd.Hd.fixed_bytes '\000' in
  if Bytes.length data = 0 then fixed else Bytes.cat fixed data

let build_message ?(params = []) ?(data = Bytes.empty) ~src ~dst t ~fn =
  Result.bind (loaded_for t fn) (fun l ->
      let packet = blank_packet l.Backend.layout data in
      let env =
        {
          Backend.params = base_params @ params;
          state = [];
          ip = { Backend.src; dst; ttl = 64; tos = 0 };
          request_ip = None;
        }
      in
      Result.map (encapsulate t l) (exec t l ~env packet))

let build_error_message ?(params = []) ~router_addr ~original t ~fn =
  Result.bind (loaded_for t fn) (fun l ->
      Result.bind (Rt.original_excerpts original) (fun excerpts ->
          let packet = blank_packet l.Backend.layout Bytes.empty in
          (* errors are addressed by the generated code itself (the
             "Destination Address" IP-field description); start from
             the router as source *)
          let env =
            {
              Backend.params = base_params @ excerpts @ params;
              state = [];
              ip =
                { Backend.src = router_addr; dst = Addr.any; ttl = 64;
                  tos = 0 };
              request_ip = None;
            }
          in
          Result.map (encapsulate t l) (exec t l ~env packet)))

let process_request t ~fn ~request =
  Result.bind (loaded_for t fn) (fun l ->
      match Ipv4.decode request with
      | Error e ->
        Error (Printf.sprintf "request: %s" (Sage_net.Decode_error.to_string e))
      | Ok (req_hdr, req_payload) ->
        (* the reply is formed from the received message (static
           framework), then mutated by the generated code; the request
           header rides along so request-layer reads resolve *)
        let env =
          {
            Backend.params = base_params;
            state = [];
            ip =
              { Backend.src = req_hdr.Ipv4.src; dst = req_hdr.Ipv4.dst;
                ttl = 64; tos = req_hdr.Ipv4.tos };
            request_ip =
              Some
                { Backend.src = req_hdr.Ipv4.src; dst = req_hdr.Ipv4.dst;
                  ttl = req_hdr.Ipv4.ttl; tos = req_hdr.Ipv4.tos };
          }
        in
        match exec t l ~env req_payload with
        | Ok o -> Ok (if o.Backend.discarded then None else Some (encapsulate t l o))
        | Error e -> Error e)

let run_state_update ?(state = []) ?(params = []) t ~fn ~packet =
  Result.bind (loaded_for t fn) (fun l ->
      (* state management processes the received packet in place *)
      let env =
        {
          Backend.params =
            base_params
            @ [ ("payload_length", Rt.VInt (Int64.of_int (Bytes.length packet)))
              ]
            @ params;
          state;
          ip = { Backend.src = Addr.any; dst = Addr.any; ttl = 64; tos = 0 };
          request_ip = None;
        }
      in
      Result.map
        (fun (o : Backend.outcome) ->
          (Lazy.force o.Backend.final_state, o.Backend.discarded))
        (exec t l ~env packet))
