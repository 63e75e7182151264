(* One fuzz execution: run the candidate packet through a loaded
   execution backend with a seeded environment, and report everything
   the oracles need.  The environment is drawn from the RNG *before*
   the execution and captured in a record, so shrinking can replay the
   exact same run on smaller packets — and so a differential re-run on
   the alternate backend consumes no randomness at all. *)

module Rt = Sage_interp.Runtime
module Ir = Sage_codegen.Ir
module Addr = Sage_net.Addr
module Ipv4 = Sage_net.Ipv4
module Backend = Sage_backend.Backend

let local_addr = Addr.of_octets 10 0 1 50
let remote_addr = Addr.of_octets 192 168 2 10

(* The parameters of a fixed, well-formed original IPv4 datagram for
   the ICMP error senders, which quote its header + first 64 bits of
   data. *)
let original_excerpts =
  lazy
    (let payload = Bytes.make 16 'q' in
     let hdr =
       Ipv4.make ~protocol:Ipv4.protocol_udp ~src:remote_addr ~dst:local_addr
         ~payload_len:(Bytes.length payload) ()
     in
     match Rt.original_excerpts (Ipv4.encode hdr ~payload) with
     | Ok params -> params
     | Error e -> invalid_arg e (* we built it *))

(* Everything outside the packet that a generated function may read:
   env parameters, protocol state, the IP header underneath.  Drawn up
   front so [exec] itself never consumes randomness. *)
type env = {
  params : (string * Rt.value) list;
  state : (string * int64) list;
  ttl : int;
}

let local_discr = 1L
(* matches a boundary-biased your_discriminator, so BFD's
   session-lookup path is reachable *)

(* Constant environment entries, allocated once: [env_of] runs every
   fuzz iteration, and most of what it binds never varies.  Only the
   drawn entries below cons fresh cells; the constant pairs (and the
   lazy excerpt tail) are shared across all environments — safe because
   env lists are never mutated. *)
let p_current_time = ("current_time", Rt.VInt 43_200_000L)
let p_gateway = ("gateway_address", Rt.VInt 0x0A000101L (* 10.0.1.1 *))
let p_all_hosts = ("all_hosts_group", Rt.VInt 0xE0000001L (* 224.0.0.1 *))
let p_host_group = ("host_group", Rt.VInt 0xE0000102L (* 224.0.1.2 *))

let p_interface =
  ("interface_address", Rt.VInt (Int64.of_int32 (Addr.to_int32 local_addr)))

let p_remote =
  ("remote_system", Rt.VInt (Int64.of_int32 (Addr.to_int32 remote_addr)))

let s_local_discr = ("bfd.LocalDiscr", local_discr)
let s_auth_type = ("bfd.AuthType", 0L)
let s_detect_mult = ("bfd.DetectMult", 3L)
let s_periodic_tx = ("bfd.PeriodicTx", 1L)
let s_hostpoll = ("peer.hostpoll", 6L)
let s_retry_counter = ("bgp.ConnectRetryCounter", 0L)

(* Shared flag values: a drawn 0/1 never needs a fresh box *)
let v_zero = Rt.VInt 0L
let v_one = Rt.VInt 1L
let vflag b = if b = 0 then v_zero else v_one

(* The whole drawn environment needs ~25 bits of entropy: one 32-bit
   generator advance supplies every small draw, sliced by bit position,
   instead of a dozen separate steps — the fuzz loop runs this every
   iteration.  Slight modulo bias on the non-power-of-two ranges is
   irrelevant for fuzzing.  (This changes the draw *sequence* relative
   to earlier revisions, which no test pins: determinism contracts are
   all same-seed/same-binary.) *)
let env_of rng =
  let b = Rng.bits32 rng in
  let params =
    p_current_time
    :: ("error_pointer", Rt.VInt (Int64.of_int (b mod 25)))
    :: p_gateway :: p_all_hosts :: p_host_group :: p_interface :: p_remote
    :: ("event_ManualStart", vflag ((b lsr 5) land 1))
    :: ("event_ManualStop", vflag ((b lsr 6) land 1))
    :: Lazy.force original_excerpts
  in
  let state =
    ("bfd.SessionState", Int64.of_int ((b lsr 7) land 3))
    :: s_local_discr
    :: ("bfd.RemoteDiscr", Int64.of_int ((b lsr 9) land 15 mod 3))
    :: ("bfd.RemoteMinRxInterval", Int64.of_int ((b lsr 13) land 15 mod 3))
    :: s_auth_type :: s_detect_mult :: s_periodic_tx
    :: ("peer.mode", Int64.of_int ((b lsr 17) land 3))
    :: ("peer.timer", Int64.of_int ((b lsr 19) land 1))
    :: s_hostpoll
    :: ("peer.reach", Int64.of_int ((b lsr 20) land 1))
    :: ("bgp.State", Int64.of_int (1 + ((b lsr 21) land 7) mod 6))
    :: ("bgp.HoldTimer", Int64.of_int ((b lsr 24) land 1))
    :: [ s_retry_counter ]
  in
  {
    params;
    state;
    ttl =
      (match (b lsr 25) land 3 with 0 -> 0 | 1 -> 1 | 2 -> 64 | _ -> 255);
  }

(* The captured fuzz environment lowered to the backend contract:
   fixed endpoint addresses, the drawn TTL, payload_length prepended,
   and — for receiver-shaped functions — the reversed request header
   that makes the parsed packet visible as the received message. *)
(* IP specs are immutable and [env_of] draws TTL from four values:
   share the spec records (and their [Some] wrappings) per TTL instead
   of rebuilding them every execution.  Other TTLs (tests, sim) still
   build fresh records. *)
let out_spec ttl =
  { Backend.src = local_addr; dst = remote_addr; ttl; tos = 0 }

let in_spec ttl =
  Some { Backend.src = remote_addr; dst = local_addr; ttl; tos = 0 }

let out_spec_0 = out_spec 0
let out_spec_1 = out_spec 1
let out_spec_64 = out_spec 64
let out_spec_255 = out_spec 255
let in_spec_0 = in_spec 0
let in_spec_1 = in_spec 1
let in_spec_64 = in_spec 64
let in_spec_255 = in_spec 255

let out_spec_of = function
  | 0 -> out_spec_0
  | 1 -> out_spec_1
  | 64 -> out_spec_64
  | 255 -> out_spec_255
  | ttl -> out_spec ttl

let in_spec_of = function
  | 0 -> in_spec_0
  | 1 -> in_spec_1
  | 64 -> in_spec_64
  | 255 -> in_spec_255
  | ttl -> in_spec ttl

(* [payload_length] pairs likewise come from a small pool: candidate
   packets are bounded by fixed header + 24-byte tails, so almost every
   length hits the cache. *)
let plen_cache =
  Array.init 128 (fun n -> ("payload_length", Rt.VInt (Int64.of_int n)))

let plen_pair n =
  if n < 128 then Array.unsafe_get plen_cache n
  else ("payload_length", Rt.VInt (Int64.of_int n))

let backend_env ~env (l : Backend.loaded) packet =
  {
    Backend.params = plen_pair (Bytes.length packet) :: env.params;
    state = env.state;
    ip = out_spec_of env.ttl;
    request_ip =
      (match l.Backend.func.Ir.role with
       | Ir.Receiver -> in_spec_of env.ttl
       | Ir.Sender -> None);
  }

(* [Error _] = structural reject: the packet is too short for the
   layout's fixed header, so there is nothing to execute. *)
let exec ?coverage ?trace ~env (l : Backend.loaded) packet :
    (Backend.outcome, string) result =
  l.Backend.exec ?coverage ?trace ~env:(backend_env ~env l packet) packet
