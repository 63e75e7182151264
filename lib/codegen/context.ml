module Hd = Sage_rfc.Header_diagram

type dynamic = {
  protocol : string;
  message : string;
  field : string option;
  role : Ir.role option;
  struct_def : Hd.t option;
}

let dynamic ?field ?role ?struct_def ~protocol ~message () =
  { protocol; message; field; role; struct_def }

type resolution =
  | Proto_field of string
  | Ip_field of string
  | State_var of string
  | Framework_fn of string
  | Env_param of string
  | Message of string
  | Value of int

(* The pre-defined static context (paper §5.2): terms whose meaning comes
   from lower-layer protocols, the OS, or networking convention rather
   than from the RFC being compiled. *)
let static_entries =
  [
    (* --- IP header fields (the layer below ICMP/IGMP) --- *)
    ("source address", Ip_field "src");
    ("source", Ip_field "src");
    ("destination address", Ip_field "dst");
    ("destination", Ip_field "dst");
    ("source and destination addresses", Framework_fn "swap_ip_addresses");
    ("address", Ip_field "src");
    ("time to live", Ip_field "ttl");
    ("time-to-live", Ip_field "ttl");
    ("ttl", Ip_field "ttl");
    ("type of service", Ip_field "tos");
    ("tos", Ip_field "tos");
    ("protocol field", Ip_field "protocol");
    ("internet header", Env_param "internet_header");
    ("ip header", Env_param "internet_header");
    (* --- original-datagram excerpts quoted by error messages --- *)
    ("original datagram's data", Env_param "original_datagram_data");
    ("original datagram", Env_param "original_datagram");
    ("original data datagram", Env_param "original_datagram");
    ("first 64 bits", Framework_fn "first_64_bits");
    ("64 bits of data", Framework_fn "first_64_bits");
    (* --- checksum machinery --- *)
    ("one's complement sum", Framework_fn "ones_complement_sum");
    ("ones complement sum", Framework_fn "ones_complement_sum");
    ("16-bit one's complement", Framework_fn "complement16");
    ("one's complement", Framework_fn "complement16");
    ("icmp message", Message "icmp message");
    ("icmp type", Proto_field "type");
    ("icmp checksum", Proto_field "checksum");
    (* --- environment / OS services --- *)
    ("current time", Env_param "current_time");
    ("time", Env_param "current_time");
    ("timestamp", Env_param "current_time");
    ("gateway", Env_param "gateway_address");
    ("next gateway", Env_param "gateway_address");
    ("gateway address", Env_param "gateway_address");
    ("interface address", Env_param "interface_address");
    ("data", Proto_field "data");
    ("data received", Proto_field "data");
    (* --- common literal values --- *)
    ("zero", Value 0);
    ("nonzero", Value 1);
    ("octet", Env_param "error_pointer");
    ("octet where an error was detected", Env_param "error_pointer");
    (* --- IGMP --- *)
    ("host group address", Env_param "host_group");
    ("group address", Proto_field "group_address");
    ("group address field", Proto_field "group_address");
    ("all-hosts group", Env_param "all_hosts_group");
    ("host group being reported", Env_param "host_group");
    ("igmp message", Message "igmp message");
    (* --- NTP --- *)
    ("udp datagram", Message "udp datagram");
    ("destination port", State_var "udp.dst_port");
    ("source port", State_var "udp.src_port");
    ("peer.timer", State_var "peer.timer");
    ("peer.hostpoll", State_var "peer.hostpoll");
    ("peer.mode", State_var "peer.mode");
    ("peer.reach", State_var "peer.reach");
    ("transmit procedure", Framework_fn "transmit_procedure");
    ("timeout procedure", Framework_fn "timeout_procedure");
    (* --- BFD state variables (dictionary extension, §6.4) --- *)
    ("bfd.sessionstate", State_var "bfd.SessionState");
    ("bfd.remotesessionstate", State_var "bfd.RemoteSessionState");
    ("bfd.localdiscr", State_var "bfd.LocalDiscr");
    ("bfd.remotediscr", State_var "bfd.RemoteDiscr");
    ("bfd.localdiag", State_var "bfd.LocalDiag");
    ("bfd.desiredmintxinterval", State_var "bfd.DesiredMinTxInterval");
    ("bfd.requiredminrxinterval", State_var "bfd.RequiredMinRxInterval");
    ("bfd.remoteminrxinterval", State_var "bfd.RemoteMinRxInterval");
    ("bfd.demandmode", State_var "bfd.DemandMode");
    ("bfd.remotedemandmode", State_var "bfd.RemoteDemandMode");
    ("bfd.detectmult", State_var "bfd.DetectMult");
    ("bfd.authtype", State_var "bfd.AuthType");
    ("periodic transmission", State_var "bfd.PeriodicTx");
    ("periodic transmission of bfd control packets", State_var "bfd.PeriodicTx");
    ("the session", Env_param "session");
    ("session", Env_param "session");
    ("bfd session", Env_param "session");
    ("your discriminator field", Proto_field "your_discriminator");
    ("my discriminator field", Proto_field "my_discriminator");
    ("your discriminator", Proto_field "your_discriminator");
    ("my discriminator", Proto_field "my_discriminator");
    ("bfd packet", Message "bfd control packet");
    ("version number", Proto_field "vers");
    ("a bit", Proto_field "a");
    (* --- BGP (the §7 FSM-prose extension corpus) --- *)
    ("state", State_var "bgp.State");
    ("manualstart event", Env_param "event_ManualStart");
    ("manualstop event", Env_param "event_ManualStop");
    ("holdtimer", State_var "bgp.HoldTimer");
    ("connectretrytimer", State_var "bgp.ConnectRetryTimer");
    ("connectretrycounter", State_var "bgp.ConnectRetryCounter");
    ("idle", Value 1);
    ("connect", Value 2);
    ("active", Value 3);
    ("opensent", Value 4);
    ("openconfirm", Value 5);
    ("established", Value 6);
    ("tcp connection", Env_param "tcp_connection");
    ("bgp resources", Env_param "bgp_resources");
    (* --- TCP (the §7 extension corpus) --- *)
    ("tcp segment", Message "tcp segment");
    ("segment", Message "segment");
    ("ack bit", Proto_field "a");
    ("urg bit", Proto_field "u");
    ("psh bit", Proto_field "p");
    ("rst bit", Proto_field "r");
    ("syn bit", Proto_field "s");
    ("fin bit", Proto_field "f");
    ("sta field", Proto_field "sta");
    ("state field", Proto_field "sta");
    ("demand bit", Proto_field "d");
    ("demand (d) bit", Proto_field "d");
    ("poll bit", Proto_field "p");
    ("poll (p) bit", Proto_field "p");
    ("final bit", Proto_field "f");
    ("final (f) bit", Proto_field "f");
    ("multipoint bit", Proto_field "m");
    ("multipoint (m) bit", Proto_field "m");
    ("payload", Env_param "payload_length");
    ("transmission of bfd echo packets", State_var "bfd.EchoTx");
    ("echo transmission", State_var "bfd.EchoTx");
    ("symmetric mode", Value 1);
    ("client mode", Value 3);
    ("server mode", Value 4);
    ("udp datagram's destination port", State_var "udp.dst_port");
    ("destination port of the udp datagram", State_var "udp.dst_port");
    ("udp destination port", State_var "udp.dst_port");
    ("udp source port", State_var "udp.src_port");
    ("bfd control packet", Message "bfd control packet");
    ("bfd control packets", Message "bfd control packet");
    ("local system", Env_param "local_system");
    ("remote system", Env_param "remote_system");
    ("demand mode", State_var "bfd.DemandMode");
    ("packet", Message "packet");
    ("up", Value 3);
    ("init", Value 2);
    ("down", Value 1);
    ("admindown", Value 0);
  ]

(* [static_entries] as a table, built once.  [of_seq] keeps a term's
   last binding, so reversing the list keeps its first, as
   [List.assoc_opt] does. *)
let static_table = Hashtbl.of_seq (List.to_seq (List.rev static_entries))

let normalize term = String.lowercase_ascii (String.trim term)

(* [String.lowercase_ascii s = lower] without building the lowered copy *)
let rec lowercase_equal_from s lower i =
  i = String.length lower
  || (Char.lowercase_ascii s.[i] = lower.[i] && lowercase_equal_from s lower (i + 1))

let lowercase_equal s lower =
  String.length s = String.length lower && lowercase_equal_from s lower 0

(* strip leading determiners the chunker may have folded in *)
let strip_determiner term =
  let for_prefix p =
    let lp = String.length p in
    if String.length term > lp && String.sub term 0 lp = p then
      Some (String.sub term lp (String.length term - lp))
    else None
  in
  match List.find_map for_prefix [ "the "; "a "; "an " ] with
  | Some rest -> rest
  | None -> term

let rec resolve ctx term =
  let term = normalize term in
  (* sentence-internal co-reference: "it" refers to the field whose
     description the sentence belongs to *)
  if term = "it" then
    match ctx.field with
    | Some f when normalize f <> "it" -> resolve ctx f
    | Some _ | None -> None
  else
    (* try the term exactly as written first: "A bit" names the
       Authentication Present bit, not "bit" with an article *)
    match resolve_plain ctx term with
    | Some r -> Some r
    | None -> resolve_plain ctx (strip_determiner term)

and resolve_plain ctx term =
  (* 1. the message's own header fields, by label or by C identifier,
     allowing a trailing " field" ("pointer field" -> "pointer") *)
  let no_suffix =
    (* "pointer field" -> "pointer", "version number" -> "version" *)
    let strip suffix t =
      let ls = String.length suffix in
      if String.length t > ls && String.sub t (String.length t - ls) ls = suffix
      then String.sub t 0 (String.length t - ls)
      else t
    in
    strip " field" (strip " number" term)
  in
  let from_struct =
    match ctx.struct_def with
    | None -> None
    | Some sd ->
      let ident = Hd.c_identifier no_suffix in
      let matches (f : Hd.field) =
        lowercase_equal f.name term
        || lowercase_equal f.name no_suffix
        || String.equal f.ident ident
      in
      (match List.find_opt matches sd.fields with
       | Some f -> Some (Proto_field f.ident)
       | None -> None)
  in
  match from_struct with
  | Some r -> Some r
  | None ->
    (match Hashtbl.find_opt static_table term with
     | Some r -> Some r
     | None ->
       (match Hashtbl.find_opt static_table no_suffix with
        | Some r -> Some r
        | None ->
          (* message-name terms: "echo reply message", "the echo message" *)
          if
            String.length term >= 7
            && String.sub term (String.length term - 7) 7 = "message"
          then Some (Message term)
          else None))

let pp_resolution ppf = function
  | Proto_field f -> Fmt.pf ppf "proto field %s" f
  | Ip_field f -> Fmt.pf ppf "ip field %s" f
  | State_var v -> Fmt.pf ppf "state var %s" v
  | Framework_fn f -> Fmt.pf ppf "framework fn %s" f
  | Env_param p -> Fmt.pf ppf "env param %s" p
  | Message m -> Fmt.pf ppf "message %S" m
  | Value v -> Fmt.pf ppf "value %d" v

let pp ppf ctx =
  let module Json = Sage_json.Json in
  Fmt.string ppf
    (Json.to_string
       (Json.Obj
          [
            ("protocol", Json.Str ctx.protocol);
            ("message", Json.Str ctx.message);
            ("field", Json.Str (Option.value ~default:"" ctx.field));
            ( "role",
              Json.Str
                (match ctx.role with None -> "" | Some r -> Ir.role_name r) );
          ]))
