(* The dictionary is stored as a hash table keyed by the lower-cased,
   space-joined word sequence of each phrase, with the word count as value;
   a secondary table indexes phrases by their first word so longest_match
   only examines plausible candidates. *)

type t = {
  phrases : (string, int) Hashtbl.t;         (* "echo reply message" -> 3 *)
  by_first : (string, string list) Hashtbl.t; (* "echo" -> [["echo";"reply";"message"]; ...] as joined strings *)
  mutable max_words : int;
}

let normalize phrase =
  phrase |> String.lowercase_ascii |> String.split_on_char ' '
  |> List.filter (fun w -> w <> "")

let empty =
  { phrases = Hashtbl.create 1; by_first = Hashtbl.create 1; max_words = 0 }

let add dict phrase =
  let ws = normalize phrase in
  match ws with
  | [] -> ()
  | first :: _ ->
    let key = String.concat " " ws in
    let n = List.length ws in
    if not (Hashtbl.mem dict.phrases key) then begin
      Hashtbl.replace dict.phrases key n;
      let existing = Option.value ~default:[] (Hashtbl.find_opt dict.by_first first) in
      Hashtbl.replace dict.by_first first (key :: existing);
      if n > dict.max_words then dict.max_words <- n
    end

(* ~400 networking terms, modeled on the index of Kurose & Ross, "Computer
   Networking: A Top-Down Approach", weighted toward the vocabulary of the
   RFCs SAGE evaluates (ICMP, IGMP, NTP, BFD) plus general protocol
   terminology. *)
let base_terms = [
  (* --- packets, frames, messages --- *)
  "packet"; "datagram"; "frame"; "segment"; "message"; "payload"; "data";
  "octet"; "byte"; "bit"; "word"; "header"; "trailer"; "preamble";
  "packet header"; "internet header"; "ip header"; "icmp header";
  "udp header"; "tcp header"; "protocol header"; "header field";
  "header length"; "packet length"; "total length"; "message body";
  "original datagram"; "original datagram's data"; "datagram's data";
  "data portion"; "message type"; "packet type"; "frame check sequence";
  (* --- addressing --- *)
  "address"; "ip address"; "internet address"; "source address";
  "destination address"; "source and destination addresses";
  "network address"; "host address"; "hardware address"; "mac address";
  "broadcast address"; "multicast address"; "unicast address";
  "loopback address"; "subnet"; "subnet mask"; "prefix"; "prefix length";
  "network"; "source network"; "destination network"; "internet destination network";
  "internet destination network field"; "network number"; "host number";
  "address mask"; "group address"; "host group"; "host group address";
  "source"; "destination"; "sender"; "receiver"; "originator"; "recipient";
  (* --- core header fields --- *)
  "field"; "type"; "code"; "checksum"; "type field"; "code field";
  "checksum field"; "type code"; "version"; "version field";
  "identifier"; "identification"; "sequence number"; "sequence";
  "acknowledgment number"; "window"; "window size"; "urgent pointer";
  "offset"; "fragment offset"; "flags"; "flag"; "options"; "option";
  "padding"; "reserved"; "reserved field"; "pointer"; "pointer field";
  "time to live"; "time-to-live"; "ttl"; "ttl field"; "hop limit";
  "type of service"; "tos"; "precedence"; "service type";
  "protocol field"; "protocol number"; "port"; "port number";
  "source port"; "destination port"; "port numbers"; "length field";
  "internet header length"; "ihl"; "unused"; "unused field";
  "gateway internet address"; "gateway address";
  (* --- checksums and arithmetic --- *)
  "one's complement"; "ones complement"; "one's complement sum";
  "16-bit one's complement"; "complement sum"; "internet checksum";
  "checksum computation"; "checksum range"; "zero"; "ones";
  "network byte order"; "host byte order"; "byte order"; "big endian";
  "little endian"; "byte order conversion";
  (* --- ICMP specifics --- *)
  "icmp"; "icmp message"; "icmp type"; "icmp code"; "icmp checksum";
  "icmp payload"; "echo"; "echo message"; "echo reply";
  "echo reply message"; "echo request"; "echo request message";
  "destination unreachable"; "destination unreachable message";
  "time exceeded"; "time exceeded message"; "parameter problem";
  "parameter problem message"; "source quench"; "source quench message";
  "redirect"; "redirect message"; "timestamp"; "timestamp message";
  "timestamp reply"; "timestamp reply message"; "information request";
  "information request message"; "information reply";
  "information reply message"; "originate timestamp";
  "receive timestamp"; "transmit timestamp"; "gateway"; "router";
  "first-hop gateway"; "next gateway"; "internet module"; "module";
  (* --- IGMP specifics --- *)
  "igmp"; "igmp message"; "host membership query"; "host membership report";
  "membership query"; "membership report"; "query"; "report";
  "multicast group"; "group membership"; "multicast router";
  "multicast datagram"; "igmp type"; "local network";
  (* --- NTP specifics --- *)
  "ntp"; "ntp message"; "ntp packet"; "ntp header"; "leap indicator";
  "stratum"; "poll interval"; "poll"; "root delay"; "root dispersion";
  "reference clock"; "reference identifier"; "reference timestamp";
  "peer"; "peer clock"; "peer variables"; "system variables";
  "peer.timer"; "peer.mode"; "peer.hostpoll"; "clock"; "local clock";
  "timer"; "timeout"; "timeout procedure"; "transmit procedure";
  "symmetric mode"; "client mode"; "server mode"; "broadcast mode";
  "dispersion"; "delay"; "clock offset"; "roundtrip delay";
  (* --- BFD specifics --- *)
  "bfd"; "bfd packet"; "bfd control packet"; "bfd control packets";
  "session"; "bfd session"; "session state"; "remote system";
  "local system"; "demand mode"; "echo function"; "detection time";
  "detect mult"; "discriminator"; "my discriminator"; "your discriminator";
  "your discriminator field"; "my discriminator field";
  "periodic transmission"; "control packet"; "poll sequence";
  "poll bit"; "final bit"; "authentication section"; "auth type";
  (* --- TCP/transport --- *)
  "tcp"; "udp"; "transport layer"; "transport protocol"; "connection";
  "connection establishment"; "connection state"; "three-way handshake";
  "handshake"; "syn"; "ack"; "fin"; "rst"; "acknowledgment";
  "retransmission"; "retransmission timer"; "round trip time"; "rtt";
  "congestion"; "congestion control"; "congestion window"; "flow control";
  "receive window"; "send window"; "maximum segment size"; "mss";
  "sliding window"; "cumulative acknowledgment"; "selective acknowledgment";
  "fast retransmit"; "slow start"; "buffer"; "outbound buffer";
  "receive buffer"; "send buffer"; "queue"; "queueing delay";
  (* --- IP / network layer --- *)
  "ip"; "ipv4"; "ipv6"; "internet protocol"; "network layer";
  "fragmentation"; "fragment"; "reassembly"; "forwarding";
  "forwarding table"; "routing"; "routing table"; "route"; "next hop";
  "next hop router"; "hop"; "hop count"; "path"; "default route";
  "longest prefix match"; "dotted decimal notation"; "dhcp"; "nat";
  "arp"; "arp table"; "icmp error"; "traceroute"; "ping";
  (* --- link layer --- *)
  "link"; "link layer"; "ethernet"; "ethernet frame"; "switch";
  "hub"; "bridge"; "lan"; "vlan"; "wireless"; "wifi"; "access point";
  "collision"; "csma"; "csma/cd"; "mtu"; "maximum transmission unit";
  (* --- routing protocols --- *)
  "bgp"; "ospf"; "rip"; "distance vector"; "link state";
  "autonomous system"; "as path"; "bgp speaker"; "peering";
  "route advertisement"; "route withdrawal"; "path attribute";
  "interior gateway protocol"; "exterior gateway protocol";
  (* --- application layer --- *)
  "http"; "https"; "dns"; "dns server"; "domain name"; "hostname";
  "resource record"; "smtp"; "ftp"; "web server"; "client"; "server";
  "client-server"; "peer-to-peer"; "socket"; "socket interface"; "api";
  "request"; "response"; "reply"; "transaction"; "session layer";
  (* --- general protocol machinery --- *)
  "protocol"; "protocol stack"; "protocol suite"; "layer"; "layering";
  "encapsulation"; "decapsulation"; "demultiplexing"; "multiplexing";
  "service"; "service model"; "interface"; "interface address";
  "state"; "state machine"; "state variable"; "state variables";
  "finite state machine"; "event"; "timer expiration"; "transition";
  "specification"; "standard"; "rfc"; "implementation"; "host";
  "end system"; "node"; "endpoint"; "entity"; "process";
  "error"; "error detection"; "error correction"; "error message";
  "bit error"; "packet loss"; "loss"; "corruption"; "duplicate";
  "reordering"; "in-order delivery"; "reliable delivery";
  "reliable data transfer"; "best effort"; "best-effort service";
  "throughput"; "bandwidth"; "latency"; "propagation delay";
  "transmission delay"; "processing delay"; "jitter";
  (* --- security (general dictionary coverage) --- *)
  "encryption"; "decryption"; "key"; "public key"; "private key";
  "certificate"; "authentication"; "integrity"; "confidentiality";
  "digital signature"; "nonce"; "firewall"; "intrusion detection";
  "tls"; "ssl"; "ipsec"; "vpn"; "denial of service";
  (* --- misc vocabulary appearing in the evaluated RFCs --- *)
  "internet"; "internetwork"; "communication"; "communications";
  "transmission"; "reception"; "delivery"; "higher level protocol";
  "higher-level protocol"; "lower level protocol"; "upper layer";
  "operating system"; "kernel"; "user"; "application"; "program";
  "function"; "procedure"; "variable"; "value"; "parameter"; "argument";
  "constant"; "magic constant"; "default value"; "initial value";
  "maximum"; "minimum"; "threshold"; "interval"; "duration"; "lifetime";
  "milliseconds"; "seconds"; "microseconds"; "time"; "universal time";
  "midnight"; "error condition"; "problem"; "diagnostic";
]

let base () =
  let dict =
    { phrases = Hashtbl.create 1024; by_first = Hashtbl.create 1024; max_words = 0 }
  in
  List.iter (add dict) base_terms;
  dict

let extend dict terms =
  let copy =
    {
      phrases = Hashtbl.copy dict.phrases;
      by_first = Hashtbl.copy dict.by_first;
      max_words = dict.max_words;
    }
  in
  List.iter (add copy) terms;
  copy

let mem dict phrase =
  let key = String.concat " " (normalize phrase) in
  Hashtbl.mem dict.phrases key

let longest_match dict words =
  let words = List.map String.lowercase_ascii words in
  match words with
  | [] -> 0
  | first :: _ ->
    (match Hashtbl.find_opt dict.by_first first with
     | None -> 0
     | Some candidates ->
       let joined n =
         let rec take k = function
           | [] -> []
           | _ when k = 0 -> []
           | w :: ws -> w :: take (k - 1) ws
         in
         String.concat " " (take n words)
       in
       List.fold_left
         (fun best key ->
           let n = Hashtbl.find dict.phrases key in
           if n > best && n <= List.length words && String.equal (joined n) key
           then n
           else best)
         0 candidates)

let size dict = Hashtbl.length dict.phrases
let bfd_state_variables = [
  "bfd.SessionState"; "bfd.RemoteSessionState"; "bfd.LocalDiscr";
  "bfd.RemoteDiscr"; "bfd.LocalDiag"; "bfd.DesiredMinTxInterval";
  "bfd.RequiredMinRxInterval"; "bfd.RemoteMinRxInterval"; "bfd.DemandMode";
  "bfd.RemoteDemandMode"; "bfd.DetectMult"; "bfd.AuthType"; "bfd.RcvAuthSeq";
  "bfd.XmitAuthSeq"; "bfd.AuthSeqKnown";
  "Up"; "Down"; "Init"; "AdminDown";
]
