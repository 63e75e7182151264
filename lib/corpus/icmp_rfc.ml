let title = "INTERNET CONTROL MESSAGE PROTOCOL (RFC 792)"

let dictionary_extension =
  [
    "internet header + 64 bits of original data datagram";
    "original data datagram";
    "first 64 bits";
    "64 bits";
    "data bits";
    "echos"; "replies"; "requests";
    "echo sender";
    "internet destination network field";
    "time to live field";
    "time to live";
    "gateway internet address";
    "originate timestamp";
    "receive timestamp";
    "transmit timestamp";
    "pointer field";
    "type code";
    "source host";
    "destination host";
    "addressed host";
    "higher level protocol";
    "fragment reassembly time";
    "echo requests";
  ]

(* The diagram art: one bit per two columns, as in the RFC. *)
let dgram_32 label =
  Printf.sprintf
    "   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
    \   |%s|" label

let header_prefix =
  "    0                   1                   2                   3\n\
  \    0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1\n"
  ^ dgram_32 "     Type      |     Code      |          Checksum             "

let closing_bar =
  "   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+"

let error_diagram =
  header_prefix ^ "\n"
  ^ dgram_32 "                             unused                            "
  ^ "\n"
  ^ dgram_32 "      Internet Header + 64 bits of Original Data Datagram     "
  ^ "\n" ^ closing_bar

let pointer_diagram =
  header_prefix ^ "\n"
  ^ dgram_32 "    Pointer    |                   unused                      "
  ^ "\n"
  ^ dgram_32 "      Internet Header + 64 bits of Original Data Datagram     "
  ^ "\n" ^ closing_bar

let redirect_diagram =
  header_prefix ^ "\n"
  ^ dgram_32 "                 Gateway Internet Address                      "
  ^ "\n"
  ^ dgram_32 "      Internet Header + 64 bits of Original Data Datagram     "
  ^ "\n" ^ closing_bar

let echo_diagram =
  header_prefix ^ "\n"
  ^ dgram_32 "           Identifier          |        Sequence Number        "
  ^ "\n"
  ^ "   |     Data ...\n"
  ^ "   +-+-+-+-+-"

let timestamp_diagram =
  header_prefix ^ "\n"
  ^ dgram_32 "           Identifier          |        Sequence Number        "
  ^ "\n"
  ^ dgram_32 "                      Originate Timestamp                      "
  ^ "\n"
  ^ dgram_32 "                      Receive Timestamp                        "
  ^ "\n"
  ^ dgram_32 "                      Transmit Timestamp                       "
  ^ "\n" ^ closing_bar

let info_diagram =
  header_prefix ^ "\n"
  ^ dgram_32 "           Identifier          |        Sequence Number        "
  ^ "\n" ^ closing_bar

let checksum_description =
  "      The checksum is the 16-bit one's complement of the one's\n\
  \      complement sum of the ICMP message starting with the ICMP type.\n\
  \      For computing the checksum, the checksum field should be zero.\n\
  \      This checksum may be replaced in the future."

let data_field_description =
  "      The internet header plus the first 64 bits of the original\n\
  \      datagram's data.  This data is used by the host to match the\n\
  \      message to the appropriate process.  If a higher level protocol\n\
  \      uses port numbers, they are assumed to be in the first 64 data\n\
  \      bits of the original datagram's data."

let ip_fields_block =
  "   IP Fields:\n\n\
  \   Destination Address\n\n\
  \      The source network and address from the original datagram's\n\
  \      data.\n"

let text =
  String.concat "\n"
    [
      "Destination Unreachable Message";
      "";
      error_diagram;
      "";
      "   IP Fields:";
      "";
      "   Destination Address";
      "";
      "      The source network and address from the original datagram's\n\
      \      data.";
      "";
      "   ICMP Fields:";
      "";
      "   Type";
      "";
      "      3";
      "";
      "   Code";
      "";
      "      0 = net unreachable;";
      "      1 = host unreachable;";
      "      2 = protocol unreachable;";
      "      3 = port unreachable;";
      "      4 = fragmentation needed and DF set;";
      "      5 = source route failed.";
      "";
      "   Checksum";
      "";
      checksum_description;
      "";
      "   Internet Header + 64 bits of Original Data Datagram";
      "";
      data_field_description;
      "";
      "   Description";
      "";
      "      If the network of the destination is unreachable, the gateway\n\
      \      sends a destination unreachable message to the source host.\n\
      \      If the port of the destination process is unreachable, the\n\
      \      destination host may send a destination unreachable message to\n\
      \      the source host.  Another case is when a datagram must be\n\
      \      fragmented to be forwarded by a gateway yet the Don't Fragment\n\
      \      flag is on.  Codes 0, 1, 4, and 5 may be received from a\n\
      \      gateway.  Codes 2 and 3 may be received from a host.";
      "";
      "Time Exceeded Message";
      "";
      error_diagram;
      "";
      ip_fields_block;
      "   ICMP Fields:";
      "";
      "   Type";
      "";
      "      11";
      "";
      "   Code";
      "";
      "      0 = time to live exceeded in transit;";
      "      1 = fragment reassembly time exceeded.";
      "";
      "   Checksum";
      "";
      checksum_description;
      "";
      "   Internet Header + 64 bits of Original Data Datagram";
      "";
      data_field_description;
      "";
      "   Description";
      "";
      "      If the time to live field is zero, the gateway must discard the\n\
      \      datagram.  The gateway may also send a time exceeded message to\n\
      \      the source host.  If a host reassembling a fragmented datagram\n\
      \      cannot complete the reassembly due to missing fragments within\n\
      \      its time limit, it discards the datagram, and it may send a\n\
      \      time exceeded message.  If fragment zero is not available then\n\
      \      no time exceeded need be sent at all.";
      "";
      "Parameter Problem Message";
      "";
      pointer_diagram;
      "";
      ip_fields_block;
      "   ICMP Fields:";
      "";
      "   Type";
      "";
      "      12";
      "";
      "   Code";
      "";
      "      0 = pointer indicates the error.";
      "";
      "   Checksum";
      "";
      checksum_description;
      "";
      "   Pointer";
      "";
      "      If code = 0, identifies the octet where an error was detected.";
      "";
      "   Internet Header + 64 bits of Original Data Datagram";
      "";
      data_field_description;
      "";
      "   Description";
      "";
      "      If the gateway or host processing a datagram finds a problem\n\
      \      with the header parameters such that it cannot complete\n\
      \      processing the datagram, it must discard the datagram.  One\n\
      \      potential source of such a problem is with incorrect arguments\n\
      \      in an option.  The gateway or host may also notify the source\n\
      \      host via the parameter problem message.  This message is only\n\
      \      sent if the error caused the datagram to be discarded.";
      "";
      "Source Quench Message";
      "";
      error_diagram;
      "";
      ip_fields_block;
      "   ICMP Fields:";
      "";
      "   Type";
      "";
      "      4";
      "";
      "   Code";
      "";
      "      0";
      "";
      "   Checksum";
      "";
      checksum_description;
      "";
      "   Internet Header + 64 bits of Original Data Datagram";
      "";
      data_field_description;
      "";
      "   Description";
      "";
      "      A gateway may discard internet datagrams if it does not have\n\
      \      the buffer space needed to queue the datagrams for output to\n\
      \      the next network on the route to the destination network.  If\n\
      \      a gateway discards a datagram, it may send a source quench\n\
      \      message to the internet source host of the datagram.  The\n\
      \      source quench message is a request to the host to cut back the\n\
      \      rate at which it is sending traffic to the internet\n\
      \      destination.  On receipt of a source quench message, the\n\
      \      source host should cut back the rate at which it is sending\n\
      \      traffic to the specified destination.";
      "";
      "Redirect Message";
      "";
      redirect_diagram;
      "";
      ip_fields_block;
      "   ICMP Fields:";
      "";
      "   Type";
      "";
      "      5";
      "";
      "   Code";
      "";
      "      0 = redirect datagrams for the network;";
      "      1 = redirect datagrams for the host;";
      "      2 = redirect datagrams for the type of service and network;";
      "      3 = redirect datagrams for the type of service and host.";
      "";
      "   Checksum";
      "";
      checksum_description;
      "";
      "   Gateway Internet Address";
      "";
      "      Address of the gateway to which traffic for the network\n\
      \      specified in the internet destination network field of the\n\
      \      original datagram's data should be sent.";
      "";
      "   Internet Header + 64 bits of Original Data Datagram";
      "";
      data_field_description;
      "";
      "   Description";
      "";
      "      The gateway sends a redirect message to the host in the\n\
      \      following situation.  A gateway receives an internet datagram\n\
      \      from a host on a network to which the gateway is attached.\n\
      \      If the host of the datagram is on the same network, the\n\
      \      gateway sends a redirect message to the source host.  The\n\
      \      redirect message advises the host to send its traffic for the\n\
      \      destination network directly to the next gateway.";
      "";
      "Echo or Echo Reply Message";
      "";
      echo_diagram;
      "";
      "   ICMP Fields:";
      "";
      "   Type";
      "";
      "      8 for echo message;";
      "      0 for echo reply message.";
      "";
      "   Code";
      "";
      "      0";
      "";
      "   Checksum";
      "";
      checksum_description;
      "";
      "   Identifier";
      "";
      "      If code = 0, an identifier to aid in matching echos and\n\
      \      replies, may be zero.";
      "";
      "   Sequence Number";
      "";
      "      If code = 0, a sequence number to aid in matching echos and\n\
      \      replies, may be zero.";
      "";
      "   Description";
      "";
      "      The data in the echo message is returned in the echo reply\n\
      \      message.  To form an echo reply message, the source and\n\
      \      destination addresses are simply reversed, the type code\n\
      \      changed to 0, and the checksum recomputed.  The identifier and\n\
      \      sequence number may be used by the echo sender to aid in\n\
      \      matching the replies with the echo requests.  Answers to the\n\
      \      echo message are generated by the addressed host.";
      "";
      "   Addressing";
      "";
      "      The address of the source in an echo message will be the\n\
      \      destination of the echo reply message.";
      "";
      "Timestamp or Timestamp Reply Message";
      "";
      timestamp_diagram;
      "";
      "   ICMP Fields:";
      "";
      "   Type";
      "";
      "      13 for timestamp message;";
      "      14 for timestamp reply message.";
      "";
      "   Code";
      "";
      "      0";
      "";
      "   Checksum";
      "";
      checksum_description;
      "";
      "   Identifier";
      "";
      "      If code = 0, an identifier to aid in matching timestamp and\n\
      \      replies, may be zero.";
      "";
      "   Sequence Number";
      "";
      "      If code = 0, a sequence number to aid in matching timestamp\n\
      \      and replies, may be zero.";
      "";
      "   Originate Timestamp";
      "";
      "      The originate timestamp is the time the sender last touched\n\
      \      the message before sending it.";
      "";
      "   Receive Timestamp";
      "";
      "      The receive timestamp is the time the echoer first touched\n\
      \      the message on receipt.";
      "";
      "   Transmit Timestamp";
      "";
      "      The transmit timestamp is the time the echoer last touched\n\
      \      the message on sending it.";
      "";
      "   Description";
      "";
      "      The timestamp is 32 bits of milliseconds since midnight UT.\n\
      \      To form a timestamp reply message, the source and destination\n\
      \      addresses are simply reversed, the type code changed to 14,\n\
      \      and the checksum recomputed.";
      "";
      "   Addressing";
      "";
      "      The address of the source in a timestamp message will be the\n\
      \      destination of the timestamp reply message.";
      "";
      "Information Request or Information Reply Message";
      "";
      info_diagram;
      "";
      "   ICMP Fields:";
      "";
      "   Type";
      "";
      "      15 for information request message;";
      "      16 for information reply message.";
      "";
      "   Code";
      "";
      "      0";
      "";
      "   Checksum";
      "";
      checksum_description;
      "";
      "   Identifier";
      "";
      "      If code = 0, an identifier to aid in matching requests and\n\
      \      replies, may be zero.";
      "";
      "   Sequence Number";
      "";
      "      If code = 0, a sequence number to aid in matching requests\n\
      \      and replies, may be zero.";
      "";
      "   Description";
      "";
      "      This message may be sent with the source network in the IP\n\
      \      header source and destination address fields zero.  To form an\n\
      \      information reply message, the source and destination\n\
      \      addresses are simply reversed, the type code changed to 16,\n\
      \      and the checksum recomputed.";
      "";
    ]

let annotated_non_actionable =
  [
    (* checksum futures and host-matching commentary *)
    "This checksum may be replaced in the future";
    "This data is used by the host to match";
    "If a higher level protocol uses port numbers";
    (* behavior commentary that describes other parties or rationale *)
    "If the network of the destination is unreachable";
    "If the port of the destination process is unreachable";
    "Another case is when a datagram must be fragmented";
    "Codes 0, 1, 4, and 5 may be received";
    "Codes 2 and 3 may be received";
    "The gateway may also send a time exceeded message";
    "If a host reassembling a fragmented datagram";
    "If fragment zero is not available";
    "If the gateway or host processing a datagram finds a problem";
    "One potential source of such a problem";
    "The gateway or host may also notify the source host";
    "This message is only sent if the error";
    "A gateway may discard internet datagrams";
    "If a gateway discards a datagram";
    "The source quench message is a request to the host";
    "On receipt of a source quench message";
    "The gateway sends a redirect message to the host in the";
    "A gateway receives an internet datagram";
    "If the host of the datagram is on the same network";
    "The redirect message advises the host";
    "The identifier and sequence number may be used by the echo sender";
    "Answers to the echo message are generated";
    "The timestamp is 32 bits of milliseconds";
    "This message may be sent with the source network";
    "The originate timestamp is the time the sender";
    "The receive timestamp is the time the echoer";
    "The transmit timestamp is the time the echoer";
  ]

(* ------------------------------------------------------------------ *)
(* The rewritten (disambiguated) specification.                       *)
(* ------------------------------------------------------------------ *)

let rewritten_formation msg ty =
  Printf.sprintf
    "      To form %s message, the source address is exchanged with the\n\
    \      destination address.  To form %s message, the type is changed\n\
    \      to %d.  To form %s message, the checksum is recomputed."
    msg msg ty msg

let rewritten_identifier msg =
  Printf.sprintf
    "      If code = 0, the identifier in the %s message may be zero."
    msg

let rewritten_sequence msg =
  Printf.sprintf
    "      If code = 0, the sequence number in the %s message may be zero."
    msg

let rewritten_text =
  String.concat "\n"
    [
      "Destination Unreachable Message";
      "";
      error_diagram;
      "";
      "   IP Fields:";
      "";
      "   Destination Address";
      "";
      "      The source network and address from the original datagram's\n\
      \      data.";
      "";
      "   ICMP Fields:";
      "";
      "   Type";
      "";
      "      3";
      "";
      "   Code";
      "";
      "      0 = net unreachable;";
      "      1 = host unreachable;";
      "      2 = protocol unreachable;";
      "      3 = port unreachable;";
      "      4 = fragmentation needed and DF set;";
      "      5 = source route failed.";
      "";
      "   Checksum";
      "";
      checksum_description;
      "";
      "   Internet Header + 64 bits of Original Data Datagram";
      "";
      data_field_description;
      "";
      "Time Exceeded Message";
      "";
      error_diagram;
      "";
      ip_fields_block;
      "   ICMP Fields:";
      "";
      "   Type";
      "";
      "      11";
      "";
      "   Code";
      "";
      "      0 = time to live exceeded in transit;";
      "      1 = fragment reassembly time exceeded.";
      "";
      "   Checksum";
      "";
      checksum_description;
      "";
      "   Internet Header + 64 bits of Original Data Datagram";
      "";
      data_field_description;
      "";
      "   Description";
      "";
      "      If the time to live field is zero, the gateway must discard\n\
      \      the datagram.";
      "";
      "Parameter Problem Message";
      "";
      pointer_diagram;
      "";
      ip_fields_block;
      "   ICMP Fields:";
      "";
      "   Type";
      "";
      "      12";
      "";
      "   Code";
      "";
      "      0 = pointer indicates the error.";
      "";
      "   Checksum";
      "";
      checksum_description;
      "";
      "   Pointer";
      "";
      "      If code = 0, identifies the octet where an error was detected.";
      "";
      "   Internet Header + 64 bits of Original Data Datagram";
      "";
      data_field_description;
      "";
      "Source Quench Message";
      "";
      error_diagram;
      "";
      ip_fields_block;
      "   ICMP Fields:";
      "";
      "   Type";
      "";
      "      4";
      "";
      "   Code";
      "";
      "      0";
      "";
      "   Checksum";
      "";
      checksum_description;
      "";
      "   Internet Header + 64 bits of Original Data Datagram";
      "";
      data_field_description;
      "";
      "Redirect Message";
      "";
      redirect_diagram;
      "";
      ip_fields_block;
      "   ICMP Fields:";
      "";
      "   Type";
      "";
      "      5";
      "";
      "   Code";
      "";
      "      0 = redirect datagrams for the network;";
      "      1 = redirect datagrams for the host;";
      "      2 = redirect datagrams for the type of service and network;";
      "      3 = redirect datagrams for the type of service and host.";
      "";
      "   Checksum";
      "";
      checksum_description;
      "";
      "   Gateway Internet Address";
      "";
      "      The gateway internet address is the address of the next\n\
      \      gateway.";
      "";
      "   Internet Header + 64 bits of Original Data Datagram";
      "";
      data_field_description;
      "";
      "Echo or Echo Reply Message";
      "";
      echo_diagram;
      "";
      "   ICMP Fields:";
      "";
      "   Type";
      "";
      "      8 for echo message;";
      "      0 for echo reply message.";
      "";
      "   Code";
      "";
      "      0";
      "";
      "   Checksum";
      "";
      checksum_description;
      "";
      "   Identifier";
      "";
      rewritten_identifier "echo";
      "";
      "   Sequence Number";
      "";
      rewritten_sequence "echo";
      "";
      "   Description";
      "";
      "      The data in the echo message is returned in the echo reply\n\
      \      message.";
      rewritten_formation "an echo reply" 0;
      "";
      "   Addressing";
      "";
      "      The address of the source in an echo message will be the\n\
      \      destination of the echo reply message.";
      "";
      "Timestamp or Timestamp Reply Message";
      "";
      timestamp_diagram;
      "";
      "   ICMP Fields:";
      "";
      "   Type";
      "";
      "      13 for timestamp message;";
      "      14 for timestamp reply message.";
      "";
      "   Code";
      "";
      "      0";
      "";
      "   Checksum";
      "";
      checksum_description;
      "";
      "   Identifier";
      "";
      rewritten_identifier "timestamp";
      "";
      "   Sequence Number";
      "";
      rewritten_sequence "timestamp";
      "";
      "   Originate Timestamp";
      "";
      "      The originate timestamp in the timestamp message is set to\n\
      \      the current time.";
      "";
      "   Receive Timestamp";
      "";
      "      The receive timestamp in the timestamp reply message is set\n\
      \      to the current time.";
      "";
      "   Transmit Timestamp";
      "";
      "      The transmit timestamp in the timestamp reply message is set\n\
      \      to the current time.";
      "";
      "   Description";
      "";
      rewritten_formation "a timestamp reply" 14;
      "";
      "   Addressing";
      "";
      "      The address of the source in a timestamp message will be the\n\
      \      destination of the timestamp reply message.";
      "";
      "Information Request or Information Reply Message";
      "";
      info_diagram;
      "";
      "   ICMP Fields:";
      "";
      "   Type";
      "";
      "      15 for information request message;";
      "      16 for information reply message.";
      "";
      "   Code";
      "";
      "      0";
      "";
      "   Checksum";
      "";
      checksum_description;
      "";
      "   Identifier";
      "";
      rewritten_identifier "information request";
      "";
      "   Sequence Number";
      "";
      rewritten_sequence "information request";
      "";
      "   Description";
      "";
      rewritten_formation "an information reply" 16;
      "";
    ]
