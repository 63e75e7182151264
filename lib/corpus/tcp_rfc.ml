let title = "TRANSMISSION CONTROL PROTOCOL (RFC 793), header format excerpt"

let dictionary_extension =
  [
    "tcp segment"; "tcp header"; "tcp checksum";
    "sequence number field"; "acknowledgment number";
    "acknowledgment number field"; "data offset"; "data offset field";
    "urgent pointer field"; "window field"; "urg bit"; "ack bit";
    "psh bit"; "rst bit"; "syn bit"; "fin bit"; "control bits";
    "urgent data"; "receive window"; "send sequence number";
    "first data octet"; "initial sequence number"; "syn segment";
    "connection record"; "listen state"; "syn-sent state";
  ]

let diagram =
  "    0                   1                   2                   3\n\
  \    0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1\n\
  \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
  \   |          Source Port          |       Destination Port        |\n\
  \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
  \   |                        Sequence Number                        |\n\
  \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
  \   |                     Acknowledgment Number                     |\n\
  \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
  \   |Offset |  Reserved |U|A|P|R|S|F|            Window             |\n\
  \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
  \   |           Checksum            |        Urgent Pointer         |\n\
  \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
  \   |     Data ...\n\
  \   +-+-+-+-+-"

(* state-machine prose that today's grammar cannot handle: the 7-gap *)
let out_of_reach =
  [
    "If the state is LISTEN and the segment contains a SYN, enter the \
     SYN-RECEIVED state, but note that any other incoming control or data \
     should be queued for processing later.";
    "A natural way to think about processing incoming segments is to \
     imagine that they are first tested for proper sequence number.";
    "Send a SYN segment of the form SEQ=ISS CTL=SYN, and the connection \
     state should be changed to SYN-SENT.";
  ]

let text =
  String.concat "\n"
    ([
       "TCP Segment Header";
       "";
       diagram;
       "";
       "   Fields:";
       "";
       "   Source Port";
       "";
       "      The source port number.";
       "";
       "   Destination Port";
       "";
       "      The destination port number.";
       "";
       "   Sequence Number";
       "";
       "      The sequence number of the first data octet in this segment.";
       "";
       "   Acknowledgment Number";
       "";
       "      If the ack bit is nonzero, this field contains the value of \
        the\n\
        \      next sequence number the sender of the segment is expecting \
        to\n\
        \      receive.";
       "";
       "   Checksum";
       "";
       "      The checksum is the 16-bit one's complement of the one's\n\
        \      complement sum of the tcp segment.  For computing the \
        checksum,\n\
        \      the checksum field should be zero.";
       "";
       "   Urgent Pointer";
       "";
       "      If the urg bit is zero, the urgent pointer field is zero.";
       "";
       "   Description";
       "";
     ]
    @ List.map (fun s -> "      " ^ s)
        [
          "If the ack bit is zero, the acknowledgment number field is zero.";
          "If the rst bit is nonzero, the segment MUST be discarded.";
        ]
    @ [ "" ]
    @ List.map (fun s -> "      " ^ s) out_of_reach
    @ [ "" ])

let annotated_non_actionable =
  [
    "The source port number";
    "The destination port number";
    "The sequence number of the first data octet";
    "If the ack bit is nonzero, this field contains";
    "A natural way to think about processing incoming segments";
  ]
