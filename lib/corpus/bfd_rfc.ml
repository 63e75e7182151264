let title = "BIDIRECTIONAL FORWARDING DETECTION (RFC 5880), 4.1 and 6.8.6"

let dictionary_extension =
  [
    "bfd control packet"; "bfd control packets"; "bfd packet";
    "bfd echo packets"; "transmission of bfd echo packets";
    "version number"; "length field"; "detect mult field";
    "multipoint bit"; "my discriminator field"; "your discriminator field";
    "required min rx interval field"; "required min echo rx interval field";
    "desired min tx interval field"; "sta field"; "demand bit"; "a bit";
    "poll bit"; "final bit";
    "bfd.SessionState"; "bfd.RemoteSessionState"; "bfd.LocalDiscr";
    "bfd.RemoteDiscr"; "bfd.LocalDiag"; "bfd.DesiredMinTxInterval";
    "bfd.RequiredMinRxInterval"; "bfd.RemoteMinRxInterval"; "bfd.DemandMode";
    "bfd.RemoteDemandMode"; "bfd.DetectMult"; "bfd.AuthType";
    "periodic transmission of bfd control packets";
    "AdminDown"; "remote system"; "local system";
  ]

let diagram =
  "    0                   1                   2                   3\n\
  \    0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1\n\
  \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
  \   |Vers |  Diag   |Sta|P|F|C|A|D|M|  Detect Mult  |    Length     |\n\
  \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
  \   |                       My Discriminator                        |\n\
  \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
  \   |                      Your Discriminator                       |\n\
  \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
  \   |                   Desired Min TX Interval                     |\n\
  \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
  \   |                  Required Min RX Interval                     |\n\
  \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
  \   |                Required Min Echo RX Interval                  |\n\
  \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+"

let reception_common_prefix =
  [
    "      If the version number is not 1, the packet MUST be discarded.\n\
    \      If the Length field exceeds the payload, the packet MUST be\n\
    \      discarded.  If the Detect Mult field is zero, the packet MUST\n\
    \      be discarded.  If the Multipoint bit is nonzero, the packet\n\
    \      MUST be discarded.  If the My Discriminator field is zero, the\n\
    \      packet MUST be discarded.  If the Your Discriminator field is\n\
    \      nonzero, it MUST be used to select the session.";
  ]

let reception_common_suffix =
  [
    "      If the A bit is nonzero and bfd.AuthType is zero, the packet\n\
    \      MUST be discarded.  If the A bit is zero and bfd.AuthType is\n\
    \      nonzero, the packet MUST be discarded.\n\
    \      bfd.RemoteDiscr is set to the My Discriminator field.\n\
    \      bfd.RemoteSessionState is set to the Sta field.\n\
    \      bfd.RemoteDemandMode is set to the Demand bit.\n\
    \      bfd.RemoteMinRxInterval is set to the Required Min RX Interval\n\
    \      field.\n\
    \      If the Required Min Echo RX Interval field is zero, the local\n\
    \      system MUST cease the transmission of bfd echo packets.\n\
    \      If bfd.SessionState is AdminDown, the packet MUST be discarded.\n\
    \      If the Sta field is AdminDown and bfd.SessionState is not Down,\n\
    \      bfd.SessionState is set to Down.\n\
    \      If bfd.SessionState is Down and the Sta field is Down,\n\
    \      bfd.SessionState is set to Init.\n\
    \      If bfd.SessionState is Down and the Sta field is Init,\n\
    \      bfd.SessionState is set to Up.\n\
    \      If bfd.SessionState is Init and the Sta field is Init,\n\
    \      bfd.SessionState is set to Up.\n\
    \      If bfd.SessionState is Init and the Sta field is Up,\n\
    \      bfd.SessionState is set to Up.\n\
    \      If bfd.SessionState is Up and the Sta field is Down,\n\
    \      bfd.SessionState is set to Down.\n\
    \      If the Poll bit is nonzero, the local system MUST send a bfd\n\
    \      control packet to the remote system.";
  ]

(* 6.8.7 Transmitting BFD Control Packets: the transmission guards *)
let transmission_section =
  [
    "Transmitting BFD Control Packets";
    "";
    "   Procedure";
    "";
    "      If bfd.RemoteDiscr is zero, the local system MUST NOT send a bfd\n\
    \      control packet to the remote system.  If bfd.RemoteMinRxInterval\n\
    \      is zero, the local system MUST NOT send a bfd control packet to\n\
    \      the remote system.  The Your Discriminator field is set to\n\
    \      bfd.RemoteDiscr.  The My Discriminator field is set to\n\
    \      bfd.LocalDiscr.  The Detect Mult field is set to bfd.DetectMult.";
    "";
  ]

let state_management_section = "Reception of BFD Control Packets"
let state_management_band = (20, 25)

let make_text ~no_session_sentence ~demand_sentence =
  String.concat "\n"
    ([
       "Generic BFD Control Packet Format";
       "";
       diagram;
       "";
       state_management_section;
       "";
       "   Procedure";
       "";
     ]
    @ reception_common_prefix
    @ [ no_session_sentence ]
    @ reception_common_suffix
    @ [ demand_sentence; "" ]
    @ transmission_section)

let text =
  make_text
    ~no_session_sentence:
      "      If no session is found, the packet MUST be discarded."
    ~demand_sentence:
      "      If bfd.RemoteDemandMode is 1, bfd.SessionState is Up, and\n\
      \      bfd.RemoteSessionState is Up, Demand mode is active on the\n\
      \      remote system and the local system MUST cease the periodic\n\
      \      transmission of bfd control packets."

(* Table 5 rewrites: the co-reference in the no-session sentence made
   explicit, and the rephrasing fragment ("Demand mode is active on the
   remote system") removed. *)
let rewritten_text =
  make_text
    ~no_session_sentence:
      "      If the Your Discriminator field is nonzero and no session is\n\
      \      found, the packet MUST be discarded."
    ~demand_sentence:
      "      If bfd.RemoteDemandMode is 1, bfd.SessionState is Up, and\n\
      \      bfd.RemoteSessionState is Up, the local system MUST cease the\n\
      \      periodic transmission of bfd control packets."

let annotated_non_actionable = []
