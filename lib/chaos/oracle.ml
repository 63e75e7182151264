(* Recovery oracles: what "the system healed" means, per protocol, each
   derived from a concrete RFC sentence (quoted in the mli).  An oracle
   is evaluated once, after the schedule's final heal window, over
   observations the workload gathered during that window. *)

type kind =
  | Ping_recovery
  | Traceroute_recovery
  | Bfd_reconvergence
  | Igmp_reconvergence
  | Ntp_reachability
  | Fsm_recovery
  | No_silent_wedge
  | Requirement of string

let kind_name = function
  | Ping_recovery -> "ping-recovery"
  | Traceroute_recovery -> "traceroute-recovery"
  | Bfd_reconvergence -> "bfd-reconvergence"
  | Igmp_reconvergence -> "igmp-reconvergence"
  | Ntp_reachability -> "ntp-reachability"
  | Fsm_recovery -> "fsm-recovery"
  | No_silent_wedge -> "no-silent-wedge"
  | Requirement id -> "requirement " ^ id

type violation = { kind : kind; detail : string }

let v kind fmt = Printf.ksprintf (fun detail -> { kind; detail }) fmt

(* How many post-heal ticks a workload gets to show its first sign of
   life (the wedge budget) and to fully reconverge (the recovery
   budget).  Generous relative to every protocol's own bound — BFD's
   detection time plus its 3-way handshake is the largest at
   detect_mult + a few ticks — so a violation means genuinely stuck, not
   merely slow. *)
let wedge_budget = 12
let recovery_budget = 12
