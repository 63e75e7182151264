(** Deterministic, seed-driven fault injection for the simulated wire.

    A {!t} models a lossy link as a composable list of probabilistic
    rules, each applied independently to every packet (and to every
    packet a previous rule produced, so a duplicate can itself be
    dropped).  All randomness comes from a splitmix64 stream seeded at
    {!create}: the same seed, plan and traffic yield a byte-for-byte
    identical delivery schedule, which is what makes failures
    reproducible. *)

type fault =
  | Drop              (** packet never arrives *)
  | Duplicate         (** packet arrives twice *)
  | Reorder           (** packet is withheld until the next reordered one *)
  | Delay of int      (** packet is released [n] ticks later *)
  | Corrupt of { offset : int; mask : int }
      (** XOR [mask] into the byte at [offset mod length] *)
  | Truncate of int   (** keep only the first [n] bytes *)

type rule = { probability : float; fault : fault }
type plan = rule list

type t

val create : ?plan:plan -> seed:int -> unit -> t
(** A fresh fault process.  The empty plan passes traffic through
    unchanged (but still advances the clock). *)

val transmit : t -> bytes -> bytes list
(** Advance the link clock by one tick and push one packet onto the
    wire.  The result is every packet {e exiting} the wire this tick, in
    order: first any previously delayed packets now due, then whatever
    survives of this packet (zero copies if dropped or withheld, two if
    duplicated, a mutated copy if corrupted or truncated). *)

val idle : t -> bytes list
(** Advance the link clock by one tick without injecting anything,
    returning any previously delayed packets now due.  Lets a sender
    that is currently silent (e.g. BFD with periodic transmission
    ceased) keep the wire's clock moving. *)

val flush : t -> bytes list
(** Release everything still in flight without advancing the clock,
    clearing the internal queues: delayed packets in due-tick order
    (FIFO within a tick), then the withheld (reordered) packet, if
    any. *)

val tick : t -> int
(** Number of [transmit] calls so far. *)

val plan : t -> plan

val set_plan : t -> plan -> unit
(** Replace the rule set mid-run {e without} touching the PRNG stream,
    the clock, or the in-flight queues.  This is how a chaos schedule
    swaps fault regimes at episode boundaries while the whole campaign
    stays a pure function of the one seed. *)

val in_flight : t -> int
(** Packets currently inside the wire: delayed ones not yet due plus a
    withheld (reordered) one, if any. *)

val set_observer : t -> (fault -> unit) -> unit
(** Install a callback invoked each time a rule {e fires} (i.e. its
    probability draw succeeds), with the fault applied.  Purely
    observational — it cannot change the packet stream and draws no
    randomness, so installing one never perturbs a seeded schedule.
    {!Network} uses it to emit fault events into a trace. *)

val fault_to_string : fault -> string
(** The plan-syntax spelling of one fault, e.g. ["delay:3"]. *)

val rule_to_string : rule -> string
(** Inverse of {!rule_of_string} (probability printed with [%g]). *)

val plan_of_string : string -> (plan, string) result
(** Parse the CLI plan syntax: comma-separated [kind[:args]@probability]
    rules, e.g. ["drop@0.1,dup@0.05,delay:3@0.2,corrupt:8:0x04@0.02,truncate:20@0.1,reorder@0.1"].
    Probabilities must be in [0, 1]. *)

val plan_to_string : plan -> string
(** Inverse of {!plan_of_string}. *)

