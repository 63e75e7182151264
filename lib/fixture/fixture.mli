(** The seeded fixtures: one planted defect per oracle, which the oracle
    must catch.  This table drives both the [--seeded NAME] option of
    every verb that takes one and the exit-code matrix in the test
    suite, so adding a fixture means one constructor here plus one
    matrix row.

    Each tamper function below changes one layer and is the identity
    for every fixture that does not touch that layer. *)

type t =
  | Bug  (** a constant checksum in one ICMP function; checksum oracle *)
  | Divergence
      (** the same constant on the compiled backend only;
          backend-agreement oracle *)
  | Violation
      (** the guarded discards of one BFD function deleted; requirement
          oracle *)
  | Wedge
      (** no recovery: BFD recovery transitions deleted from the IR
          (SA011) or restart handlers dead after a crash (chaos) *)
  | Regression  (** one bench sample 3x slower; the bench gate *)

val all : t list

val name : t -> string
(** The [--seeded] spelling: ["bug"], ["divergence"], ["violation"],
    ["wedge"], ["regression"]. *)

val verbs : t -> string list
(** The CLI verbs that accept the fixture: [fuzz] takes bug, divergence
    and violation, [analyze] and [chaos] take wedge, [bench] takes
    regression. *)

val doc : t -> string
(** Help text for the fixture (cmdliner markup). *)

val rewrite : t -> Sage_codegen.Ir.func list -> Sage_codegen.Ir.func list
(** The generated IR under the fixture, as both backends load it: bug,
    violation and wedge tamper it; divergence (see {!load}) and
    regression return it unchanged. *)

val load :
  t ->
  Sage_backend.Backend.choice ->
  layout:Sage_rfc.Header_diagram.t ->
  Sage_codegen.Ir.func ->
  Sage_backend.Backend.loaded
(** {!Sage_backend.Backend.load}, except under [Divergence] on the
    compiled backend: that side runs the [Bug] rewrite of the function,
    while [loaded.func] and the interpreter side stay as generated. *)

val arm : t -> Sage_chaos.Workload.t -> Sage_chaos.Workload.t
(** Under [Wedge], the workload's restart handler does nothing once it
    has crashed, so a schedule with a crash episode wedges it for good
    and one without is unaffected; the identity otherwise. *)

val slow :
  t ->
  (string * Sage_bench.History.sample) list ->
  (string * Sage_bench.History.sample) list
(** Under [Regression], one measured key — ["winnow"] when present,
    else the first — takes 3x its measured time; the identity
    otherwise. *)

val vacuous_ir : t -> Sage_codegen.Ir.func list -> string option
(** [Some need] when the fixture tampers generated IR (for
    [Divergence], the compiled side's) but changes none of these
    functions, so a run would pass vacuously; [need] names the corpus
    that holds its target.  [None] otherwise. *)

val vacuous_chaos : t -> Sage_chaos.Episode.schedule list -> string option
(** [Some need] when [arm] can change no run of these schedules — under
    [Wedge], none has a crash episode; [need] says what to select
    instead.  [None] otherwise. *)
