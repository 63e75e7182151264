(** Single fuzz execution: candidate packet -> one run of a loaded
    execution backend over the generated IR, with a seeded environment
    captured up front so shrinking (and differential re-execution on
    the alternate backend) replays the identical run. *)

type env = {
  params : (string * Sage_interp.Runtime.value) list;
  state : (string * int64) list;
  ttl : int;
}
(** Everything outside the packet a generated function may read. *)

val env_of : Rng.t -> env
(** Draw an environment: fixed addresses/clock, varied protocol state
    and event flags, boundary TTLs.  Its parameters, with the
    [payload_length] of {!backend_env}, are exactly
    {!Sage_codegen.Ir.harness_params}, which SA007 assumes bound. *)

val local_discr : int64
(** The BFD local discriminator installed in [bfd.LocalDiscr] (1, a
    boundary-biased generator value, so session lookup can succeed). *)

val backend_env :
  env:env -> Sage_backend.Backend.loaded -> bytes -> Sage_backend.Backend.env
(** The captured environment lowered to the backend contract for this
    function and packet (payload_length included, request header
    attached for receivers). *)

val exec :
  ?coverage:Sage_interp.Coverage.t ->
  ?trace:Sage_trace.Trace.t ->
  env:env ->
  Sage_backend.Backend.loaded ->
  bytes ->
  (Sage_backend.Backend.outcome, string) result
(** [Error _] = structural reject (packet shorter than the layout's
    fixed header); [Ok outcome] otherwise, with any runtime error
    captured in [outcome.error]. *)
