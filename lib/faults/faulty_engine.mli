(** The fault-injecting radio engine: the faulted entry point of
    {!Radio_sim.Engine}, whose documentation states the fault semantics
    and the ledger.

    [run plan proto config] executes [proto] on [config] under the
    deviations described by [plan], with the {e identity law}: with
    {!Fault_plan.empty} the produced {!Radio_sim.Engine.outcome} is
    bit-for-bit what {!Radio_sim.Engine.run} produces — both are the same
    round loop. *)

type fired = Radio_sim.Engine.fired = {
  round : int;  (** global round in which the fault took effect *)
  fault : Fault_plan.fault;
  observed_by : int list;  (** nodes whose perception the fault altered *)
}

type outcome = Radio_sim.Engine.faulted = {
  base : Radio_sim.Engine.outcome;
  original : Radio_config.Config.t;  (** the configuration before jitter *)
  plan : Fault_plan.t;
  crashed_at : int array;
  departed_at : int array;
  ledger : fired list;  (** chronological *)
}
(** See {!Radio_sim.Engine.faulted}. *)

val run :
  ?max_rounds:int ->
  ?record_trace:bool ->
  Fault_plan.t ->
  Radio_drip.Protocol.t ->
  Radio_config.Config.t ->
  outcome
(** {!Radio_sim.Engine.run_faulted}: same defaults as
    {!Radio_sim.Engine.run} (100_000 rounds, no trace). *)

val surviving_winners :
  (Radio_drip.History.t -> bool) -> outcome -> int list
(** Terminated (hence complete-history) nodes whose final history satisfies
    the decision function.  Crashed and still-running nodes never qualify:
    their histories are prefixes the decision function may not accept. *)

val elected : (Radio_drip.History.t -> bool) -> outcome -> int option
(** [Some v] iff every surviving node terminated and [v] is the unique
    surviving winner. *)

val outcome_equal :
  Radio_sim.Engine.outcome -> Radio_sim.Engine.outcome -> bool
(** Field-by-field equality of engine outcomes (configurations compared
    with {!Radio_config.Config.equal}) — the predicate behind the identity
    law and the replay-determinism property tests. *)

val pp_ledger : Format.formatter -> fired list -> unit
