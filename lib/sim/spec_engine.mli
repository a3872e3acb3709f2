(** An executable {e specification} of the radio model, independent of
    {!Engine}.

    This implementation is deliberately naive: it models the network as an
    immutable value, recomputes every round from scratch with folds over
    association lists, and derives node histories at the end from the global
    event log instead of accumulating them per node.  It shares no round
    bookkeeping with {!Engine} — only the [Protocol] instance interface and
    the {!Fault_plan} lookups.

    Under a fault plan it follows the semantics documented in
    {!Fault_plan} and {!Engine}, recomputed from the plan every round: at
    the top of round [r] the round's topology events (link down/up, leave,
    join, retag) apply in normalized order, then a present running node
    whose earliest crash is [r] stops for good; jitter shifts the initial
    alarms; a dropped copy is neither heard nor counted; noise makes a
    listener hear [Collision] and keeps a lone message from forcing a
    wake-up.  It keeps no ledger.

    Its only purpose is differential testing: the property suite runs both
    engines on random protocols, configurations and fault plans and
    requires identical histories, wake-ups, termination rounds, crashes and
    departures.  A disagreement means one of the two misreads the model;
    agreement on thousands of random executions is the strongest evidence
    the optimized engine implements Section 2 faithfully. *)

type result = {
  histories : Radio_drip.History.t array;
  wake_round : int array;
  forced : bool array;
  done_local : int array;  (** -1 if still running at the cutoff *)
  all_terminated : bool;  (** every present, non-crashed node terminated *)
  crashed_at : int array;  (** crash round per node, -1 if it never crashed *)
  departed_at : int array;
      (** round of the node's last un-rejoined leave, -1 if present *)
}

val run :
  ?max_rounds:int ->
  ?plan:Fault_plan.t ->
  Radio_drip.Protocol.t ->
  Radio_config.Config.t ->
  result
(** Same semantics as {!Engine.run} (default [max_rounds] 100_000, default
    [plan] {!Fault_plan.empty}). *)

val agrees_with_engine : result -> Engine.outcome -> bool
(** Field-by-field comparison against an {!Engine} outcome (crashes and
    departures are not part of it). *)
