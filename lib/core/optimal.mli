(** Outcomes of the optimal symmetry-breaking-time search, and the
    canonical DRIP's separation round to compare them with.  The search
    itself is [Radio_mc.Checker.breaking_time], which runs the universal
    model checker's kernel (it lives there because [radio_mc] depends on
    this library). *)

type outcome =
  | Broken_at of int  (** minimal symmetry-breaking global round *)
  | Never  (** the configuration is infeasible: symmetry never breaks *)
  | Not_within_horizon
  | Search_budget_exhausted

val canonical_breaking_time :
  ?max_rounds:int -> Radio_config.Config.t -> int option
(** For comparison: the round at which the {e canonical DRIP}'s execution
    first separates some node, measured in the simulator. *)
