(** Re-export of {!Radio_sim.Fault_plan}, the plan type the engine runs. *)

include module type of struct
  include Radio_sim.Fault_plan
end
