module Config = Radio_config.Config
module History = Radio_drip.History
module Engine = Radio_sim.Engine

type fired = Engine.fired = {
  round : int;
  fault : Fault_plan.fault;
  observed_by : int list;
}

type outcome = Engine.faulted = {
  base : Engine.outcome;
  original : Config.t;
  plan : Fault_plan.t;
  crashed_at : int array;
  departed_at : int array;
  ledger : fired list;
}

let run = Engine.run_faulted

let surviving_winners decision o =
  let n = Array.length o.base.Engine.done_local in
  List.filter
    (fun v ->
      o.base.Engine.done_local.(v) >= 0 && decision o.base.Engine.histories.(v))
    (List.init n Fun.id)

let elected decision o =
  if not o.base.Engine.all_terminated then None
  else
    match surviving_winners decision o with [ v ] -> Some v | _ -> None

let outcome_equal (a : Engine.outcome) (b : Engine.outcome) =
  Config.equal a.Engine.config b.Engine.config
  && Array.length a.Engine.histories = Array.length b.Engine.histories
  && Array.for_all2 History.equal a.Engine.histories b.Engine.histories
  && a.Engine.wake_round = b.Engine.wake_round
  && a.Engine.forced = b.Engine.forced
  && a.Engine.done_local = b.Engine.done_local
  && a.Engine.all_terminated = b.Engine.all_terminated
  && a.Engine.rounds = b.Engine.rounds
  && a.Engine.first_transmission = b.Engine.first_transmission
  && a.Engine.transmissions_by_node = b.Engine.transmissions_by_node
  && a.Engine.metrics = b.Engine.metrics
  && a.Engine.trace = b.Engine.trace

let pp_fired ppf { round; fault; observed_by } =
  Format.fprintf ppf "round %4d  %a%s" round Fault_plan.pp_fault fault
    (match observed_by with
    | [] -> "  (unobserved)"
    | vs ->
        Printf.sprintf "  (observed by %s)"
          (String.concat ", " (List.map string_of_int vs)))

let pp_ledger ppf = function
  | [] -> Format.fprintf ppf "no faults fired"
  | events ->
      Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_fired ppf events
