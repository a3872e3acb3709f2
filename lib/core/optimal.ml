module C = Radio_config.Config
module H = Radio_drip.History

type outcome =
  | Broken_at of int
  | Never
  | Not_within_horizon
  | Search_budget_exhausted

let canonical_breaking_time ?(max_rounds = 1_000_000) config =
  let run = Classifier.classify config in
  let plan = Canonical.plan_of_run run in
  let o =
    Radio_sim.Engine.run ~max_rounds (Canonical.protocol plan) config
  in
  if not o.Radio_sim.Engine.all_terminated then None
  else begin
    let n = C.size config in
    let prefix v r =
      (* node v's history prefix at the end of global round r; None = ⊥ *)
      let wake = o.Radio_sim.Engine.wake_round.(v) in
      if wake < 0 || r < wake then None
      else
        let len =
          min (r - wake + 1) (Array.length o.Radio_sim.Engine.histories.(v))
        in
        Some (Array.sub o.Radio_sim.Engine.histories.(v) 0 len)
    in
    let sep_at r =
      let keys = Array.init n (fun v -> prefix v r) in
      let unique v =
        match keys.(v) with
        | None -> false
        | Some h ->
            let rec check w =
              w >= n
              || ((w = v
                  ||
                  match keys.(w) with
                  | None -> true
                  | Some h' -> not (H.equal h h'))
                 && check (w + 1))
            in
            check 0
      in
      let rec any v = v < n && (unique v || any (v + 1)) in
      any 0
    in
    let limit = Radio_sim.Engine.completion_round o in
    let rec find r = if r > limit then None else if sep_at r then Some r else find (r + 1) in
    find 0
  end
