module C = Radio_config.Config
module G = Radio_graph.Graph
module H = Radio_drip.History
module P = Radio_drip.Protocol
module FP = Fault_plan

type result = {
  histories : H.t array;
  wake_round : int array;
  forced : bool array;
  done_local : int array;
  all_terminated : bool;
  crashed_at : int array;
  departed_at : int array;
}

(* The immutable per-node view the specification folds over.  [events] is
   the reversed list of history entries including the wake-up entry. *)
type node = {
  id : int;
  instance : P.instance option;  (* None while asleep *)
  woke_at : int;
  was_forced : bool;
  finished : int;  (* done_v, -1 while running *)
  events : H.entry list;
  alarm : int;  (* global round of the spontaneous wake-up *)
  crashed : int;  (* crash round, -1 if never *)
  departed : int;  (* round of the pending leave, -1 while present *)
}

let asleep id alarm =
  {
    id;
    instance = None;
    woke_at = -1;
    was_forced = false;
    finished = -1;
    events = [];
    alarm;
    crashed = -1;
    departed = -1;
  }

let present node = node.crashed < 0 && node.departed < 0

type action_taken =
  | Inert  (* crashed or absent: takes no part in the round *)
  | Slept
  | Sent of string
  | Heard  (* listened; entry determined later *)
  | Stopped  (* terminated this round *)
  | Already_done

(* What each node does this round, by asking its instance. *)
let intent round node =
  if not (present node) then (node, Inert)
  else
    match node.instance with
    | None -> (node, Slept)
    | Some inst ->
        (* Any awake node woke in an earlier round's Phase C, so its local
           round here is [round - woke_at >= 1]. *)
        if node.finished >= 0 then (node, Already_done)
        else begin
          match inst.P.decide () with
          | P.Terminate ->
              ({ node with finished = round - node.woke_at }, Stopped)
          | P.Transmit m -> (node, Sent m)
          | P.Listen -> (node, Heard)
        end

let link u v = (min u v, max u v)

(* One topology event, against the undirected link list and the nodes. *)
let apply_event round (links, nodes) f =
  let update v change =
    List.map (fun node -> if node.id = v then change node else node) nodes
  in
  match f with
  | FP.Link_down { u; v; _ } ->
      (List.filter (fun l -> l <> link u v) links, nodes)
  | FP.Link_up { u; v; _ } ->
      if u = v || List.mem (link u v) links then (links, nodes)
      else (link u v :: links, nodes)
  | FP.Leave { node; _ } ->
      ( links,
        update node (fun x -> if present x then { x with departed = round } else x)
      )
  | FP.Join { node; tag; _ } ->
      ( links,
        update node (fun x ->
            if x.departed >= 0 then asleep node (max tag round) else x) )
  | FP.Retag { node; tag; _ } ->
      ( links,
        update node (fun x ->
            match x.instance with
            | None when present x -> { x with alarm = max tag round }
            | _ -> x) )
  | FP.Crash _ | FP.Drop _ | FP.Noise _ | FP.Jitter _ -> (links, nodes)

let run ?(max_rounds = 100_000) ?(plan = FP.empty) proto config =
  let n = C.size config in
  let topology = FP.topology_events plan in
  let rec loop round links nodes =
    let finished_everywhere =
      List.for_all (fun node -> node.finished >= 0 || not (present node)) nodes
    in
    if finished_everywhere || round >= max_rounds then (nodes, finished_everywhere)
    else begin
      (* Phase T: this round's topology events, in normalized order. *)
      let links, nodes =
        List.fold_left (apply_event round) (links, nodes)
          (List.filter
             (fun f ->
               match f with
               | FP.Link_down { round = r; _ }
               | FP.Link_up { round = r; _ }
               | FP.Leave { round = r; _ }
               | FP.Join { round = r; _ }
               | FP.Retag { round = r; _ } ->
                   r = round
               | FP.Crash _ | FP.Drop _ | FP.Noise _ | FP.Jitter _ -> false)
             topology)
      in
      (* Crash-stops: a present, running node whose earliest crash is now. *)
      let nodes =
        List.map
          (fun node ->
            if
              present node && node.finished < 0
              && FP.crash_round plan node.id = Some round
            then { node with crashed = round }
            else node)
          nodes
      in
      (* Phase A: each present awake node picks an action. *)
      let stepped = List.map (intent round) nodes in
      let nodes = List.map fst stepped in
      let intents = List.combine nodes (List.map snd stepped) in
      (* The messages [v] receives: transmitting link neighbours whose copy
         towards [v] is not dropped this round. *)
      let incoming v =
        List.filter_map
          (fun (other, a) ->
            match a with
            | Sent m
              when List.mem (link v other.id) links
                   && not (FP.dropped plan ~src:other.id ~dst:v ~round) ->
                Some m
            | _ -> None)
          intents
      in
      let noisy v = FP.noisy plan ~node:v ~round in
      (* Phase B: receptions. *)
      let nodes =
        List.map
          (fun (node, action) ->
            let observe e =
              (match node.instance with
              | Some inst -> inst.P.observe e
              (* radiolint: allow assert-false — Sent and Heard imply a
                 spawned instance (phase A only polls awake nodes). *)
              | None -> assert false);
              { node with events = e :: node.events }
            in
            match action with
            | Sent _ -> observe H.Silence
            | Heard ->
                if noisy node.id then observe H.Collision
                else (
                  match incoming node.id with
                  | [] -> observe H.Silence
                  | [ m ] -> observe (H.Message m)
                  | _ -> observe H.Collision)
            | Inert | Slept | Stopped | Already_done -> node)
          intents
      in
      (* Phase C: wake-ups; noise keeps a lone message from forcing one. *)
      let nodes =
        List.map2
          (fun node (_, action) ->
            match action with
            | Slept ->
                let wake entry forcedp =
                  let inst = proto.P.spawn () in
                  inst.P.on_wakeup entry;
                  {
                    node with
                    instance = Some inst;
                    woke_at = round;
                    was_forced = forcedp;
                    events = [ entry ];
                  }
                in
                (match incoming node.id with
                | [ m ] when not (noisy node.id) -> wake (H.Message m) true
                | _ when node.alarm = round -> wake H.Silence false
                | _ -> node)
            | Inert | Sent _ | Heard | Stopped | Already_done -> node)
          nodes intents
      in
      loop (round + 1) links nodes
    end
  in
  let alarm v = max 0 (C.tag config v + FP.jitter_of plan v) in
  let nodes, all_terminated =
    loop 0 (G.edges (C.graph config)) (List.init n (fun v -> asleep v (alarm v)))
  in
  let by_id = Array.make n (asleep 0 0) in
  List.iter (fun node -> by_id.(node.id) <- node) nodes;
  {
    histories = Array.map (fun node -> Array.of_list (List.rev node.events)) by_id;
    wake_round = Array.map (fun node -> node.woke_at) by_id;
    forced = Array.map (fun node -> node.was_forced) by_id;
    done_local = Array.map (fun node -> node.finished) by_id;
    all_terminated;
    crashed_at = Array.map (fun node -> node.crashed) by_id;
    departed_at = Array.map (fun node -> node.departed) by_id;
  }

let agrees_with_engine r (o : Engine.outcome) =
  Array.for_all2 H.equal r.histories o.Engine.histories
  && r.wake_round = o.Engine.wake_round
  && r.forced = o.Engine.forced
  && r.done_local = o.Engine.done_local
  && r.all_terminated = o.Engine.all_terminated
