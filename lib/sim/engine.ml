module Config = Radio_config.Config
module G = Radio_graph.Graph
module History = Radio_drip.History
module Protocol = Radio_drip.Protocol

type outcome = {
  config : Config.t;
  histories : History.t array;
  wake_round : int array;
  forced : bool array;
  done_local : int array;
  all_terminated : bool;
  rounds : int;
  first_transmission : (int * int list) option;
  transmissions_by_node : int array;
  metrics : Metrics.t;
  trace : Trace.t;
}

exception Round_limit_exceeded of outcome

type fired = {
  round : int;
  fault : Fault_plan.fault;
  observed_by : int list;
}

type faulted = {
  base : outcome;
  original : Config.t;
  plan : Fault_plan.t;
  crashed_at : int array;
  departed_at : int array;
  ledger : fired list;
}

type node_state = {
  mutable instance : Protocol.instance option;  (* None while asleep *)
  mutable awake_at : int;  (* global wake round; -1 while asleep *)
  mutable was_forced : bool;
  mutable finished_at : int;  (* done_v; -1 while running *)
  hist : History.Vec.t;
}

let fresh_node () =
  {
    instance = None;
    awake_at = -1;
    was_forced = false;
    finished_at = -1;
    hist = History.Vec.create ();
  }

(* Whether this round's faults remove the copy [w -> v] from the air. *)
let rec dropped w v = function
  | Fault_plan.Drop d :: _ when d.src = w && d.dst = v -> true
  | _ :: rest -> dropped w v rest
  | [] -> false

let rec noisy v = function
  | Fault_plan.Noise x :: _ when x.node = v -> true
  | _ :: rest -> noisy v rest
  | [] -> false

let run_faulted ?(max_rounds = 100_000) ?(record_trace = false) plan proto
    original =
  let config = Fault_plan.apply_jitter plan original in
  let n = Config.size config in
  let faults = Fault_plan.normalize plan in
  (* Round-stamped faults by round, in normalized (= application) order;
     only a node's earliest crash is scheduled.  The empty plan never
     consults the table. *)
  let schedule = Hashtbl.create 8 in
  List.iter
    (fun f ->
      match (f, Fault_plan.round_of f) with
      | Fault_plan.Crash { node; round }, _
        when Fault_plan.crash_round faults node <> Some round ->
          ()
      | _, Some r ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt schedule r) in
          Hashtbl.replace schedule r (f :: prev)
      | _, None -> ())
    (List.rev faults);
  let due r =
    match faults with
    | [] -> []
    | _ -> Option.value ~default:[] (Hashtbl.find_opt schedule r)
  in
  (* Only crashes and leaves take nodes out of the run; without them the
     round loop skips the liveness loads. *)
  let stable =
    not
      (List.exists
         (function
           | Fault_plan.Crash _ | Fault_plan.Leave _ -> true | _ -> false)
         faults)
  in
  let crashed_at = Array.make n (-1) in
  let departed_at = Array.make n (-1) in
  let present v = crashed_at.(v) < 0 && departed_at.(v) < 0 in
  (* The air: each node's current link neighbours, edited by link flaps. *)
  let nbrs =
    Array.init n (fun v -> Array.of_list (G.neighbours (Config.graph config) v))
  in
  let linked u v = Array.mem v nbrs.(u) in
  let wake_tag = Array.init n (Config.tag config) in
  let metrics = Metrics.Acc.create () in
  let trace = Trace.Acc.create ~enabled:record_trace in
  let nodes = Array.init n (fun _ -> fresh_node ()) in
  let ledger = ref [] in
  let fire ~round fault observed_by =
    ledger := { round; fault; observed_by } :: !ledger
  in
  (* Jitter faults fire up-front: the clock already slipped before round 0. *)
  List.iter
    (function
      | Fault_plan.Jitter { node; _ } as j
        when node >= 0 && node < n
             && Config.tag config node <> Config.tag original node ->
          fire ~round:0 j [ node ]
      | _ -> ())
    faults;
  let remaining = ref n in
  let first_tx = ref None in
  let tx_by_node = Array.make n 0 in
  (* Per-round scratch: message transmitted by each node this round, if any. *)
  let tx_msg : string option array = Array.make n None in
  let wake st v ~round entry ~is_forced =
    let inst = proto.Protocol.spawn () in
    st.instance <- Some inst;
    st.awake_at <- round;
    st.was_forced <- is_forced;
    History.Vec.push st.hist entry;
    inst.Protocol.on_wakeup entry;
    if is_forced then begin
      Metrics.Acc.forced_wakeup metrics;
      (* radiolint: allow assert-false — a forced wake-up carries the lone
         audible transmitter's message by construction (§2.1). *)
      let m = match entry with History.Message m -> m | _ -> assert false in
      Trace.Acc.wake trace ~round v (Trace.Forced m)
    end
    else begin
      Metrics.Acc.spontaneous_wakeup metrics;
      Trace.Acc.wake trace ~round v Trace.Spontaneous
    end
  in
  (* [audible now v] counts the transmissions [v] receives this round — its
     link neighbours' messages minus the copies dropped towards it — and
     leaves the last one in [heard].  Transmitters are live by construction
     (phase A), so absent nodes never count. *)
  let heard = ref "" in
  let audible now v =
    let count = ref 0 and nb = nbrs.(v) in
    for i = 0 to Array.length nb - 1 do
      match tx_msg.(nb.(i)) with
      | Some m when not (dropped nb.(i) v now) ->
          incr count;
          heard := m
      | _ -> ()
    done;
    !count
  in
  (* Topology events take effect at the top of their round, in normalized
     order.  An event fires iff it changed the network state: flapping a
     link to the state it is already in, a leave/retag of a crashed or
     absent node, or a join of a present (or crashed — crashes are forever)
     node are inert and stay out of the ledger. *)
  let set_link u v up =
    let edit a x =
      if up then Array.append a [| x |]
      else Array.of_list (List.filter (fun w -> w <> x) (Array.to_list a))
    in
    nbrs.(u) <- edit nbrs.(u) v;
    nbrs.(v) <- edit nbrs.(v) u
  in
  let apply_topology r f =
    match f with
    | Fault_plan.Link_down { u; v; _ } ->
        if linked u v then begin
          set_link u v false;
          fire ~round:r f []
        end
    | Fault_plan.Link_up { u; v; _ } ->
        if u <> v && not (linked u v) then begin
          set_link u v true;
          fire ~round:r f []
        end
    | Fault_plan.Leave { node; _ } ->
        if node >= 0 && node < n && present node then begin
          departed_at.(node) <- r;
          let running = nodes.(node).finished_at < 0 in
          if running then decr remaining;
          fire ~round:r f (if running then [ node ] else [])
        end
    | Fault_plan.Join { node; tag; _ } ->
        if node >= 0 && node < n && departed_at.(node) >= 0 then begin
          (* A fresh incarnation: new instance-to-be, empty history, alarm
             at [max tag r] (a past alarm fires immediately). *)
          departed_at.(node) <- -1;
          nodes.(node) <- fresh_node ();
          wake_tag.(node) <- max tag r;
          incr remaining;
          fire ~round:r f [ node ]
        end
    | Fault_plan.Retag { node; tag; _ } -> (
        if node >= 0 && node < n && present node then
          match nodes.(node).instance with
          | None when max tag r <> wake_tag.(node) ->
              wake_tag.(node) <- max tag r;
              fire ~round:r f [ node ]
          | _ -> ())
    | Fault_plan.Crash _ | Fault_plan.Drop _ | Fault_plan.Noise _
    | Fault_plan.Jitter _ ->
        ()
  in
  (* Crash-stops of present, running nodes; crashes of already-terminated
     or absent nodes are no-ops. *)
  let apply_crash r f =
    match f with
    | Fault_plan.Crash { node; _ }
      when node >= 0 && node < n && present node
           && nodes.(node).finished_at < 0 ->
        crashed_at.(node) <- r;
        decr remaining;
        fire ~round:r f []
    | _ -> ()
  in
  (* Ledger: whether this round's drop or noise burst actually changed
     someone's execution. *)
  let observe_fault r now f =
    match f with
    | Fault_plan.Drop { src; dst; _ }
      when src >= 0 && src < n && dst >= 0 && dst < n
           && Option.is_some tx_msg.(src)
           && linked src dst && present dst
           && Option.is_none tx_msg.(dst) ->
        let st = nodes.(dst) in
        (* Post-drop audible count at dst; without this drop it would have
           been one higher. *)
        let count = audible now dst in
        let noisy_dst = noisy dst now in
        if st.instance <> None && st.awake_at < r && st.finished_at < 0 then begin
          (* Entry with the drop: count; without: count + 1. *)
          if (not noisy_dst) && count <= 1 then fire ~round:r f [ dst ]
        end
        else if (st.instance = None || st.awake_at = r) && not noisy_dst then
          (* dst was asleep at reception time (possibly woken this very
             round): the drop changed the wake-up iff it moved the audible
             count across the =1 boundary.  At 0 dst would have been
             force-woken and either stayed asleep or woke on its tag; at 1
             the drop un-hid a lone transmitter two would have cancelled. *)
          if count = 0 then
            fire ~round:r f (if wake_tag.(dst) = r then [ dst ] else [])
          else if count = 1 then fire ~round:r f [ dst ]
    | Fault_plan.Noise { node = v; _ }
      when v >= 0 && v < n && present v && Option.is_none tx_msg.(v) ->
        let st = nodes.(v) in
        let count = audible now v in
        if st.instance <> None && st.awake_at < r && st.finished_at < 0 then begin
          (* Listening node: heard Collision instead of count's entry. *)
          if count <= 1 then fire ~round:r f [ v ]
        end
        else if (st.instance = None || st.awake_at = r) && count = 1 then
          (* Asleep at reception time: a lone transmitter was masked. *)
          fire ~round:r f (if st.awake_at = r then [ v ] else [])
    | _ -> ()
  in
  let round = ref 0 in
  while !remaining > 0 && !round < max_rounds do
    let r = !round in
    let now = due r in
    (* Phase T and phase 0: topology events, then crash-stops, reshape the
       network before anyone acts. *)
    (match now with
    | [] -> ()
    | _ ->
        List.iter (apply_topology r) now;
        List.iter (apply_crash r) now);
    (* Phase A: decisions of live nodes already awake (woken before r). *)
    Array.fill tx_msg 0 n None;
    let transmitters = ref [] in
    for v = 0 to n - 1 do
      let st = nodes.(v) in
      match st.instance with
      | Some inst
        when st.finished_at < 0 && st.awake_at < r && (stable || present v) -> (
          match inst.Protocol.decide () with
          | Protocol.Terminate ->
              st.finished_at <- r - st.awake_at;
              decr remaining;
              Trace.Acc.terminate trace ~round:r v
          | Protocol.Transmit m ->
              tx_msg.(v) <- Some m;
              if Option.is_none !first_tx then
                transmitters := v :: !transmitters;
              tx_by_node.(v) <- tx_by_node.(v) + 1;
              Metrics.Acc.transmission metrics;
              Trace.Acc.transmit trace ~round:r v m
          | Protocol.Listen -> ())
      | _ -> ()
    done;
    (match !transmitters with
    | [] -> ()
    | ts -> first_tx := Some (r, List.sort compare ts));
    (* Phase B: receptions at live, awake, running nodes. *)
    for v = 0 to n - 1 do
      let st = nodes.(v) in
      match st.instance with
      | Some inst
        when st.finished_at < 0 && st.awake_at < r && (stable || present v) ->
          let entry =
            match tx_msg.(v) with
            | Some _ -> History.Silence (* transmitters hear nothing *)
            | None -> (
                let count = audible now v in
                if noisy v now then History.Collision
                else if count = 0 then History.Silence
                else if count = 1 then History.Message !heard
                else History.Collision)
          in
          (match entry with
          | History.Message _ -> Metrics.Acc.delivery metrics
          | History.Collision -> Metrics.Acc.collision_heard metrics
          | History.Silence -> ());
          History.Vec.push st.hist entry;
          inst.Protocol.observe entry
      | _ -> ()
    done;
    (* Phase C: wake-ups of live sleeping nodes, forced by a lone audible
       transmitter, else spontaneous when the alarm rings.  Noise corrupts
       collision detection, so a noisy sleeping node cannot be force-woken. *)
    for v = 0 to n - 1 do
      let st = nodes.(v) in
      match st.instance with
      | None when stable || present v ->
          if audible now v = 1 && not (noisy v now) then
            wake st v ~round:r (History.Message !heard) ~is_forced:true
          else if wake_tag.(v) = r then
            wake st v ~round:r History.Silence ~is_forced:false
      | _ -> ()
    done;
    (match now with [] -> () | _ -> List.iter (observe_fault r now) now);
    incr round
  done;
  Metrics.Acc.set_rounds metrics !round;
  let base =
    {
      config;
      histories = Array.map (fun st -> History.Vec.snapshot st.hist) nodes;
      wake_round = Array.map (fun st -> st.awake_at) nodes;
      forced = Array.map (fun st -> st.was_forced) nodes;
      done_local = Array.map (fun st -> st.finished_at) nodes;
      all_terminated = !remaining = 0;
      rounds = !round;
      first_transmission = !first_tx;
      transmissions_by_node = tx_by_node;
      metrics = Metrics.Acc.freeze metrics;
      trace = Trace.Acc.freeze trace;
    }
  in
  { base; original; plan; crashed_at; departed_at; ledger = List.rev !ledger }

let run ?max_rounds ?record_trace proto config =
  (run_faulted ?max_rounds ?record_trace Fault_plan.empty proto config).base

let run_exn ?max_rounds ?record_trace proto config =
  let o = run ?max_rounds ?record_trace proto config in
  if o.all_terminated then o else raise (Round_limit_exceeded o)

let global_done_round o v =
  if v < 0 || v >= Array.length o.done_local then
    invalid_arg "Engine.global_done_round: bad vertex";
  if o.done_local.(v) < 0 then
    invalid_arg "Engine.global_done_round: node has not terminated";
  o.wake_round.(v) + o.done_local.(v)

let completion_round o =
  let n = Array.length o.done_local in
  if n = 0 then 0
  else begin
    let best = ref 0 in
    for v = 0 to n - 1 do
      best := max !best (global_done_round o v)
    done;
    !best
  end
