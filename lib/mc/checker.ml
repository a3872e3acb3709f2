module C = Radio_config.Config
module G = Radio_graph.Graph
module Protocol = Radio_drip.Protocol
module Engine = Radio_sim.Engine
module Trace = Radio_sim.Trace
module Classifier = Election.Classifier
module Fast_classifier = Election.Fast_classifier
module Canonical = Election.Canonical
module Symmetry = Election.Symmetry

type budget =
  [ `Depth
  | `States
  ]

type stats = {
  states_explored : int;
  states_raw : int;
  peak_frontier : int;
  depth_reached : int;
  distinct_keys : int;
  automorphisms : int;
  canonicalizations : int;
  visited_bytes : int;
}

type violation =
  | Two_leaders of int list
  | No_leader_on_feasible
  | Leader_on_infeasible of { leader : int }
  | Wrong_leader of { elected : int; canonical : int }
  | Liveness_bound_exceeded of { bound : int; completed : int }

type verdict =
  | Elected of { leader : int; round : int }
  | Non_election of { classes : int list list }
  | Violated of violation
  | Exhausted of budget

type result = {
  config : C.t;
  machine_name : string;
  verdict : verdict;
  trace : Trace.t;
  rounds : int;
  stats : stats;
}

let normalize config =
  if C.is_normalized config then config
  else C.create (C.graph config) (C.tags config)

let global_bound ~n ~sigma = sigma + Canonical.upper_bound_rounds ~n ~sigma

let senders_of g tx v =
  G.fold_neighbours g v ~init:[] ~f:(fun acc w ->
      match tx.(w) with Some m -> m :: acc | None -> acc)

(* Protocol mode: the machine is deterministic, so the transition system is
   a single chain of interned state vectors; walking it is still a static
   exploration (per-key memoized [decide], no Protocol instances live
   across rounds), and the visited chain doubles as the concrete trace. *)
let check ?depth ?(states = 200_000) ~machine config =
  let config = normalize config in
  let g = C.graph config in
  let n = C.size config in
  if n = 0 then invalid_arg "Checker.check: empty configuration";
  let sigma = C.span config in
  let depth =
    match depth with Some d -> d | None -> global_bound ~n ~sigma + 1
  in
  let intern = State.Intern.create () in
  let decide_cache : (int, Protocol.action) Hashtbl.t = Hashtbl.create 256 in
  let decide k =
    match Hashtbl.find_opt decide_cache k with
    | Some a -> a
    | None ->
        let a = machine.Machine.decide (State.Intern.history intern k) in
        Hashtbl.replace decide_cache k a;
        a
  in
  let decision k = machine.Machine.decision (State.Intern.history intern k) in
  let state = ref (State.initial n) in
  let leaders = ref [] in
  let rev_trace = ref [] in
  let last_term_round = ref 0 in
  let rounds = ref 0 in
  let verdict = ref None in
  let r = ref 0 in
  while Option.is_none !verdict do
    if State.all_terminated !state then
      verdict :=
        Some
          (match !leaders with
          | [ l ] -> Elected { leader = l; round = !last_term_round }
          | [] -> Non_election { classes = State.classes !state }
          | ls -> Violated (Two_leaders (List.sort Int.compare ls)))
    else if !r >= depth then verdict := Some (Exhausted `Depth)
    else if State.Intern.size intern > states then
      verdict := Some (Exhausted `States)
    else begin
      let cur = !state in
      let next = Array.copy cur in
      let tx : string option array = Array.make n None in
      let transmitters = ref [] in
      let terminated = ref [] in
      let woken = ref [] in
      (* Phase A: decisions of running nodes (all woke before round r:
         Phase C below wakes into [next], never into [cur]). *)
      for v = n - 1 downto 0 do
        if cur.(v) > 0 then
          match decide cur.(v) with
          | Protocol.Terminate ->
              next.(v) <- -cur.(v);
              terminated := v :: !terminated;
              if decision cur.(v) then leaders := v :: !leaders
          | Protocol.Transmit m ->
              tx.(v) <- Some m;
              transmitters := (v, m) :: !transmitters
          | Protocol.Listen -> ()
      done;
      (* Phase B: receptions at nodes still running after Phase A. *)
      for v = 0 to n - 1 do
        if cur.(v) > 0 && next.(v) > 0 then begin
          let event =
            match tx.(v) with
            | Some _ -> State.E_silence (* transmitters hear nothing *)
            | None -> (
                match senders_of g tx v with
                | [] -> State.E_silence
                | [ m ] -> State.E_message m
                | _ -> State.E_collision)
          in
          next.(v) <- State.Intern.get intern cur.(v) event
        end
      done;
      (* Phase C: wake-ups of sleeping nodes. *)
      for v = n - 1 downto 0 do
        if cur.(v) = 0 then begin
          match senders_of g tx v with
          | [ m ] ->
              next.(v) <- State.Intern.get intern 0 (State.E_message m);
              woken := (v, Trace.Forced m) :: !woken
          | _ ->
              if C.tag config v = !r then begin
                next.(v) <- State.Intern.get intern 0 State.E_silence;
                woken := (v, Trace.Spontaneous) :: !woken
              end
        end
      done;
      (match !terminated with [] -> () | _ -> last_term_round := !r);
      (match (!transmitters, !woken, !terminated) with
      | [], [], [] -> () (* quiet round: omitted, as in Trace.Acc *)
      | _ ->
          rev_trace :=
            {
              Trace.round = !r;
              transmitters = !transmitters;
              woken = !woken;
              terminated = !terminated;
            }
            :: !rev_trace);
      (match !leaders with
      | _ :: _ :: _ ->
          verdict :=
            Some (Violated (Two_leaders (List.sort Int.compare !leaders)))
      | _ -> ());
      state := next;
      incr r;
      rounds := !r
    end
  done;
  let verdict =
    (* radiolint: allow assert-false — the loop only exits once the
       verdict reference is filled. *)
    match !verdict with Some v -> v | None -> assert false
  in
  {
    config;
    machine_name = machine.Machine.name;
    verdict;
    trace = List.rev !rev_trace;
    rounds = !rounds;
    stats =
      {
        states_explored = !rounds + 1;
        states_raw = !rounds + 1;
        peak_frontier = 1;
        depth_reached = !rounds;
        distinct_keys = State.Intern.size intern;
        automorphisms = 1;
        canonicalizations = 0;
        visited_bytes = 0;
      };
  }

let drip_family name =
  String.equal name "drip" || String.equal name "pure-drip"

let verify ?depth ?states ?machine config =
  let config = normalize config in
  let machine =
    match machine with Some m -> m | None -> Machine.drip config
  in
  let res = check ?depth ?states ~machine config in
  let run = Fast_classifier.classify config in
  let n = C.size config in
  let sigma = C.span config in
  let bound = global_bound ~n ~sigma in
  let verdict =
    match res.verdict with
    | Elected { leader; round } -> (
        match Classifier.canonical_leader run with
        | None -> Violated (Leader_on_infeasible { leader })
        | Some canonical
          when drip_family res.machine_name && canonical <> leader ->
            Violated (Wrong_leader { elected = leader; canonical })
        | Some _ when round > bound ->
            Violated (Liveness_bound_exceeded { bound; completed = round })
        | Some _ -> res.verdict)
    | Non_election _ ->
        if Classifier.is_feasible run then Violated No_leader_on_feasible
        else res.verdict
    | Violated _ | Exhausted _ -> res.verdict
  in
  { res with verdict }

type replay = {
  outcome : Engine.outcome;
  trace_matches : bool;
  report : Radio_lint.Report.t;
}

let equal_wake_kind k1 k2 =
  match (k1, k2) with
  | Trace.Spontaneous, Trace.Spontaneous -> true
  | Trace.Forced m1, Trace.Forced m2 -> String.equal m1 m2
  | Trace.Spontaneous, _ | Trace.Forced _, _ -> false

let equal_round_events (e1 : Trace.round_events) (e2 : Trace.round_events) =
  e1.Trace.round = e2.Trace.round
  && List.equal
       (fun (v1, m1) (v2, m2) -> v1 = v2 && String.equal m1 m2)
       e1.Trace.transmitters e2.Trace.transmitters
  && List.equal
       (fun (v1, k1) (v2, k2) -> v1 = v2 && equal_wake_kind k1 k2)
       e1.Trace.woken e2.Trace.woken
  && List.equal Int.equal e1.Trace.terminated e2.Trace.terminated

let trace_equal t1 t2 = List.equal equal_round_events t1 t2

let replay ?max_rounds ~machine res =
  let max_rounds =
    match max_rounds with
    | Some m -> m
    | None -> (match res.rounds with 0 -> 1 | r -> r)
  in
  let outcome =
    Engine.run ~max_rounds ~record_trace:true machine.Machine.protocol
      res.config
  in
  {
    outcome;
    trace_matches = trace_equal res.trace outcome.Engine.trace;
    report =
      Radio_lint.Invariants.validate ~protocol:machine.Machine.protocol
        outcome;
  }

(* Universal mode: explore every deterministic protocol at once, branching
   over the subsets of awake history classes that transmit; messages carry
   the sender's class key, the strongest content an anonymous DRIP can
   convey.  There is no termination action here — the mode answers
   reachability questions (when can some node's history separate?, which
   [breaking_time] minimizes) and carries the symmetry-reduction
   machinery. *)
type exploration = {
  config : C.t;
  separated_at : int option;
  exhausted : budget option;
  stats : stats;
}

(* Some running node's key is held by no other node (running or not). *)
let separated (s : State.t) =
  let n = Array.length s in
  let found = ref false in
  let v = ref 0 in
  while (not !found) && !v < n do
    let k = s.(!v) in
    if k > 0 then begin
      let w = ref 0 in
      while !w < n && (!w = !v || abs s.(!w) <> k) do
        incr w
      done;
      if !w = n then found := true
    end;
    incr v
  done;
  !found

(* History keys of the universal explorer: an open-addressing table from
   [(parent key, event code)] to a dense key handed out from 1 in
   first-seen order.  Event codes: 0 silence, 1 noise, [m + 2] the message
   [m] — universal-mode messages are always the sender's class key, so an
   int names every event.  Keys are compared as two ints in unboxed
   arrays: a lookup allocates nothing. *)
module Keys = struct
  type t = {
    mutable table : int array;  (* key; 0 = empty *)
    mutable mask : int;  (* capacity - 1, capacity a power of two *)
    mutable parents : int array;  (* index key - 1 *)
    mutable codes : int array;  (* index key - 1 *)
    mutable count : int;
  }

  let create () =
    {
      table = Array.make 1024 0;
      mask = 1023;
      parents = Array.make 512 0;
      codes = Array.make 512 0;
      count = 0;
    }

  let hash parent code =
    (* radiolint: allow range-overflow -- multiplicative mixing wraps by
       design *)
    let h = (parent * 0x1e3779b97f4a7c15) + code in
    h lxor (h lsr 29)

  let place table mask key parent code =
    let i = ref (hash parent code land mask) in
    while table.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    table.(!i) <- key

  let grow t =
    (* radiolint: allow range-overflow -- table doubling, bounded by
       allocatable memory *)
    let capacity = 2 * (t.mask + 1) in
    let table = Array.make capacity 0 in
    for k = 1 to t.count do
      place table (capacity - 1) k t.parents.(k - 1) t.codes.(k - 1)
    done;
    t.table <- table;
    t.mask <- capacity - 1;
    let parents = Array.make (capacity / 2) 0 in
    let codes = Array.make (capacity / 2) 0 in
    Array.blit t.parents 0 parents 0 t.count;
    Array.blit t.codes 0 codes 0 t.count;
    t.parents <- parents;
    t.codes <- codes

  let get t parent code =
    let i = ref (hash parent code land t.mask) in
    let key = ref 0 in
    while !key = 0 do
      match t.table.(!i) with
      | 0 ->
          let k = t.count + 1 in
          t.parents.(k - 1) <- parent;
          t.codes.(k - 1) <- code;
          t.table.(!i) <- k;
          t.count <- k;
          key := k;
          (* Load factor 1/2; [parents] and [codes] hold half the table's
             capacity, so they grow in the same step. *)
          if 2 * k >= t.mask + 1 then grow t
      | k when t.parents.(k - 1) = parent && t.codes.(k - 1) = code ->
          key := k
      | _ -> i := (!i + 1) land t.mask
    done;
    !key

  let size t = t.count
end

(* Each BFS level is expanded in slices of this many frontier entries,
   with the state cap checked and progress reported between slices.  The
   slices bound how far past the cap a level keeps generating (and
   interning) successors, so [distinct_keys] on a cap trip depends on this
   constant. *)
let wave_entries = 2_048

(* Transmitting subsets are bitmasks over a state's distinct awake keys,
   so a state with more keys than this has more successors than any state
   cap and is recorded as a cap trip instead of expanded. *)
let max_mask_keys = 62

(* The universal-mode kernel behind [explore] and [breaking_time], on a
   normalized [config] quotiented by [autos] (its automorphisms, or [] for
   no reduction); with [until_separated] it stops after the first level
   that separates. *)
let search ~until_separated ~depth ~states ~autos ~faults ?progress config =
  let g = C.graph config in
  let n = C.size config in
  let group = State.group autos in
  let tags = C.tags config in
  let max_tag = Array.fold_left Int.max 0 tags in
  (* Spontaneous wake-ups are spent after [max_tag]: beyond it the
     transition relation is round-invariant and states may be merged
     across rounds. *)
  let round_class r = if r > max_tag then max_tag + 1 else r in
  let nbrs = Array.init n (fun v -> Array.of_list (G.neighbours g v)) in
  let keys = Keys.create () in
  let visited = Visited.create ~slots:n () in
  let raw = ref 0 in
  let canonicalizations = ref 0 in
  let peak = ref 0 in
  let depth_seen = ref 0 in
  let separated_at = ref None in
  let exhausted = ref None in
  (* Scratch, reused for every state: the entry being expanded, the
     successor being built, its canonical form, each node's transmission
     (its key, 0 = silent), the sorted distinct awake keys and, per awake
     node, its key's bit in the transmitting-subset mask. *)
  let cur = Array.make n 0 in
  let succ = Array.make n 0 in
  let canon = Array.make n 0 in
  let tx = Array.make n 0 in
  let awake_keys = Array.make n 0 in
  let bit = Array.make n 0 in
  (* The frontier is a run of visited-set offsets: entries are unpacked
     into [cur] only when expanded.  [next] collects the level after. *)
  let frontier = ref (Array.make 1024 0) in
  let next = ref (Array.make 1024 0) in
  let next_len = ref 0 in
  let push off =
    if !next_len = Array.length !next then begin
      (* radiolint: allow range-overflow -- frontier doubling, bounded by
         the visited set's entry count *)
      let a = Array.make (2 * !next_len) 0 in
      Array.blit !next 0 a 0 !next_len;
      next := a
    end;
    !next.(!next_len) <- off;
    incr next_len
  in
  (* Frontier entries carry the crash budget already spent: two states
     that agree node-wise but differ in remaining faults have different
     futures.  One canonicalization and one visited-set probe per
     successor. *)
  let visit ~round ~spent s =
    if Visited.size visited >= states then
      (* Enforced per insertion, not per BFS level: one wide level could
         otherwise overshoot the budget by orders of magnitude. *)
      exhausted := Some `States
    else begin
      State.canonicalize group s ~into:canon;
      incr canonicalizations;
      let off =
        Visited.add visited ~round_class:(round_class round) ~spent canon
      in
      if off >= 0 then push off
    end
  in
  (* One successor of round [round], built in [succ]: raw count,
     separation check at this round, visited insertion at the next. *)
  let commit round spent =
    incr raw;
    if Option.is_none !separated_at && separated succ then
      separated_at := Some round;
    visit ~round:(round + 1) ~spent succ
  in
  (* What node [v] hears given [tx]: the event code of its reception. *)
  let heard v =
    let a = nbrs.(v) in
    let senders = ref 0 in
    let msg = ref 0 in
    for i = 0 to Array.length a - 1 do
      let m = tx.(a.(i)) in
      if m <> 0 then begin
        incr senders;
        msg := m
      end
    done;
    match !senders with 0 -> 0 | 1 -> !msg + 2 | _ -> 1
  in
  (* All successors of [cur], in deterministic order: per transmitting
     subset the base successor, then (with crash budget left) one crash
     variant per awake node, ascending.  Subsets are bitmasks over the
     sorted distinct awake keys, counted up from the empty set with the
     last key as the low bit.  An entry reached past the state cap is
     still expanded — its keys are interned — but commits nothing; an
     entry with more than [max_mask_keys] distinct awake keys is a cap trip
     and is not expanded. *)
  let expand round spent ~live =
    let d = ref 0 in
    for v = 0 to n - 1 do
      let k = cur.(v) in
      if k > 0 then begin
        let j = ref 0 in
        while !j < !d && awake_keys.(!j) < k do
          incr j
        done;
        if !j = !d || awake_keys.(!j) <> k then begin
          for i = !d downto !j + 1 do
            awake_keys.(i) <- awake_keys.(i - 1)
          done;
          awake_keys.(!j) <- k;
          incr d
        end
      end
    done;
    if !d > max_mask_keys then exhausted := Some `States
    else begin
      for v = 0 to n - 1 do
        let k = cur.(v) in
        if k > 0 then begin
          let j = ref 0 in
          while awake_keys.(!j) <> k do
            incr j
          done;
          (* radiolint: allow range-overflow -- d <= max_mask_keys = 62
             (checked above), so the bit fits *)
          bit.(v) <- 1 lsl (!d - 1 - !j)
        end
      done;
      (* radiolint: allow range-overflow -- d <= max_mask_keys = 62 *)
      for mask = 0 to (1 lsl !d) - 1 do
        for v = 0 to n - 1 do
          tx.(v) <-
            (if cur.(v) > 0 && mask land bit.(v) <> 0 then cur.(v) else 0)
        done;
        for v = 0 to n - 1 do
          let k = cur.(v) in
          if k > 0 then
            (* transmitters hear nothing *)
            succ.(v) <- Keys.get keys k (if tx.(v) <> 0 then 0 else heard v)
          else if k < 0 then succ.(v) <- k (* crashed: frozen *)
          else
            let code = heard v in
            succ.(v) <-
              (if code >= 2 then Keys.get keys 0 code
               else if tags.(v) = round then Keys.get keys 0 0
               else 0)
        done;
        if live then begin
          commit round spent;
          (* Crash adversary: after the round's exchanges, any single awake
             node may die (key frozen, negated).  Crashing automorphic
             twins yields automorphic sibling states — the case the
             symmetry quotient collapses. *)
          if spent < faults then
            for v = 0 to n - 1 do
              let k = succ.(v) in
              if k > 0 then begin
                succ.(v) <- -k;
                commit round (spent + 1);
                succ.(v) <- k
              end
            done
        end
      done
    end
  in
  let report round flen =
    match progress with
    | None -> ()
    | Some f ->
        f ~round ~frontier:flen ~explored:(Visited.size visited)
          ~bytes:(Visited.memory_bytes visited)
  in
  let rec level round flen =
    if flen = 0 then ()
    else if round >= depth then exhausted := Some `Depth
    else begin
      depth_seen := round;
      if flen > !peak then peak := flen;
      let entries = !next in
      next := !frontier;
      frontier := entries;
      next_len := 0;
      let pos = ref 0 in
      while !pos < flen do
        if Visited.size visited >= states then begin
          (* Every remaining entry would be skipped by the per-entry cap
             check; record the trip without generating their
             successors. *)
          exhausted := Some `States;
          pos := flen
        end
        else begin
          let stop = Int.min (!pos + wave_entries) flen in
          for i = !pos to stop - 1 do
            let spent = Visited.read visited entries.(i) ~into:cur in
            let live = Visited.size visited < states in
            if not live then exhausted := Some `States;
            expand round spent ~live
          done;
          pos := stop;
          report round flen
        end
      done;
      if not (until_separated && Option.is_some !separated_at) then
        level (round + 1) !next_len
    end
  in
  visit ~round:0 ~spent:0 (State.initial n);
  level 0 !next_len;
  {
    config;
    separated_at = !separated_at;
    exhausted = !exhausted;
    stats =
      {
        states_explored = Visited.size visited;
        states_raw = !raw;
        peak_frontier = !peak;
        depth_reached = !depth_seen;
        distinct_keys = Keys.size keys;
        automorphisms = (match autos with [] -> 1 | l -> List.length l);
        canonicalizations = !canonicalizations;
        visited_bytes = Visited.memory_bytes visited;
      };
  }

let explore ?(depth = 24) ?(states = 2_000_000) ?(reduction = true)
    ?(faults = 0) ?pool:_ ?progress config =
  let config = normalize config in
  if C.size config = 0 then invalid_arg "Checker.explore: empty configuration";
  let autos = if reduction then Symmetry.automorphisms config else [] in
  search ~until_separated:false ~depth ~states ~autos ~faults ?progress config

let breaking_time ?(horizon = 24) ?(max_states = 200_000) config =
  let config = normalize config in
  if C.size config = 0 then
    invalid_arg "Checker.breaking_time: empty configuration";
  (* Infeasible configurations never separate (Lemma 3.16): skip the
     search, which would otherwise chase growing histories forever. *)
  if not (Classifier.is_feasible (Fast_classifier.classify config)) then
    Election.Optimal.Never
  else
    let e =
      search ~until_separated:true ~depth:(horizon + 1) ~states:max_states
        ~autos:[] ~faults:0 config
    in
    match (e.separated_at, e.exhausted) with
    | Some r, _ -> Election.Optimal.Broken_at r
    | None, Some `States -> Election.Optimal.Search_budget_exhausted
    | None, (Some `Depth | None) -> Election.Optimal.Not_within_horizon

let pp_violation ppf = function
  | Two_leaders vs ->
      Format.fprintf ppf "two leaders elected: nodes %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Format.pp_print_int)
        vs
  | No_leader_on_feasible ->
      Format.pp_print_string ppf
        "no leader elected on a classifier-feasible configuration"
  | Leader_on_infeasible { leader } ->
      Format.fprintf ppf
        "node %d elected on a classifier-infeasible configuration" leader
  | Wrong_leader { elected; canonical } ->
      Format.fprintf ppf "node %d elected but the canonical leader is %d"
        elected canonical
  | Liveness_bound_exceeded { bound; completed } ->
      Format.fprintf ppf
        "election completed in round %d, past the O(n^2 sigma) bound %d"
        completed bound

let violation_id = function
  | Two_leaders _ -> "mc-two-leaders"
  | No_leader_on_feasible -> "mc-no-leader"
  | Leader_on_infeasible _ -> "mc-leader-on-infeasible"
  | Wrong_leader _ -> "mc-wrong-leader"
  | Liveness_bound_exceeded _ -> "mc-liveness-bound"

let pp_verdict ppf = function
  | Elected { leader; round } ->
      Format.fprintf ppf "elected node %d in round %d" leader round
  | Non_election { classes } ->
      Format.fprintf ppf
        "non-election: terminal symmetric state with classes %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
           (fun ppf cls ->
             Format.fprintf ppf "{%a}"
               (Format.pp_print_list
                  ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
                  Format.pp_print_int)
               cls))
        classes
  | Violated v -> Format.fprintf ppf "VIOLATION: %a" pp_violation v
  | Exhausted `Depth -> Format.pp_print_string ppf "depth budget exhausted"
  | Exhausted `States -> Format.pp_print_string ppf "state budget exhausted"
