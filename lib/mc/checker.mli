(** Bounded model checking of the election transition system.

    Two exploration modes share the interned state encoding of {!State}:

    {b Protocol mode} ({!check} / {!verify}) fixes a deterministic
    {!Machine.t}; the transition system is then a single chain of state
    vectors, walked without instantiating the protocol (the machine's pure
    [decide] is memoized per interned history key) and doubling as a
    concrete {!Radio_sim.Trace.t} — the counterexample format, replayable
    through {!Radio_sim.Engine} ({!replay}, [anorad check-trace]).
    {!verify} judges the terminal state against the classifier: a feasible
    configuration must elect exactly the canonical leader within the
    paper's [O(n^2 σ)] bound, an infeasible one must reach a terminal
    symmetric state in which no history class is decided.

    {b Universal mode} ({!explore}) fixes no machine: it branches over
    every subset of awake history classes transmitting (the model of
    {!Election.Optimal}), over-approximating all deterministic anonymous
    protocols at once, with messages carrying the sender's class key.
    Sequential frontier BFS with a hash-consed visited set, quotiented by the
    tag-preserving automorphism group ({!Election.Symmetry.automorphisms})
    when [reduction] is on.  States are merged across rounds only beyond
    the last wake-up tag, where the transition relation becomes
    round-invariant. *)

type budget =
  [ `Depth
  | `States
  ]

type stats = {
  states_explored : int;  (** canonical states inserted into the visited set *)
  states_raw : int;  (** successor states generated before dedup *)
  peak_frontier : int;
  depth_reached : int;  (** last round expanded *)
  distinct_keys : int;  (** interned history keys *)
  automorphisms : int;  (** group size used for the quotient (1 = none) *)
  canonicalizations : int;
      (** [State.canonicalize] calls — exactly [states_raw + 1] (one per
          raw successor plus the initial state) on runs that do not trip
          the state cap: the single-probe visited set never canonicalizes
          a state twice (protocol mode: 0) *)
  visited_bytes : int;
      (** visited-set footprint, offset table plus packed-code arena; the
          structure only grows, so the final value is the peak
          (protocol mode: 0) *)
}

type violation =
  | Two_leaders of int list  (** safety: more than one decided node *)
  | No_leader_on_feasible
  | Leader_on_infeasible of { leader : int }
  | Wrong_leader of { elected : int; canonical : int }
  | Liveness_bound_exceeded of { bound : int; completed : int }
      (** elected, but past [σ + upper_bound_rounds] global rounds *)

type verdict =
  | Elected of { leader : int; round : int }
      (** unique leader; [round] is the global completion round *)
  | Non_election of { classes : int list list }
      (** terminal state, every node terminated, no node decided; [classes]
          is the partition of nodes by final history — on infeasible
          configurations every class has [>= 2] members (the reachable
          symmetric state witnessing non-election) *)
  | Violated of violation
  | Exhausted of budget

type result = {
  config : Radio_config.Config.t;  (** normalized *)
  machine_name : string;
  verdict : verdict;
  trace : Radio_sim.Trace.t;
  rounds : int;  (** rounds simulated (= trace horizon) *)
  stats : stats;
}

val check :
  ?depth:int ->
  ?states:int ->
  machine:Machine.t ->
  Radio_config.Config.t ->
  result
(** Protocol-mode exploration, judging only machine-independent properties:
    {!Elected} / {!Non_election} at the terminal state, [Violated
    (Two_leaders _)] the moment a second node decides, {!Exhausted} when a
    budget trips.  [depth] defaults to [σ + upper_bound_rounds + 1] global
    rounds; [states] (default [200_000]) caps interned keys.  Raises
    [Invalid_argument] on the empty configuration. *)

val verify :
  ?depth:int ->
  ?states:int ->
  ?machine:Machine.t ->
  Radio_config.Config.t ->
  result
(** {!check} plus the classifier cross-judgement described above.  The
    canonical-leader equality is enforced for the drip machines only
    (dedicated machines like min-beacon legitimately elect a different
    node); [machine] defaults to {!Machine.drip}. *)

val global_bound : n:int -> sigma:int -> int
(** [σ + Canonical.upper_bound_rounds ~n ~sigma]: every node of a feasible
    configuration terminates by this global round under the canonical
    DRIP. *)

type replay = {
  outcome : Radio_sim.Engine.outcome;
  trace_matches : bool;
      (** the engine trace equals the checker trace bit-for-bit *)
  report : Radio_lint.Report.t;
      (** full {!Radio_lint.Invariants.validate} of the replay *)
}

val replay : ?max_rounds:int -> machine:Machine.t -> result -> replay
(** Replays the machine concretely through {!Radio_sim.Engine} on the
    result's configuration ([max_rounds] defaults to the rounds the checker
    simulated) and validates the outcome. *)

val trace_equal : Radio_sim.Trace.t -> Radio_sim.Trace.t -> bool
(** Structural equality of traces (explicit, no polymorphic compare). *)

type exploration = {
  config : Radio_config.Config.t;
  separated_at : int option;
      (** first round some reachable state holds a running node with a
          unique history — the precondition for any election ([None] on
          infeasible configurations, Lemma 3.16) *)
  exhausted : budget option;  (** [None]: the frontier emptied *)
  stats : stats;
}

val explore :
  ?depth:int ->
  ?states:int ->
  ?reduction:bool ->
  ?faults:int ->
  ?pool:Radio_exec.Pool.t ->
  ?progress:(round:int -> frontier:int -> explored:int -> bytes:int -> unit) ->
  Radio_config.Config.t ->
  exploration
(** Universal-mode frontier BFS ([depth] default [24], [states] default
    [2_000_000], [reduction] default on, [faults] default [0]).

    States live bit-packed ({!State.Packed}) in an open-addressing
    {!Visited} set — the GC never traces them — so the default cap is
    millions, not the old [200_000].  The frontier is a run of visited-set
    offsets, and each entry is expanded, canonicalized and packed in
    scratch arrays, so exploring allocates nothing per state.  Each level
    is walked in slices of 2048 entries; the state cap is checked before
    each slice, before each entry's successors are committed and before
    each insertion, and [progress] is called after each slice.

    [pool] is accepted for compatibility and ignored: exploration is
    sequential, and [separated_at], [exhausted] and every [stats] field
    are the same with or without one (docs/MODELCHECK.md says why the
    parallel path was removed).

    With [faults = 0] the quotient is provably the identity: nodes with
    equal histories act in lockstep, so every reachable state is invariant
    under every tag-preserving automorphism — the model checker's
    restatement of the paper's symmetry impossibility (tests assert the
    visited set is {e unchanged} by [reduction]).  Setting [faults = k]
    arms a crash adversary that may kill up to [k] awake nodes (one per
    round, after the round's exchanges; the victim's key is frozen and
    negated, as a terminated node's would be).  Crashes name concrete
    nodes, so they break lockstep: killing a node or its automorphic twin
    yields distinct automorphic sibling states, and the quotient collapses
    them — there the reduction demonstrably shrinks the visited set. *)

val pp_violation : Format.formatter -> violation -> unit
val violation_id : violation -> string
(** Stable SARIF rule id ([mc-two-leaders], [mc-no-leader], ...). *)

val pp_verdict : Format.formatter -> verdict -> unit
