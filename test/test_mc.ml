(* The bounded model checker (lib/mc): differential agreement with the
   classifier over the exhaustive small-configuration universe, bit-for-bit
   counterexample replay through the engine, mutant detection, and the
   symmetry-reduction quotient. *)

module C = Radio_config.Config
module F = Radio_config.Families
module G = Radio_graph.Graph
module Cl = Election.Classifier
module Fast = Election.Fast_classifier
module Sym = Election.Symmetry
module Lint = Radio_lint.Invariants
module State = Radio_mc.State
module Machine = Radio_mc.Machine
module Checker = Radio_mc.Checker
module Mutant = Radio_mc.Mutant
module Oracle = Radio_mc.Oracle

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let uniform_cycle n = C.uniform (Radio_graph.Gen.cycle n) 0

let canonicalize autos s =
  let into = Array.make (Array.length s) 0 in
  State.canonicalize (State.group autos) s ~into;
  into

(* --- State encoding ------------------------------------------------- *)

let state_tests =
  [
    Alcotest.test_case "interner is a hash-cons" `Quick (fun () ->
        let i = State.Intern.create () in
        let k1 = State.Intern.get i 0 State.E_silence in
        let k2 = State.Intern.get i 0 State.E_silence in
        let k3 = State.Intern.get i k1 (State.E_message "1") in
        let k4 = State.Intern.get i k1 (State.E_message "1") in
        let k5 = State.Intern.get i k1 (State.E_message "2") in
        check_int "same pair same key" k1 k2;
        check_int "same message same key" k3 k4;
        check "distinct message distinct key" true (k4 <> k5);
        check_int "three keys interned" 3 (State.Intern.size i));
    Alcotest.test_case "history materialization" `Quick (fun () ->
        let i = State.Intern.create () in
        let k1 = State.Intern.get i 0 (State.E_message "m") in
        let k2 = State.Intern.get i k1 State.E_collision in
        let k3 = State.Intern.get i k2 State.E_silence in
        let h = State.Intern.history i k3 in
        check_int "depth" 3 (State.Intern.depth i k3);
        check "entries" true
          (Radio_drip.History.equal h
             [|
               Radio_drip.History.Message "m";
               Radio_drip.History.Collision;
               Radio_drip.History.Silence;
             |]));
    Alcotest.test_case "canonicalize picks the orbit minimum" `Quick
      (fun () ->
        let config = uniform_cycle 4 in
        let autos = Sym.automorphisms config in
        check_int "C4 has the dihedral group" 8 (List.length autos);
        let s = [| 3; 1; 1; 1 |] in
        let canon = canonicalize autos s in
        check "canonical is minimal" true
          (State.equal canon [| 1; 1; 1; 3 |]);
        (* every permuted variant canonicalizes identically *)
        List.iter
          (fun phi ->
            check "orbit collapses" true
              (State.equal canon
                 (canonicalize autos (State.permute phi s))))
          autos);
    Alcotest.test_case "encode separates round classes" `Quick (fun () ->
        let s = [| 1; 0 |] in
        check "same state, different round class" true
          (State.encode ~round_class:0 s <> State.encode ~round_class:1 s);
        check "same round class" true
          (String.equal
             (State.encode ~round_class:2 s)
             (State.encode ~round_class:2 [| 1; 0 |])));
  ]

(* --- Automorphism groups -------------------------------------------- *)

let symmetry_tests =
  [
    Alcotest.test_case "asymmetric config has only the identity" `Quick
      (fun () ->
        let autos = Sym.automorphisms (F.h_family 2) in
        check_int "trivial group" 1 (List.length autos);
        check "identity" true
          (match autos with
          | [ phi ] -> Array.for_all (fun v -> phi.(v) = v) (Array.mapi (fun i _ -> i) phi)
          | _ -> false));
    Alcotest.test_case "s-family path has the reversal" `Quick (fun () ->
        let autos = Sym.automorphisms (F.s_family 2) in
        check_int "id + reversal" 2 (List.length autos));
    Alcotest.test_case "every listed permutation is an automorphism" `Quick
      (fun () ->
        let config = uniform_cycle 5 in
        let g = C.graph config in
        List.iter
          (fun phi ->
            List.iter
              (fun (u, v) ->
                check "edge preserved" true (G.mem_edge g phi.(u) phi.(v)))
              (G.edges g))
          (Sym.automorphisms config));
  ]

(* --- Protocol-mode verification ------------------------------------- *)

let feasible_config = F.h_family 2
let infeasible_config = F.s_family 2

let verify_tests =
  [
    Alcotest.test_case "feasible family elects the canonical leader" `Quick
      (fun () ->
        let res = Checker.verify feasible_config in
        match res.Checker.verdict with
        | Checker.Elected { leader; round } ->
            let expected =
              match Cl.canonical_leader (Fast.classify feasible_config) with
              | Some l -> l
              | None -> Alcotest.fail "family must be feasible"
            in
            check_int "canonical leader" expected leader;
            let n = C.size feasible_config in
            let sigma = C.span feasible_config in
            check "within the O(n^2 sigma) bound" true
              (round <= Checker.global_bound ~n ~sigma)
        | v -> Alcotest.failf "unexpected verdict: %a" Checker.pp_verdict v);
    Alcotest.test_case "infeasible family reaches a symmetric state" `Quick
      (fun () ->
        let res = Checker.verify infeasible_config in
        match res.Checker.verdict with
        | Checker.Non_election { classes } ->
            check "at least one class" true (List.length classes >= 1);
            List.iter
              (fun cls ->
                check "no singleton history class" true
                  (List.length cls >= 2))
              classes
        | v -> Alcotest.failf "unexpected verdict: %a" Checker.pp_verdict v);
    Alcotest.test_case "counterexample trace replays bit-for-bit" `Quick
      (fun () ->
        List.iter
          (fun config ->
            let machine = Machine.drip config in
            let res = Checker.verify ~machine config in
            let rp = Checker.replay ~machine res in
            check "trace equality" true rp.Checker.trace_matches;
            check "model validation" true
              (Radio_lint.Report.ok rp.Checker.report))
          [ feasible_config; infeasible_config; F.g_family 2; F.h_family 1 ]);
    Alcotest.test_case "depth budget trips" `Quick (fun () ->
        let res = Checker.verify ~depth:1 feasible_config in
        check "exhausted" true
          (match res.Checker.verdict with
          | Checker.Exhausted `Depth -> true
          | _ -> false));
    Alcotest.test_case "pure-drip machine agrees with drip" `Quick (fun () ->
        let r1 = Checker.verify ~machine:(Machine.drip feasible_config) feasible_config in
        let r2 =
          Checker.verify
            ~machine:(Machine.pure_drip feasible_config)
            feasible_config
        in
        check "same trace" true
          (Checker.trace_equal r1.Checker.trace r2.Checker.trace));
    Alcotest.test_case "wave machine verifies on its domain" `Quick (fun () ->
        (* a depth-tagged star: node 0 tag 0, leaves woken by the wave *)
        let g = Radio_graph.Gen.star 4 in
        let config = C.create g [| 0; 1; 1; 1 |] in
        check "wave applies" true (Election.Wave_election.applies config);
        let machine =
          match Machine.of_name config "wave" with
          | Some m -> m
          | None -> Alcotest.fail "registry must know wave"
        in
        let res = Checker.check ~machine config in
        match res.Checker.verdict with
        | Checker.Elected { leader; _ } -> check_int "wave leader" 0 leader
        | v -> Alcotest.failf "unexpected verdict: %a" Checker.pp_verdict v);
  ]

(* --- Mutants --------------------------------------------------------- *)

let mutant_tests =
  [
    Alcotest.test_case "greedy decision mutant violates safety" `Quick
      (fun () ->
        let machine = Mutant.greedy_decision feasible_config in
        let res = Checker.check ~machine feasible_config in
        (match res.Checker.verdict with
        | Checker.Violated (Checker.Two_leaders ls) ->
            check "at least two leaders" true (List.length ls >= 2)
        | v -> Alcotest.failf "unexpected verdict: %a" Checker.pp_verdict v);
        (* The action schedule is the canonical DRIP's, so the trace is a
           valid execution: check-trace passes, as the verdict predicts. *)
        let rp = Checker.replay ~machine res in
        check "trace equality" true rp.Checker.trace_matches;
        check "replay passes validation" true
          (Radio_lint.Report.ok rp.Checker.report));
    Alcotest.test_case "early-stop mutant breaks liveness" `Quick (fun () ->
        let machine = Mutant.early_stop feasible_config in
        let res = Checker.verify ~machine feasible_config in
        (match res.Checker.verdict with
        | Checker.Violated Checker.No_leader_on_feasible -> ()
        | v -> Alcotest.failf "unexpected verdict: %a" Checker.pp_verdict v);
        (* Replaying under the mutant itself is bit-for-bit clean... *)
        let rp = Checker.replay ~machine res in
        check "trace equality" true rp.Checker.trace_matches;
        check "self-replay passes" true
          (Radio_lint.Report.ok rp.Checker.report);
        (* ...but the same outcome validated against the healthy canonical
           protocol fails check-trace, exactly as the verdict predicts. *)
        let healthy = (Machine.drip feasible_config).Machine.protocol in
        check "fails against healthy protocol" false
          (Radio_lint.Report.ok
             (Lint.validate ~protocol:healthy rp.Checker.outcome)));
  ]

(* --- Packed codes and the compact visited set ------------------------ *)

module Visited = Radio_mc.Visited
module Pool = Radio_exec.Pool

(* The oracle's exhaustive universe, rebuilt: every connected graph on
   [n <= 4] nodes (up to isomorphism) crossed with every tag census of
   span [<= 2]. *)
let small_configs () =
  List.concat_map
    (fun n ->
      let tagss = Election.Census.tag_assignments ~n ~max_span:2 in
      List.concat_map
        (fun g -> List.map (fun tags -> C.create g (Array.copy tags)) tagss)
        (Radio_graph.Enumerate.connected_up_to_iso n))
    [ 1; 2; 3; 4 ]

(* Deterministic slot material covering every sign/magnitude shape a
   reachable state can hold (asleep, small running keys, terminated
   negatives, multi-byte varint keys). *)
let slot_pool = [| 0; 1; 2; -1; -2; 5; -7; 300; -300; 40_000 |]

let synth_state ~n i =
  Array.init n (fun v -> slot_pool.((i * 7 + v * 3 + (i / 11)) mod 10))

let packed_tests =
  [
    Alcotest.test_case "zigzag is the standard bijection" `Quick (fun () ->
        let open State.Packed in
        List.iter
          (fun (signed, unsigned) ->
            check_int "zigzag" unsigned (zigzag signed);
            check_int "unzigzag" signed (unzigzag unsigned))
          [ (0, 0); (-1, 1); (1, 2); (-2, 3); (2, 4); (123456, 246912) ];
        List.iter
          (fun k -> check_int "roundtrip" k (unzigzag (zigzag k)))
          [ 0; 1; -1; 17; -17; 40_000; -40_000; max_int; min_int + 1 ]);
    Alcotest.test_case "pack/unpack roundtrip" `Quick (fun () ->
        for n = 1 to 6 do
          for i = 0 to 199 do
            let s = synth_state ~n i in
            let round_class = i mod 3 and spent = i mod 2 in
            let code = State.Packed.pack ~round_class ~spent s in
            check "code within bound" true
              (Bytes.length code <= State.Packed.max_bytes ~n);
            let rc', spent', s' = State.Packed.unpack ~n code in
            check_int "round class survives" round_class rc';
            check_int "spent survives" spent spent';
            check "slots survive" true (State.equal s s')
          done
        done);
    Alcotest.test_case "write agrees with pack at any offset" `Quick
      (fun () ->
        let s = [| 3; 0; -5; 40_000 |] in
        let code = State.Packed.pack ~round_class:2 ~spent:1 s in
        let buf = Bytes.make (16 + State.Packed.max_bytes ~n:4) '\xff' in
        let stop = State.Packed.write buf ~pos:16 ~round_class:2 ~spent:1 s in
        check_int "length" (Bytes.length code) (stop - 16);
        check "bytes equal" true
          (Bytes.equal code (Bytes.sub buf 16 (Bytes.length code))));
    Alcotest.test_case "visited set agrees with the legacy boxed path"
      `Quick
      (fun () ->
        (* Differential test over the full n <= 4 configuration universe:
           the packed open-addressing set must draw exactly the separations
           the old [State.encode]-keyed hashtable drew, on canonicalized
           states (pack after canonicalize = the legacy boxed key). *)
        let configs = small_configs () in
        check "universe rebuilt" true (List.length configs = 434);
        List.iter
          (fun config ->
            let n = C.size config in
            let autos = Sym.automorphisms config in
            let visited = Visited.create ~bits:4 ~slots:n () in
            let legacy = Hashtbl.create 64 in
            for i = 0 to 99 do
              let round_class = i mod 3 and spent = i mod 2 in
              let canon = canonicalize autos (synth_state ~n i) in
              let key =
                Printf.sprintf "%d|%d|%s" round_class spent
                  (State.encode ~round_class canon)
              in
              check "mem agrees before insert"
                (Hashtbl.mem legacy key)
                (Visited.mem visited ~round_class ~spent canon);
              let fresh = Visited.add visited ~round_class ~spent canon >= 0 in
              check "add reports freshness" (not (Hashtbl.mem legacy key))
                fresh;
              Hashtbl.replace legacy key ();
              check "mem sees the insert" true
                (Visited.mem visited ~round_class ~spent canon)
            done;
            check_int "same cardinality" (Hashtbl.length legacy)
              (Visited.size visited))
          configs);
    Alcotest.test_case "iter recovers every packed entry" `Quick (fun () ->
        (* Push the set through several table doublings and arena growths,
           then unpack everything back out. *)
        let n = 3 in
        let visited = Visited.create ~bits:4 ~slots:n () in
        let reference = Hashtbl.create 64 in
        for i = 0 to 9_999 do
          let s = [| i - 5_000; (i * 17) - 80_000; i mod 7 |] in
          let round_class = i mod 5 and spent = i mod 3 in
          check "all fresh" true
            (Visited.add visited ~round_class ~spent s >= 0);
          Hashtbl.replace reference
            (Printf.sprintf "%d|%d|%s" round_class spent
               (State.encode ~round_class s))
            ()
        done;
        check_int "all held" 10_000 (Visited.size visited);
        check "footprint reported" true (Visited.memory_bytes visited > 0);
        let seen = ref 0 in
        Visited.iter visited ~slots:n ~f:(fun ~round_class ~spent s ->
            incr seen;
            check "entry known" true
              (Hashtbl.mem reference
                 (Printf.sprintf "%d|%d|%s" round_class spent
                    (State.encode ~round_class s))));
        check_int "iter visits everything" 10_000 !seen);
  ]


(* --- Arena growth boundaries and varint width thresholds ------------- *)

let visited_edge_tests =
  [
    Alcotest.test_case "duplicate rollback across arena growth boundaries"
      `Quick (fun () ->
        (* [add] packs speculatively past [len] before probing, so a
           duplicate attempt can itself trigger an arena reallocation and
           must then roll back — leaving len, count and every published
           entry intact.  Walk enough distinct states to cross several
           doublings, re-adding an old state before every insert, and
           demand that at least one of those duplicate probes landed
           exactly on a growth boundary (memory grew while add returned
           false). *)
        let n = 3 in
        let visited = Visited.create ~bits:4 ~slots:n () in
        let state i = [| i - 700; (i * 17) - 9_000; (i mod 7) - 3 |] in
        let dup_growths = ref 0 in
        for i = 0 to 1_499 do
          if i > 0 then begin
            let before = Visited.memory_bytes visited in
            let s = state (i / 2) in
            check "duplicate rejected" false
              (Visited.add visited ~round_class:0 ~spent:0 s >= 0);
            if Visited.memory_bytes visited > before then
              incr dup_growths;
            check "duplicate still member" true
              (Visited.mem visited ~round_class:0 ~spent:0 s)
          end;
          check "fresh state accepted" true
            (Visited.add visited ~round_class:0 ~spent:0 (state i) >= 0);
          check_int "count tracks inserts" (i + 1) (Visited.size visited)
        done;
        check "a duplicate probe grew the arena" true (!dup_growths > 0);
        (* Nothing was corrupted by the speculative writes: every entry
           unpacks back out exactly once. *)
        let seen = Hashtbl.create 64 in
        Visited.iter visited ~slots:n ~f:(fun ~round_class ~spent s ->
            check_int "round class" 0 round_class;
            check_int "spent" 0 spent;
            Hashtbl.replace seen (State.encode ~round_class s) ());
        check_int "iter recovers every entry" 1_500 (Hashtbl.length seen);
        for i = 0 to 1_499 do
          check "entry survives growth" true
            (Hashtbl.mem seen (State.encode ~round_class:0 (state i)))
        done);
    Alcotest.test_case "slot codes change width exactly at the varint \
                        thresholds" `Quick (fun () ->
        (* zigzag maps k to 2|k| - (k < 0): the 1->2 byte boundary sits at
           zigzag = 0x7f/0x80, i.e. k = -64 vs 64, and the 2->3 byte
           boundary at k = -8192 vs 8192. *)
        let code_len k =
          Bytes.length (State.Packed.pack ~round_class:0 ~spent:0 [| k |])
        in
        let base = code_len 0 in
        List.iter
          (fun (k, extra) -> check_int "code width" (base + extra)
            (code_len k))
          [
            (63, 0); (-64, 0); (64, 1); (-65, 1);
            (8_191, 1); (-8_192, 1); (8_192, 2); (-8_193, 2);
          ];
        (* States straddling a threshold stay distinct in the set. *)
        let visited = Visited.create ~bits:3 ~slots:1 () in
        List.iter
          (fun k ->
            check "fresh across the boundary" true
              (Visited.add visited ~round_class:0 ~spent:0 [| k |] >= 0))
          [ -64; 64; -65; 63; -8_192; 8_192 ];
        check_int "all six held" 6 (Visited.size visited));
    Alcotest.test_case "create rejects widths the entry header cannot \
                        hold" `Quick (fun () ->
        check "reasonable width accepted" true
          (Visited.size (Visited.create ~slots:6_551 ()) = 0);
        match Visited.create ~slots:7_000 () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "7000-slot width must be rejected");
  ]

(* --- Universal mode and the symmetry quotient ------------------------ *)

let stats_equal (a : Checker.stats) (b : Checker.stats) =
  a.Checker.states_explored = b.Checker.states_explored
  && a.Checker.states_raw = b.Checker.states_raw
  && a.Checker.peak_frontier = b.Checker.peak_frontier
  && a.Checker.depth_reached = b.Checker.depth_reached
  && a.Checker.distinct_keys = b.Checker.distinct_keys
  && a.Checker.automorphisms = b.Checker.automorphisms
  && a.Checker.canonicalizations = b.Checker.canonicalizations
  && a.Checker.visited_bytes = b.Checker.visited_bytes

let exploration_equal (a : Checker.exploration) (b : Checker.exploration) =
  stats_equal a.Checker.stats b.Checker.stats
  && (match (a.Checker.separated_at, b.Checker.separated_at) with
     | None, None -> true
     | Some x, Some y -> x = y
     | _ -> false)
  &&
  match (a.Checker.exhausted, b.Checker.exhausted) with
  | None, None | Some `Depth, Some `Depth | Some `States, Some `States ->
      true
  | _ -> false

let explore_tests =
  [
    Alcotest.test_case "fault-free anonymous states are symmetric" `Quick
      (fun () ->
        (* Lockstep classes keep every reachable state automorphism-
           invariant, so the quotient changes nothing — the checker's
           restatement of the paper's symmetry impossibility. *)
        let config = uniform_cycle 4 in
        let on = Checker.explore ~depth:6 ~reduction:true config in
        let off = Checker.explore ~depth:6 ~reduction:false config in
        check "group found" true (on.Checker.stats.Checker.automorphisms > 1);
        check_int "identical visited sets"
          off.Checker.stats.Checker.states_explored
          on.Checker.stats.Checker.states_explored);
    Alcotest.test_case "symmetry reduction shrinks the visited set" `Quick
      (fun () ->
        (* A crash adversary names concrete nodes, breaking lockstep:
           killing automorphic twins yields automorphic sibling states the
           quotient collapses. *)
        let config = uniform_cycle 4 in
        let on = Checker.explore ~depth:6 ~faults:1 ~reduction:true config in
        let off =
          Checker.explore ~depth:6 ~faults:1 ~reduction:false config
        in
        check "group found" true (on.Checker.stats.Checker.automorphisms > 1);
        check "strictly fewer states" true
          (on.Checker.stats.Checker.states_explored
          < off.Checker.stats.Checker.states_explored);
        check "same separation verdict" true
          (match (on.Checker.separated_at, off.Checker.separated_at) with
          | None, None -> true
          | Some a, Some b -> a = b
          | _ -> false);
        check "peak frontier recorded" true
          (on.Checker.stats.Checker.peak_frontier >= 1));
    Alcotest.test_case "uniform cycle never separates" `Quick (fun () ->
        let e = Checker.explore ~depth:8 (uniform_cycle 4) in
        check "no separation" true (Option.is_none e.Checker.separated_at));
    Alcotest.test_case "feasible family separates" `Quick (fun () ->
        let e = Checker.explore ~depth:12 (F.h_family 1) in
        check "separates" true (Option.is_some e.Checker.separated_at));
    Alcotest.test_case "state budget trips" `Quick (fun () ->
        let e = Checker.explore ~depth:20 ~states:1 (uniform_cycle 4) in
        check "exhausted" true
          (match e.Checker.exhausted with
          | Some `States -> true
          | _ -> false));
    Alcotest.test_case "parallel explore is bit-identical at any job count"
      `Quick
      (fun () ->
        (* Exploration is sequential: a pool is accepted and ignored, so
           every stats field, the separation round and the budget verdict
           must coincide with and without one, at every pool size. *)
        let config = F.h_family 2 in
        let base = Checker.explore ~depth:6 ~faults:1 config in
        check "reference run separates" true
          (Option.is_some base.Checker.separated_at);
        check "reference run is parallel-sized" true
          (base.Checker.stats.Checker.peak_frontier
          >= Pool.min_parallel_batch);
        List.iter
          (fun jobs ->
            Pool.with_pool ~jobs (fun pool ->
                let e = Checker.explore ~depth:6 ~faults:1 ~pool config in
                check
                  (Printf.sprintf "identical exploration at jobs %d" jobs)
                  true
                  (exploration_equal base e)))
          [ 1; 2; 4 ]);
    Alcotest.test_case "cap trip is bit-identical at any job count" `Quick
      (fun () ->
        (* The cap can trip mid-wave; where it trips (and every counter
           at that point) must not depend on the pool, which no longer
           changes the code path. *)
        let config = F.h_family 2 in
        let base = Checker.explore ~depth:8 ~faults:1 ~states:5_000 config in
        check "cap tripped" true
          (match base.Checker.exhausted with
          | Some `States -> true
          | _ -> false);
        List.iter
          (fun jobs ->
            Pool.with_pool ~jobs (fun pool ->
                let e =
                  Checker.explore ~depth:8 ~faults:1 ~states:5_000 ~pool
                    config
                in
                check
                  (Printf.sprintf "identical cap trip at jobs %d" jobs)
                  true
                  (exploration_equal base e)))
          [ 1; 2; 4 ]);
    Alcotest.test_case "every raw successor canonicalizes exactly once"
      `Quick
      (fun () ->
        (* The hot-path fix: one canonicalization per successor (plus the
           initial state), with the single-probe visited set replacing the
           old canonicalize -> encode -> mem -> add chain. *)
        let e = Checker.explore ~depth:6 ~faults:1 (F.h_family 2) in
        check_int "canonicalizations = raw + 1"
          (e.Checker.stats.Checker.states_raw + 1)
          e.Checker.stats.Checker.canonicalizations;
        check "footprint recorded" true
          (e.Checker.stats.Checker.visited_bytes > 0));
  ]

(* Explorations recorded before the explorer became one allocation-free
   sequential kernel: every stats field, the separation round and the
   budget verdict are pinned, so a change to interning order, successor
   order, canonicalization or the cap checks shows up here. *)
let golden_explorations =
  let ring6 = C.create (Radio_graph.Gen.cycle 6) [| 0; 1; 0; 1; 1; 1 |] in
  let stats states_explored states_raw peak_frontier depth_reached
      distinct_keys automorphisms canonicalizations visited_bytes =
    {
      Checker.states_explored;
      states_raw;
      peak_frontier;
      depth_reached;
      distinct_keys;
      automorphisms;
      canonicalizations;
      visited_bytes;
    }
  in
  let ring ~faults ~reduction =
    ( Printf.sprintf "ring6_broken d5 f%d reduction %b" faults reduction,
      fun () -> Checker.explore ~depth:5 ~faults ~reduction ring6 )
  in
  [
    ( ( "H_2 d7 f1",
        fun () -> Checker.explore ~depth:7 ~faults:1 (F.h_family 2) ),
      stats 73058 93846 6987 6 3162 1 93847 3145728,
      Some 1,
      Some `Depth );
    ( ( "H_3 d6 f1",
        fun () -> Checker.explore ~depth:6 ~faults:1 (F.h_family 3) ),
      stats 5364 7854 881 5 475 1 7855 196608,
      Some 1,
      Some `Depth );
    ( ring ~faults:0 ~reduction:true,
      stats 1142 1239 86 4 322 2 1240 49152,
      Some 2,
      Some `Depth );
    ( ring ~faults:0 ~reduction:false,
      stats 1142 1239 86 4 322 1 1240 49152,
      Some 2,
      Some `Depth );
    ( ring ~faults:1 ~reduction:true,
      stats 20559 24715 1176 4 604 2 24716 1048576,
      Some 1,
      Some `Depth );
    ( ring ~faults:1 ~reduction:false,
      stats 34584 37185 1846 4 604 1 37186 1572864,
      Some 1,
      Some `Depth );
    ( ring ~faults:2 ~reduction:true,
      stats 127519 157431 5864 4 610 2 157432 4194304,
      Some 1,
      Some `Depth );
    ( ring ~faults:2 ~reduction:false,
      stats 244408 283425 10914 4 610 1 283426 8388608,
      Some 1,
      Some `Depth );
    ( ( "uniform cycle 4 d6 f0",
        fun () -> Checker.explore ~depth:6 ~faults:0 (uniform_cycle 4) ),
      stats 7 11 1 5 6 8 12 36864,
      None,
      Some `Depth );
    ( ( "uniform cycle 4 d6 f1",
        fun () -> Checker.explore ~depth:6 ~faults:1 (uniform_cycle 4) ),
      stats 28 85 6 5 6 8 86 36864,
      None,
      Some `Depth );
    ( ( "H_2 d8 f1 state cap 5000",
        fun () ->
          Checker.explore ~depth:8 ~faults:1 ~states:5_000 (F.h_family 2) ),
      stats 5000 6690 3634 6 555 1 6688 196608,
      Some 1,
      Some `States );
  ]

let golden_tests =
  [
    Alcotest.test_case "explorations match the recorded stats" `Quick
      (fun () ->
        List.iter
          (fun ((name, run), stats, separated_at, exhausted) ->
            let e = run () in
            let expected = { e with Checker.separated_at; exhausted; stats } in
            if not (exploration_equal expected e) then
              Alcotest.failf
                "%s: explored %d raw %d peak %d depth %d keys %d autos %d \
                 canonicalizations %d bytes %d"
                name e.Checker.stats.Checker.states_explored
                e.Checker.stats.Checker.states_raw
                e.Checker.stats.Checker.peak_frontier
                e.Checker.stats.Checker.depth_reached
                e.Checker.stats.Checker.distinct_keys
                e.Checker.stats.Checker.automorphisms
                e.Checker.stats.Checker.canonicalizations
                e.Checker.stats.Checker.visited_bytes)
          golden_explorations);
    Alcotest.test_case "explore allocates at most 16 words per successor"
      `Quick
      (fun () ->
        (* The kernel expands, canonicalizes and packs in scratch arrays;
           what it allocates is set-up plus amortized table growth. *)
        let config = F.h_family 2 in
        let before = Gc.minor_words () in
        let e = Checker.explore ~depth:7 ~faults:1 config in
        let words = Gc.minor_words () -. before in
        let per_successor =
          words /. float_of_int e.Checker.stats.Checker.states_raw
        in
        if per_successor > 16.0 then
          Alcotest.failf "%.1f minor words per raw successor" per_successor);
  ]

(* --- Differential oracle --------------------------------------------- *)

let oracle_tests =
  [
    Alcotest.test_case "MC agrees with the classifier (n <= 4, replayed)"
      `Slow
      (fun () ->
        let r = Oracle.run ~max_n:4 ~max_span:2 ~replay:true () in
        check_int "exhaustive universe" 434 r.Oracle.configurations;
        check "feasible configs exist" true (r.Oracle.feasible > 0);
        check "infeasible configs exist" true (r.Oracle.infeasible > 0);
        (match r.Oracle.disagreements with
        | [] -> ()
        | d :: _ ->
            Alcotest.failf "disagreement: %a" Oracle.pp_disagreement d);
        check "consistent" true (Oracle.consistent r));
  ]

let () =
  Alcotest.run "mc"
    [
      ("state", state_tests);
      ("symmetry", symmetry_tests);
      ("verify", verify_tests);
      ("mutants", mutant_tests);
      ("packed", packed_tests);
      ("visited-edges", visited_edge_tests);
      ("explore", explore_tests);
      ("golden", golden_tests);
      ("oracle", oracle_tests);
    ]
