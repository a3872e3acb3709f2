(* Tests for the optimal symmetry-breaking-time search: exact agreement
   with the paper's lower bounds on H_m, Never on infeasible inputs, and
   consistency with the canonical DRIP's measured separation. *)

module C = Radio_config.Config
module F = Radio_config.Families
module G = Radio_graph.Graph
module Gen = Radio_graph.Gen
module O = Election.Optimal

let breaking_time = Radio_mc.Checker.breaking_time

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let broken_at = function
  | O.Broken_at r -> r
  | O.Never -> Alcotest.fail "unexpected Never"
  | O.Not_within_horizon -> Alcotest.fail "unexpected horizon exhaustion"
  | O.Search_budget_exhausted -> Alcotest.fail "unexpected budget exhaustion"

let test_h_family_matches_lemma_4_2 () =
  (* Lemma 4.2: every election algorithm for H_m needs at least m rounds;
     the search shows m is exactly achievable - the bound is tight. *)
  for m = 1 to 8 do
    check_int (Printf.sprintf "H_%d optimal = m" m) m
      (broken_at (breaking_time (F.h_family m)))
  done

let test_trivial_cases () =
  (* A lone tag-0 node among sleepers separates at round 0. *)
  check_int "two_cells" 0 (broken_at (breaking_time (F.two_cells ())));
  check_int "staircase" 0 (broken_at (breaking_time (F.staircase_clique 4)));
  check_int "single node" 0
    (broken_at (breaking_time (C.create (G.empty 1) [| 0 |])))

let test_infeasible_never () =
  List.iter
    (fun config -> check "Never" true (breaking_time config = O.Never))
    [
      F.s_family 2;
      F.symmetric_pair ();
      C.uniform (Gen.cycle 4) 0;
    ]

let test_optimal_le_canonical () =
  (* The canonical DRIP cannot separate earlier than the optimum. *)
  List.iter
    (fun config ->
      match (breaking_time config, O.canonical_breaking_time config) with
      | O.Broken_at opt, Some can ->
          check "optimal <= canonical separation" true (opt <= can)
      | _ -> Alcotest.fail "expected both measurements")
    [ F.h_family 2; F.h_family 4; F.two_cells (); F.staircase_clique 3 ]

let test_canonical_separation_le_completion () =
  (* Separation happens no later than the canonical election completes. *)
  let config = F.h_family 3 in
  let a = Election.Feasibility.analyze config in
  let r = Option.get (Election.Feasibility.verify_by_simulation a) in
  match
    (O.canonical_breaking_time config, r.Radio_sim.Runner.rounds_to_elect)
  with
  | Some sep, Some total -> check "sep <= total" true (sep <= total)
  | _ -> Alcotest.fail "expected measurements"

let test_budget_exhaustion_reported () =
  (* A tiny state budget on a non-trivial feasible instance gives up
     explicitly rather than looping. *)
  match breaking_time ~max_states:1 (F.h_family 4) with
  | O.Search_budget_exhausted | O.Broken_at _ ->
      (* Broken_at is possible if separation occurs before the budget
         check; both are acceptable terminations. *)
      check "terminates" true true
  | O.Never | O.Not_within_horizon -> Alcotest.fail "wrong outcome"

let test_horizon_reported () =
  (* With a horizon below the optimum, the search reports it; round
     [horizon] itself is still searched. *)
  (match breaking_time ~horizon:1 (F.h_family 3) with
  | O.Not_within_horizon -> check "horizon" true true
  | _ -> Alcotest.fail "expected horizon exhaustion");
  (match breaking_time ~horizon:2 (F.h_family 3) with
  | O.Not_within_horizon -> check "horizon 2" true true
  | _ -> Alcotest.fail "expected horizon exhaustion at horizon 2");
  check_int "horizon 3 reaches H_3's round" 3
    (broken_at (breaking_time ~horizon:3 (F.h_family 3)))

let test_small_census_consistency () =
  (* Every connected configuration with n <= 4 and span <= 2: feasible =>
     optimal breaking time exists and is <= the canonical separation
     round. *)
  let graphs =
    List.concat_map Radio_graph.Enumerate.connected_up_to_iso [ 1; 2; 3; 4 ]
  in
  List.iter
    (fun g ->
      List.iter
        (fun tags ->
          let config = C.create g tags in
          match breaking_time config with
          | O.Broken_at opt -> (
              match O.canonical_breaking_time config with
              | Some can -> check "opt <= canonical" true (opt <= can)
              | None -> Alcotest.fail "canonical should terminate")
          | O.Never ->
              check "classifier agrees" false
                (Election.Feasibility.is_feasible config)
          | O.Not_within_horizon | O.Search_budget_exhausted ->
              Alcotest.fail "search should resolve tiny instances")
        (Election.Census.tag_assignments ~n:(G.size g) ~max_span:2))
    graphs

let test_long_path () =
  (* 70 nodes, more than a transmitter mask has bits: the mask spans a
     state's distinct awake keys, which stay few on this path. *)
  let n = 70 in
  let g = G.of_edges n (List.init (n - 1) (fun i -> (i, i + 1))) in
  check_int "70-node path, tags i mod 3" 2
    (broken_at (breaking_time (C.create g (Array.init n (fun i -> i mod 3)))))

let () =
  Alcotest.run "optimal"
    [
      ( "breaking-time",
        [
          Alcotest.test_case "H_m = Lemma 4.2 bound" `Quick
            test_h_family_matches_lemma_4_2;
          Alcotest.test_case "trivial cases" `Quick test_trivial_cases;
          Alcotest.test_case "infeasible => Never" `Quick test_infeasible_never;
          Alcotest.test_case "optimal <= canonical" `Quick
            test_optimal_le_canonical;
          Alcotest.test_case "separation <= completion" `Quick
            test_canonical_separation_le_completion;
          Alcotest.test_case "budget reported" `Quick
            test_budget_exhaustion_reported;
          Alcotest.test_case "horizon reported" `Quick test_horizon_reported;
          Alcotest.test_case "70-node path" `Quick test_long_path;
          Alcotest.test_case "census consistency" `Slow
            test_small_census_consistency;
        ] );
    ]
