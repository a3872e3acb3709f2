(* End-to-end tests of the anorad command-line interface: exit codes,
   pipeable output, and artifact round-trips, exercising the installed
   binary exactly as a user would. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The binary is a declared dependency living next to this test in the
   build tree (_build/default/bin/anorad.exe); resolve it relative to the
   test executable itself so the tests work regardless of the caller's
   working directory. *)
let binary =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/anorad.exe"

let run_cmd cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
  let output = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (code, output)

let anorad args = run_cmd (Filename.quote binary ^ " " ^ args)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let with_family family m f =
  let path = Filename.temp_file "anorad_cli" ".cfg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let code, out = anorad (Printf.sprintf "family %s %d" family m) in
      check_int "family exit" 0 code;
      Out_channel.with_open_text path (fun oc -> output_string oc out);
      f path)

let test_family_output () =
  let code, out = anorad "family h 2" in
  check_int "exit" 0 code;
  check "header" true (contains out "config 4");
  check "tags" true (contains out "tags 2 0 0 3")

let test_classify_exit_codes () =
  with_family "h" 2 (fun path ->
      let code, out = anorad ("classify " ^ Filename.quote path) in
      check_int "feasible exit 0" 0 code;
      check "says FEASIBLE" true (contains out "FEASIBLE"));
  with_family "s" 2 (fun path ->
      let code, out = anorad ("classify " ^ Filename.quote path) in
      check_int "infeasible exit 1" 1 code;
      check "says INFEASIBLE" true (contains out "INFEASIBLE"))

let test_elect () =
  with_family "h" 1 (fun path ->
      let code, out = anorad ("elect " ^ Filename.quote path) in
      check_int "exit" 0 code;
      check "leader named" true (contains out "leader: node 0"))

let test_compile_run_plan_roundtrip () =
  with_family "g" 2 (fun cfg ->
      let plan = Filename.temp_file "anorad_cli" ".plan" in
      Fun.protect
        ~finally:(fun () -> Sys.remove plan)
        (fun () ->
          let code, _ =
            anorad
              (Printf.sprintf "compile %s -o %s" (Filename.quote cfg)
                 (Filename.quote plan))
          in
          check_int "compile exit" 0 code;
          let code, out =
            anorad
              (Printf.sprintf "run-plan %s %s" (Filename.quote plan)
                 (Filename.quote cfg))
          in
          check_int "run-plan exit" 0 code;
          check "elects" true (contains out "leader: node")))

let test_repair () =
  with_family "s" 2 (fun path ->
      let code, out = anorad ("repair " ^ Filename.quote path) in
      check_int "exit" 0 code;
      check "plan shown" true (contains out "repair plan");
      check "repaired config printed" true (contains out "config 4"))

let test_audit () =
  with_family "h" 1 (fun path ->
      let code, out = anorad ("audit " ^ Filename.quote path) in
      check_int "exit" 0 code;
      check "all passed" true (contains out "ALL CHECKS PASSED"))

let test_census_cli () =
  let code, out = anorad "census --max-n 3 --max-span 1" in
  check_int "exit" 0 code;
  check "consistent" true (contains out "consistent: true")

(* The --jobs determinism contract through the real CLI: a pooled census
   renders byte-for-byte the sequential report (docs/PARALLEL.md). *)
let test_jobs_cli () =
  let code_seq, out_seq = anorad "census --max-n 3 --max-span 1 --jobs 1" in
  let code_par, out_par = anorad "census --max-n 3 --max-span 1 --jobs 2" in
  check_int "jobs 1 exit" 0 code_seq;
  check_int "jobs 2 exit" 0 code_par;
  check "census parallel = sequential" true (String.equal out_seq out_par);
  let code_seq, out_seq = anorad "mc --oracle 3 --jobs 1" in
  let code_par, out_par = anorad "mc --oracle 3 --jobs 2" in
  check_int "oracle jobs 1 exit" 0 code_seq;
  check_int "oracle jobs 2 exit" 0 code_par;
  check "oracle parallel = sequential" true (String.equal out_seq out_par);
  with_family "h" 2 (fun path ->
      let explore jobs =
        anorad
          (Printf.sprintf "mc %s --explore --faults 1 --depth 6 --jobs %d"
             (Filename.quote path) jobs)
      in
      let code_seq, out_seq = explore 1 in
      let code_par, out_par = explore 2 in
      check_int "explore jobs 1 exit" 0 code_seq;
      check_int "explore jobs 2 exit" 0 code_par;
      check "explore parallel = sequential" true
        (String.equal out_seq out_par));
  let code, out = anorad "census --help=plain" in
  check_int "census help exit" 0 code;
  check "census documents --jobs" true (contains out "--jobs");
  check "census documents ANORAD_JOBS" true (contains out "ANORAD_JOBS");
  let code, out = anorad "resilience --help=plain" in
  check_int "resilience help exit" 0 code;
  check "resilience documents --jobs" true (contains out "--jobs")

let test_catalog_cli () =
  let code, out = anorad "catalog" in
  check_int "list exit" 0 code;
  check "lists h2" true (contains out "h2");
  let code, out = anorad "catalog s2" in
  check_int "entry exit" 0 code;
  check "emits config" true (contains out "config 4");
  let code, _ = anorad "catalog no-such-entry" in
  check_int "unknown exit" 1 code

let test_optimal_cli () =
  with_family "h" 2 (fun path ->
      let code, out = anorad ("optimal " ^ Filename.quote path) in
      check_int "exit" 0 code;
      check "round 2" true (contains out "round (over all algorithms): 2"))

let test_refute_cli () =
  with_family "h" 1 (fun path ->
      let code, out = anorad ("refute " ^ Filename.quote path) in
      check_int "exit" 0 code;
      check "refuted" true (contains out "universality refuted: true"))

let test_explain_dot_cli () =
  with_family "s" 2 (fun path ->
      let code, out = anorad ("explain --dot " ^ Filename.quote path) in
      check_int "exit (infeasible)" 1 code;
      check "dot output" true (contains out "graph explanation"))

let test_trace_cli () =
  with_family "h" 1 (fun path ->
      let code, out = anorad ("trace " ^ Filename.quote path) in
      check_int "exit" 0 code;
      check "timeline legend" true (contains out "legend:");
      check "leader decided" true (contains out "leader (by decision function)"))

let test_bad_input () =
  let code, _ = anorad "classify /nonexistent/path.cfg" in
  check "nonzero on missing file" true (code <> 0)

let test_invalid_config () =
  (* Self-loops, duplicate edges and out-of-range endpoints are usage
     errors (exit 2 with a diagnostic), like a missing file — not
     uncaught exceptions. *)
  List.iter
    (fun (what, edges) ->
      let path = Filename.temp_file "anorad_cli" ".cfg" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_text path (fun oc ->
              output_string oc ("config 3\ntags 0 1 2\n" ^ edges));
          List.iter
            (fun cmd ->
              let code, out =
                run_cmd
                  (Printf.sprintf "{ %s %s %s 2>&1; }" (Filename.quote binary)
                     cmd (Filename.quote path))
              in
              check_int (Printf.sprintf "%s: %s exit 2" what cmd) 2 code;
              check
                (Printf.sprintf "%s: %s diagnostic" what cmd)
                true
                (contains out "invalid config"))
            [ "classify"; "mc --explore" ]))
    [
      ("self-loop", "0 0\n1 2\n");
      ("duplicate edge", "0 1\n1 0\n");
      ("out-of-range vertex", "0 1\n1 5\n");
    ];
  let code, _ = anorad "classify /nonexistent/path.cfg" in
  check_int "missing file exit 2" 2 code

let with_plan content f =
  let path = Filename.temp_file "anorad_cli" ".plan" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc content);
      f path)

let test_faults_cli () =
  with_family "h" 2 (fun cfg ->
      (* Empty plan: the identity law end to end — election succeeds. *)
      with_plan "faults\n" (fun plan ->
          let code, out =
            anorad
              (Printf.sprintf "faults %s %s" (Filename.quote cfg)
                 (Filename.quote plan))
          in
          check_int "empty plan elects" 0 code;
          check "no fault fired" true (contains out "fault ledger (0 fired)");
          check "invariants hold" true
            (contains out "fault-aware model invariants hold");
          check "leader" true (contains out "leader: node 0"));
      (* Crashing the leader: honest failure, ledger shows the crash. *)
      with_plan "faults\ncrash 0 3\n" (fun plan ->
          let code, out =
            anorad
              (Printf.sprintf "faults %s %s" (Filename.quote cfg)
                 (Filename.quote plan))
          in
          check_int "no leader exit 1" 1 code;
          check "crash fired" true (contains out "fault ledger (1 fired)");
          check "no winner" true
            (contains out "no unique surviving leader"));
      (* A malformed plan is rejected before anything runs. *)
      with_plan "faults\ncrash 99 0\n" (fun plan ->
          let code, _ =
            anorad
              (Printf.sprintf "faults %s %s" (Filename.quote cfg)
                 (Filename.quote plan))
          in
          check_int "invalid plan exit 2" 2 code))

let test_faults_supervise_cli () =
  with_family "h" 2 (fun cfg ->
      (* Noise jamming the leader defeats the deployed tags; the supervisor
         re-seeds and recovers (deterministically — see test_faults.ml). *)
      let noise =
        String.concat ""
          (List.init 12 (fun i -> Printf.sprintf "noise 0 %d\n" (3 + i)))
      in
      with_plan ("faults\n" ^ noise) (fun plan ->
          let code, out =
            anorad
              (Printf.sprintf "faults %s %s --supervise" (Filename.quote cfg)
                 (Filename.quote plan))
          in
          check_int "supervisor recovers" 0 code;
          check "attempts reported" true (contains out "attempt 0:");
          check "leader reported" true (contains out "supervisor: leader")))

let test_resilience_cli () =
  with_family "h" 2 (fun cfg ->
      let run () =
        anorad
          (Printf.sprintf "resilience %s --trials 6 --csv -"
             (Filename.quote cfg))
      in
      let code, out = run () in
      check_int "exit" 0 code;
      check "csv header" true
        (contains out
           "intensity,trials,successes,success_rate,stable,stability_rate");
      check "chart drawn" true (contains out "success %");
      (* The whole sweep is a function of the seed: byte-for-byte stable. *)
      let code2, out2 = run () in
      check_int "second run exit" 0 code2;
      check "reproducible byte-for-byte" true (out = out2));
  (* Infeasible input: no election to degrade. *)
  with_family "s" 2 (fun cfg ->
      let code, _ = anorad ("resilience " ^ Filename.quote cfg) in
      check_int "infeasible exit 1" 1 code)

let test_churn_cli () =
  with_family "h" 2 (fun cfg ->
      (* Scripted flaps: the leader leaves and rejoins; the supervisor
         re-elects and the whole report replays byte-for-byte. *)
      with_plan
        "faults\nlink-down 0 1 6\nlink-up 0 1 10\nleave 0 20\njoin 0 26 1\n"
        (fun plan ->
          let run () =
            anorad
              (Printf.sprintf "churn %s --plan %s --horizon 48"
                 (Filename.quote cfg) (Filename.quote plan))
          in
          let code, out = run () in
          check_int "re-elects exit 0" 0 code;
          check "schedule echoed" true (contains out "schedule (4 events)");
          check "epoch lines" true (contains out "epoch 4 @ round 26");
          check "summary" true (contains out "final leader 0");
          let code2, out2 = run () in
          check_int "replay exit" 0 code2;
          check "byte-identical replay" true (String.equal out out2));
      (* Seeded schedules are a pure function of the seed. *)
      let seeded () =
        anorad
          (Printf.sprintf
             "churn %s --horizon 60 --link-flaps 1 --node-flaps 1 --seed 7"
             (Filename.quote cfg))
      in
      let code, out = seeded () in
      check_int "seeded exit" 0 code;
      let _, out2 = seeded () in
      check "seeded deterministic" true (String.equal out out2);
      (* The differential oracle through the pool: byte-identical at any
         jobs level. *)
      let oracle jobs =
        anorad
          (Printf.sprintf "churn %s --oracle 3 --jobs %d" (Filename.quote cfg)
             jobs)
      in
      let code1, o1 = oracle 1 in
      let code2, o2 = oracle 2 in
      check_int "oracle jobs 1 exit" 0 code1;
      check_int "oracle jobs 2 exit" 0 code2;
      check "oracle agrees" true (contains o1 "0 mismatches");
      check "oracle parallel = sequential" true (String.equal o1 o2);
      (* Degenerate horizon is a usage error, not a crash. *)
      let code, _ = anorad (Printf.sprintf "churn %s --horizon 0" (Filename.quote cfg)) in
      check_int "bad horizon exit 2" 2 code)

let test_check_trace_plan_cli () =
  with_family "h" 2 (fun cfg ->
      (* Without faults the pristine invariants hold... *)
      let code, out = anorad ("check-trace " ^ Filename.quote cfg) in
      check_int "clean exit" 0 code;
      check "clean verdict" true (contains out "all model invariants hold");
      (* ...and a crash breaks them, with an actionable headline naming the
         offending invariant and node. *)
      with_plan "faults\ncrash 0 3\n" (fun plan ->
          let code, out =
            anorad
              (Printf.sprintf "check-trace %s --plan %s" (Filename.quote cfg)
                 (Filename.quote plan))
          in
          check_int "violation exit 2" 2 code;
          check "headline names the invariant" true
            (contains out "check-trace: FAILED: invariant \"");
          check "headline names the node" true (contains out "at node 0"));
      (* An out-of-range plan is a usage error, as in 'anorad faults'. *)
      with_plan "faults\ndrop 7 1 2\n" (fun plan ->
          let code, _ =
            anorad
              (Printf.sprintf "check-trace %s --plan %s" (Filename.quote cfg)
                 (Filename.quote plan))
          in
          check_int "invalid plan exit 2" 2 code);
      with_plan "faults\nbogus 1\n" (fun plan ->
          let code, _ =
            anorad
              (Printf.sprintf "check-trace %s --plan %s" (Filename.quote cfg)
                 (Filename.quote plan))
          in
          check_int "malformed plan exit 2" 2 code))

(* ------------------------------------------------------------------ *)
(* lint: flags, exit codes, SARIF, baseline                            *)
(* ------------------------------------------------------------------ *)

let write_file path content =
  Out_channel.with_open_text path (fun oc -> output_string oc content)

(* A throwaway lib/ tree the lint path predicates recognize. *)
let with_lint_tree files f =
  let dir = Filename.temp_file "anorad_lint" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
      in
      rm dir)
    (fun () ->
      List.iter
        (fun (rel, content) ->
          let path = Filename.concat dir rel in
          let rec mkdirs d =
            if not (Sys.file_exists d) then begin
              mkdirs (Filename.dirname d);
              Unix.mkdir d 0o755
            end
          in
          mkdirs (Filename.dirname path);
          write_file path content)
        files;
      f (Filename.concat dir "lib"))

let test_lint_help () =
  let code, out = anorad "lint --help" in
  check_int "help exit" 0 code;
  check "documents exit status" true (contains out "EXIT STATUS");
  check "documents the clean exit" true (contains out "every finding baselined");
  check "documents the findings exit" true
    (contains out "lint findings were reported");
  check "documents the usage exit" true (contains out "usage error");
  check "documents --deep" true (contains out "--deep");
  check "documents --baseline" true (contains out "--baseline");
  check "documents --sarif" true (contains out "--sarif")

let test_lint_clean_and_findings () =
  with_lint_tree
    [
      ("lib/core/good.ml", "let double x = x * 2\n");
      ("lib/core/good.mli", "val double : int -> int\n");
    ]
    (fun lib ->
      let code, _ = anorad ("lint " ^ Filename.quote lib) in
      check_int "clean tree exits 0" 0 code);
  with_lint_tree
    [
      ("lib/core/bad.ml", "let x = Random.int 10\n");
      ("lib/core/bad.mli", "val x : int\n");
    ]
    (fun lib ->
      let code, out = anorad ("lint " ^ Filename.quote lib) in
      check_int "findings exit 1" 1 code;
      check "names the rule" true (contains out "[random]"));
  let code, _ = anorad "lint /nonexistent/path" in
  check_int "missing path exits 2" 2 code

let test_lint_deep_witness_chain () =
  with_lint_tree
    [
      ( "lib/core/util.ml",
        "let shuffle arr = ignore (Random.int (Array.length arr)); arr\n" );
      ("lib/core/util.mli", "val shuffle : int array -> int array\n");
      ("lib/drip/drip.ml", "let step order = Util.shuffle order\n");
      ("lib/drip/drip.mli", "val step : int array -> int array\n");
    ]
    (fun lib ->
      (* Shallow: only the direct Random use fires. *)
      let code, out = anorad ("lint " ^ Filename.quote lib) in
      check_int "shallow exit 1" 1 code;
      check "no taint without --deep" false (contains out "[taint]");
      (* Deep: the caller is flagged with the full witness chain. *)
      let code, out = anorad ("lint --deep " ^ Filename.quote lib) in
      check_int "deep exit 1" 1 code;
      check "taint reported" true (contains out "[taint]");
      check "witness chain printed" true
        (contains out "Drip.step") ;
      check "chain reaches the primitive" true (contains out "Random.int"))

(* Negative control for the escape analysis: a pool task mutating a
   module-level Hashtbl through a 2-edge call chain.  lib/analysis is
   outside the taint boundary and the toplevel-mutable-state scope on
   purpose, so only --effects can see the hazard. *)
let effect_escape_tree =
  [
    ( "lib/analysis/tally.ml",
      "let cache = Hashtbl.create 16\n\
       let note x = Hashtbl.replace cache x x\n\
       let go pool xs =\n\
      \  Radio_exec.Pool.map pool ~f:(fun x -> note x) xs\n" );
    ("lib/analysis/tally.mli", "val go : 'a -> int list -> int list\n");
  ]

let test_lint_effects () =
  with_lint_tree effect_escape_tree (fun lib ->
      (* The per-file rules cannot see the hazard: clean without --effects. *)
      let code, out = anorad ("lint " ^ Filename.quote lib) in
      check_int "shallow exit 0" 0 code;
      check "no effect finding without --effects" false
        (contains out "[effect]");
      (* --effects reports it with the full witness chain. *)
      let code, out = anorad ("lint --effects " ^ Filename.quote lib) in
      check_int "effects exit 1" 1 code;
      check "effect rule named" true (contains out "[effect]");
      check "class named" true (contains out "SharedMut");
      check "witness chain printed" true
        (contains out "Tally.go → Tally.note → Tally.cache");
      (* --deep implies --effects. *)
      let code, out = anorad ("lint --deep " ^ Filename.quote lib) in
      check_int "deep exit 1" 1 code;
      check "deep implies effects" true (contains out "[effect]");
      (* SARIF carries the lattice class as a result property. *)
      let code, out =
        anorad ("lint --effects --sarif - " ^ Filename.quote lib)
      in
      check_int "sarif exit 1" 1 code;
      check "sarif effect rule" true (contains out "\"ruleId\":\"effect\"");
      check "sarif effectClass property" true
        (contains out "\"properties\":{\"effectClass\":\"SharedMut\"}");
      (* A baselined fingerprint suppresses it; a stale entry warns. *)
      let tally =
        Filename.concat (Filename.dirname lib) "lib/analysis/tally.ml"
      in
      let baseline = Filename.temp_file "anorad_lint" ".baseline" in
      Fun.protect
        ~finally:(fun () -> Sys.remove baseline)
        (fun () ->
          write_file baseline
            (Printf.sprintf "effect:%s:Tally.go:SharedMut\n" tally);
          let code, _ =
            anorad
              (Printf.sprintf "lint --effects --baseline %s %s"
                 (Filename.quote baseline) (Filename.quote lib))
          in
          check_int "baselined escape exits 0" 0 code;
          (* Without --effects the entry cannot be vetted, so the scan
             stays clean and silent about it. *)
          let code, _ =
            anorad
              (Printf.sprintf "lint --baseline %s %s"
                 (Filename.quote baseline) (Filename.quote lib))
          in
          check_int "shallow scan leaves effect entries alone" 0 code));
  (* A clean tree exits 0 under --effects. *)
  with_lint_tree
    [
      ("lib/analysis/pure.ml", "let double pool xs = Radio_exec.Pool.map pool ~f:(fun x -> x * 2) xs\n");
      ("lib/analysis/pure.mli", "val double : 'a -> int list -> int list\n");
    ]
    (fun lib ->
      let code, _ = anorad ("lint --effects " ^ Filename.quote lib) in
      check_int "clean tree exits 0" 0 code)

let test_effects_cmd () =
  with_lint_tree effect_escape_tree (fun lib ->
      let code, out = anorad ("effects " ^ Filename.quote lib) in
      check_int "listing exit 0" 0 code;
      check "classifies the chain head" true (contains out "Tally.note");
      check "names the class" true (contains out "SharedMut");
      let code, out = anorad ("effects --summary " ^ Filename.quote lib) in
      check_int "summary exit 0" 0 code;
      check "census header" true (contains out "module");
      check "per-module row" true (contains out "Tally");
      check "total row" true (contains out "total"))

let test_lint_sarif_stdout () =
  with_lint_tree
    [ ("lib/core/bad.ml", "let x = Random.int 10\n") ]
    (fun lib ->
      let code, out = anorad ("lint --sarif - " ^ Filename.quote lib) in
      check_int "findings still exit 1" 1 code;
      check "sarif version" true (contains out "\"version\":\"2.1.0\"");
      check "sarif schema" true (contains out "sarif-schema-2.1.0.json");
      check "ruleId present" true (contains out "\"ruleId\":\"random\""))

let test_lint_baseline () =
  with_lint_tree
    [
      ("lib/core/bad.ml", "let x = Random.int 10\n");
      ("lib/core/bad.mli", "val x : int\n");
    ]
    (fun lib ->
      let bad = Filename.concat (Filename.dirname lib) "lib/core/bad.ml" in
      let baseline = Filename.temp_file "anorad_lint" ".baseline" in
      Fun.protect
        ~finally:(fun () -> Sys.remove baseline)
        (fun () ->
          write_file baseline
            (Printf.sprintf "# grandfathered\nrandom:%s:1\n" bad);
          let code, _ =
            anorad
              (Printf.sprintf "lint --baseline %s %s"
                 (Filename.quote baseline) (Filename.quote lib))
          in
          check_int "baselined finding exits 0" 0 code;
          (* A baseline for a different line does not mask the finding. *)
          write_file baseline (Printf.sprintf "random:%s:99\n" bad);
          let code, _ =
            anorad
              (Printf.sprintf "lint --baseline %s %s"
                 (Filename.quote baseline) (Filename.quote lib))
          in
          check_int "stale baseline still fails" 1 code);
      let code, _ =
        anorad
          (Printf.sprintf "lint --baseline /nonexistent.baseline %s"
             (Filename.quote lib))
      in
      check_int "missing baseline exits 2" 2 code)

(* ------------------------------------------------------------------ *)
(* mc                                                                  *)
(* ------------------------------------------------------------------ *)

let test_mc_verify () =
  with_family "h" 2 (fun path ->
      let code, out = anorad ("mc " ^ Filename.quote path ^ " --replay") in
      check_int "feasible verifies with exit 0" 0 code;
      check "canonical leader" true (contains out "elected node 0");
      check "replay matches" true (contains out "matches bit-for-bit");
      check "invariants hold" true (contains out "model invariants hold"));
  with_family "s" 2 (fun path ->
      let code, out = anorad ("mc " ^ Filename.quote path) in
      check_int "infeasible non-election is exit 0" 0 code;
      check "symmetric terminal state" true (contains out "non-election"))

let test_mc_mutant_violation () =
  with_family "h" 2 (fun path ->
      let code, out =
        anorad ("mc " ^ Filename.quote path ^ " --protocol mutant-greedy-decision")
      in
      check_int "safety violation exits 1" 1 code;
      check "two leaders named" true (contains out "two leaders elected");
      check "counterexample printed" true (contains out "counterexample"));
  with_family "h" 2 (fun path ->
      let code, out =
        anorad ("mc " ^ Filename.quote path ^ " --protocol mutant-early-stop")
      in
      check_int "liveness violation exits 1" 1 code;
      check "no leader reported" true (contains out "no leader"))

let test_mc_usage_and_budget () =
  let code, _ = anorad "mc" in
  check_int "missing CONFIG exits 2" 2 code;
  with_family "h" 2 (fun path ->
      let code, out =
        anorad ("mc " ^ Filename.quote path ^ " --protocol no-such-machine")
      in
      check_int "unknown protocol exits 2" 2 code;
      ignore out;
      let code, out = anorad ("mc " ^ Filename.quote path ^ " --depth 1") in
      check_int "depth budget exits 2" 2 code;
      check "budget named" true (contains out "budget exhausted"))

let test_mc_sarif () =
  with_family "h" 2 (fun path ->
      let code, out =
        anorad
          ("mc " ^ Filename.quote path
         ^ " --protocol mutant-greedy-decision --sarif -")
      in
      check_int "violation exits 1" 1 code;
      check "sarif version" true (contains out "\"version\":\"2.1.0\"");
      check "mc rule id" true (contains out "\"ruleId\":\"mc-two-leaders\"");
      let code, out = anorad ("mc " ^ Filename.quote path ^ " --sarif -") in
      check_int "verified exits 0" 0 code;
      check "empty results" true (contains out "\"results\":[]"))

let test_mc_explore_and_oracle () =
  with_family "s" 2 (fun path ->
      let code, out =
        anorad ("mc " ^ Filename.quote path ^ " --explore --depth 8")
      in
      check_int "explore exit" 0 code;
      check "no separation on infeasible" true (contains out "no separation");
      check "depth exhaustion is conclusive" true
        (contains out "conclusive at depth 8");
      check "footprint reported" true (contains out "visited set");
      (* A tripped state cap is a different, non-conclusive verdict. *)
      let code, out =
        anorad
          ("mc " ^ Filename.quote path
         ^ " --explore --depth 8 --state-cap 20")
      in
      check_int "cap trip exit 2" 2 code;
      check "cap trip named" true (contains out "inconclusive: state cap");
      check "remedy suggested" true (contains out "raise --state-cap"));
  with_family "h" 1 (fun path ->
      let code, out =
        anorad ("mc " ^ Filename.quote path ^ " --explore --depth 12")
      in
      check_int "explore exit" 0 code;
      check "separation found" true (contains out "separation:"));
  let code, out = anorad "mc --oracle 3" in
  check_int "oracle consistent exit 0" 0 code;
  check "agreement reported" true (contains out "agree everywhere")

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

(* A request stream exercising every request kind plus a malformed line;
   responses are newline-delimited JSON on stdout (docs/SERVE.md). *)
let serve_script =
  String.concat ""
    [
      {|{"id":1,"kind":"classify","config":"config 4\ntags 2 0 0 3\n0 1\n1 2\n2 3\n"}|};
      "\n";
      {|{"id":2,"kind":"elect","config":"config 4\ntags 2 0 0 3\n0 1\n1 2\n2 3\n"}|};
      "\n";
      {|{"id":3,"kind":"simulate","config":"config 4\ntags 2 0 0 3\n0 1\n1 2\n2 3\n"}|};
      "\n";
      {|{"id":4,"kind":"mc-check","config":"config 4\ntags 2 0 0 3\n0 1\n1 2\n2 3\n"}|};
      "\n";
      "this is not json\n";
      {|{"id":5,"kind":"stats"}|};
      "\n";
    ]

let with_script f =
  let path = Filename.temp_file "anorad_serve" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path serve_script;
      f path)

let serve_stdio script args =
  run_cmd
    (Printf.sprintf "%s serve --stdio %s < %s" (Filename.quote binary) args
       (Filename.quote script))

let test_serve_stdio () =
  with_script (fun script ->
      let code, out = serve_stdio script "" in
      check_int "serve exit" 0 code;
      let lines = String.split_on_char '\n' (String.trim out) in
      check_int "one response per request" 6 (List.length lines);
      check "classify answered" true (contains out "\"kind\":\"classify\"");
      check "leader elected" true (contains out "\"leader\":1");
      check "malformed line answered" true
        (contains out "\"status\":\"error\"");
      check "stats answered" true (contains out "\"total\":6"))

(* The headline serve invariant end to end: the same request stream is
   byte-identical at every --jobs level and every cache state. *)
let test_serve_determinism () =
  with_script (fun script ->
      let _, base = serve_stdio script "--jobs 1" in
      let _, par = serve_stdio script "--jobs 2" in
      check "jobs 2 = jobs 1" true (String.equal base par);
      let _, cold = serve_stdio script "--cache-entries 0" in
      check "no cache = cached" true (String.equal base cold);
      let _, tiny = serve_stdio script "--max-batch 1" in
      check "batch 1 = batch 64" true (String.equal base tiny))

let test_serve_usage () =
  let code, _ = run_cmd (Filename.quote binary ^ " serve < /dev/null") in
  check_int "no transport exits 2" 2 code;
  let code, _ =
    run_cmd
      (Filename.quote binary ^ " serve --stdio --socket /tmp/x.sock < /dev/null")
  in
  check_int "both transports exits 2" 2 code;
  let code, out = anorad "serve --help=plain" in
  check_int "help exit" 0 code;
  check "documents --stdio" true (contains out "--stdio");
  check "documents --socket" true (contains out "--socket");
  check "documents --cache-entries" true (contains out "--cache-entries")

let test_mc_help () =
  let code, out = anorad "mc --help=plain" in
  check_int "help exit" 0 code;
  check "documents exit 1" true (contains out "counterexample");
  check "documents --explore" true (contains out "--explore");
  check "documents --oracle" true (contains out "--oracle")

let () =
  Alcotest.run "cli"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "family" `Quick test_family_output;
          Alcotest.test_case "classify exits" `Quick test_classify_exit_codes;
          Alcotest.test_case "elect" `Quick test_elect;
          Alcotest.test_case "compile/run-plan" `Quick
            test_compile_run_plan_roundtrip;
          Alcotest.test_case "repair" `Quick test_repair;
          Alcotest.test_case "audit" `Quick test_audit;
          Alcotest.test_case "census" `Quick test_census_cli;
          Alcotest.test_case "--jobs determinism" `Quick test_jobs_cli;
          Alcotest.test_case "catalog" `Quick test_catalog_cli;
          Alcotest.test_case "optimal" `Quick test_optimal_cli;
          Alcotest.test_case "refute" `Quick test_refute_cli;
          Alcotest.test_case "explain --dot" `Quick test_explain_dot_cli;
          Alcotest.test_case "trace" `Quick test_trace_cli;
          Alcotest.test_case "bad input" `Quick test_bad_input;
          Alcotest.test_case "invalid config" `Quick test_invalid_config;
          Alcotest.test_case "faults" `Quick test_faults_cli;
          Alcotest.test_case "faults --supervise" `Quick
            test_faults_supervise_cli;
          Alcotest.test_case "resilience" `Quick test_resilience_cli;
          Alcotest.test_case "churn" `Quick test_churn_cli;
          Alcotest.test_case "check-trace --plan" `Quick
            test_check_trace_plan_cli;
        ] );
      ( "lint",
        [
          Alcotest.test_case "--help exit codes" `Quick test_lint_help;
          Alcotest.test_case "clean/findings/usage exits" `Quick
            test_lint_clean_and_findings;
          Alcotest.test_case "--deep witness chain" `Quick
            test_lint_deep_witness_chain;
          Alcotest.test_case "--effects escape check" `Quick
            test_lint_effects;
          Alcotest.test_case "effects listing and census" `Quick
            test_effects_cmd;
          Alcotest.test_case "--sarif stdout" `Quick test_lint_sarif_stdout;
          Alcotest.test_case "--baseline" `Quick test_lint_baseline;
        ] );
      ( "serve",
        [
          Alcotest.test_case "stdio round-trip" `Quick test_serve_stdio;
          Alcotest.test_case "stream determinism" `Quick
            test_serve_determinism;
          Alcotest.test_case "usage and help" `Quick test_serve_usage;
        ] );
      ( "mc",
        [
          Alcotest.test_case "verify exits" `Quick test_mc_verify;
          Alcotest.test_case "mutant violations" `Quick
            test_mc_mutant_violation;
          Alcotest.test_case "usage and budget exits" `Quick
            test_mc_usage_and_budget;
          Alcotest.test_case "--sarif" `Quick test_mc_sarif;
          Alcotest.test_case "--explore and --oracle" `Quick
            test_mc_explore_and_oracle;
          Alcotest.test_case "--help" `Quick test_mc_help;
        ] );
    ]
