(* In-process helper of the benchmark (perfbench/run.py drives it).

     tool meta                          OCaml version and GC parameters
     tool serve-ref IN OUT              reference answers for a serve stream
     tool mc-ref LIST WANTED OUT        jobs-1 explore stats, seeded depths
     tool churn-ref LIST OUTDIR         cold reference churn reports
     tool trace DIR GC_WORKLOAD JOBS REPEAT_WINDOW COLD_WINDOW
                                        traced per-layer replay

   Reference answers come from the library called directly: the serve
   stream through Server.run_string at jobs 1 with the cache off, each
   feasibility verdict against the reference classifier, explores without
   a pool, churn runs in a fresh process. *)

module C = Radio_config.Config
module CIo = Radio_config.Config_io
module Can = Election.Canonical
module Fe = Election.Feasibility
module Json = Radio_serve.Json
module Protocol = Radio_serve.Protocol
module Server = Radio_serve.Server
module Service = Radio_serve.Service
module Cache = Radio_serve.Cache
module Checker = Radio_mc.Checker
module Pool = Radio_exec.Pool
module FP = Radio_faults.Fault_plan
module Churn = Radio_faults.Churn
module I = Election.Incremental
module T = Tracer

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let words l = String.split_on_char ' ' l |> List.filter (fun w -> w <> "")

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("tool: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)

let meta () =
  let g = Gc.get () in
  let gc =
    [
      ("minor_heap_size", g.minor_heap_size); ("space_overhead", g.space_overhead);
      ("max_overhead", g.max_overhead); ("stack_limit", g.stack_limit);
      ("allocation_policy", g.allocation_policy); ("window_size", g.window_size);
      ("custom_major_ratio", g.custom_major_ratio);
      ("custom_minor_ratio", g.custom_minor_ratio);
      ("custom_minor_max_size", g.custom_minor_max_size);
    ]
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("ocaml_version", Json.Str Sys.ocaml_version);
            ("gc", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) gc));
          ]))

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let config_of = function
  | Protocol.Classify { config }
  | Elect { config; _ }
  | Simulate { config; _ }
  | Mc_check { config; _ } ->
      Some config
  | Stats -> None

(* Protocol.parse raises on some malformed configs (self-loops, duplicate
   edges, out-of-range vertices), which kills the daemon; such a line has
   no reference answer. *)
let parse_line line =
  match Protocol.parse line with p -> Some p | exception _ -> None

let result_field resp name =
  match Json.parse resp with
  | Ok obj -> (
      match Json.member "result" obj with
      | Some r -> Json.member name r
      | None -> None)
  | Error _ -> None

let serve_ref in_path out_path =
  let lines = Array.of_list (read_lines in_path) in
  let parsed = Array.map parse_line lines in
  (* kept lines in order, each with the template it answers and, for
     elect, a twin classify of the same config for the leader check *)
  let kept = ref [] in
  Array.iteri
    (fun i p ->
      match p with
      | None -> ()
      | Some (p : Protocol.parsed) -> (
          kept := (i, `Own, lines.(i)) :: !kept;
          match p.request with
          | Ok (Protocol.Elect { config; _ }) ->
              let twin =
                Json.to_string
                  (Json.Obj
                     [
                       ("id", Json.Int i);
                       ("kind", Json.Str "classify");
                       ("config", Json.Str (CIo.to_string config));
                     ])
              in
              kept := (i, `Twin, twin) :: !kept
          | _ -> ()))
    parsed;
  let kept = List.rev !kept in
  let input = String.concat "\n" (List.map (fun (_, _, l) -> l) kept) ^ "\n" in
  let opts =
    { Server.jobs = Some 1; cache_entries = 0; max_batch = 64; stats_every = 0 }
  in
  let out = Server.run_string opts input |> String.split_on_char '\n' in
  let own = Array.make (Array.length lines) "" in
  let twin = Array.make (Array.length lines) "" in
  let rec assign kept out =
    match (kept, out) with
    | (i, which, _) :: kept, r :: out ->
        (match which with `Own -> own.(i) <- r | `Twin -> twin.(i) <- r);
        assign kept out
    | _ -> ()
  in
  assign kept out;
  let check i (p : Protocol.parsed) =
    let resp = own.(i) in
    let feasible_ok config =
      match result_field resp "feasible" with
      | Some (Json.Bool f) -> f = Fe.is_feasible ~impl:`Reference config
      | _ -> false
    in
    match p.request with
    | Ok (Protocol.Classify { config }) ->
        if feasible_ok config then "ok" else "classify feasible differs from the reference classifier"
    | Ok (Protocol.Elect { config; _ }) ->
        if not (feasible_ok config) then "elect feasible differs from the reference classifier"
        else if result_field resp "leader" <> result_field twin.(i) "leader" then
          "elect leader differs from the classify leader"
        else "ok"
    | _ -> if resp = "" then "no reference response" else "ok"
  in
  Out_channel.with_open_bin out_path (fun oc ->
      Array.iteri
        (fun i p ->
          let line =
            match p with
            | None -> Json.Obj [ ("crash", Json.Bool true) ]
            | Some p ->
                Json.Obj
                  [
                    ("crash", Json.Bool false);
                    ("response", Json.Str own.(i));
                    ("check", Json.Str (check i p));
                  ]
          in
          output_string oc (Json.to_string line);
          output_char oc '\n')
        parsed)

(* ------------------------------------------------------------------ *)
(* mc --explore                                                        *)

let explore ?pool ?progress ~depth config =
  Checker.explore ~depth ~faults:1 ?pool ?progress config

let conclusive (e : Checker.exploration) =
  e.separated_at <> None || e.exhausted <> Some `States

let stats_line name depth (e : Checker.exploration) =
  let s = e.stats in
  Printf.sprintf "%s %d %d %d %d %d %d %d %d %d %d" name depth s.states_explored
    s.states_raw s.peak_frontier s.depth_reached s.distinct_keys s.automorphisms
    s.canonicalizations s.visited_bytes
    (if conclusive e then 1 else 0)

(* Fixed ops run at their depth; a seeded candidate runs at the first depth
   whose raw state count reaches [lo], and is kept if that count is at
   most [hi] and the explore is conclusive. *)
let mc_ref list wanted out_path =
  let accepted = ref 0 in
  let out = ref [] in
  List.iter
    (fun l ->
      match words l with
      | [ "fixed"; name; path; depth ] ->
          let depth = int_of_string depth in
          out := stats_line name depth (explore ~depth (CIo.read_file path)) :: !out
      | [ "cand"; name; path; lo; hi ] when !accepted < wanted ->
          let config = CIo.read_file path in
          let lo = int_of_string lo and hi = int_of_string hi in
          let rec go depth =
            if depth <= 24 then begin
              let e = explore ~depth config in
              if e.stats.states_raw >= lo then begin
                if e.stats.states_raw <= hi && conclusive e then begin
                  incr accepted;
                  out := stats_line name depth e :: !out
                end
              end
              else if e.exhausted <> None then go (depth + 1)
            end
          in
          go 1
      | [ "cand"; _; _; _; _ ] -> ()
      | _ -> die "mc-ref: bad line %S" l)
    (read_lines list);
  Out_channel.with_open_bin out_path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) (List.rev !out))

(* ------------------------------------------------------------------ *)
(* churn                                                               *)

(* The exact stdout of `anorad churn CONFIG --plan PLAN --horizon H`. *)
let churn_report config plan horizon =
  Format.asprintf "schedule (%d events):@.@[<v>%a@]@." (List.length plan) FP.pp plan
  ^ Format.asprintf "%a@?" Churn.pp (Churn.run ~plan ~horizon config)

let churn_ref list outdir =
  List.iter
    (fun l ->
      match words l with
      | [ name; cfg; plan; horizon ] ->
          let report =
            churn_report (CIo.read_file cfg) (FP.read_file plan)
              (int_of_string horizon)
          in
          Out_channel.with_open_bin
            (Filename.concat outdir (name ^ ".out"))
            (fun oc -> output_string oc report)
      | _ -> die "churn-ref: bad line %S" l)
    (read_lines list)

(* ------------------------------------------------------------------ *)
(* traced replay                                                       *)

type counts = {
  mutable requests : int;
  mutable parse_errors : int;
  mutable searched : int;
  mutable with_config : int;
  mutable cache_requests : int;
  mutable iso_repeats : int;
  mutable exact_repeats : int;
  mutable classify_calls : int;
  mutable iterations : int;
  mutable engine_rounds : int;
  mutable engine_transmissions : int;
  mutable node_rounds : int;
  mutable states_raw : int;
  mutable states_explored : int;
  mutable canonicalizations : int;
  mutable visited_bytes : int;
  mutable waves : float list;
  mutable explore_s : float;
  mutable explore_pool_s : float;
  mutable pool_busy : float;
  mutable pool_wall_jobs : float;
  mutable pool_tasks : int;
  mutable pool_steals : int;
  mutable wave_count : int;
  mutable wave_requests : int;
  mutable hit_rate : float;
  mutable evictions : int;
  mutable faulty_rounds : int;
  mutable labels_computed : int;
  mutable labels_reused : int;
  mutable rebuilds : int;
  explored : (int, Checker.stats) Hashtbl.t;  (* no-pool stats by op *)
}

let fresh_counts () =
  {
    requests = 0; parse_errors = 0; searched = 0; with_config = 0;
    cache_requests = 0; iso_repeats = 0; exact_repeats = 0;
    classify_calls = 0; iterations = 0; engine_rounds = 0;
    engine_transmissions = 0; node_rounds = 0; states_raw = 0;
    states_explored = 0; canonicalizations = 0; visited_bytes = 0;
    waves = []; explore_s = 0.; explore_pool_s = 0.; pool_busy = 0.;
    pool_wall_jobs = 0.; pool_tasks = 0; pool_steals = 0; wave_count = 0;
    wave_requests = 0; hit_rate = 0.; evictions = 0; faulty_rounds = 0;
    labels_computed = 0; labels_reused = 0; rebuilds = 0;
    explored = Hashtbl.create 16;
  }

(* Serve layers called one by one, in the order Service runs them.  The
   repeat shares are counted on the stream named by [~shares] only. *)
let serve_layers c ~shares lines =
  let cache = Cache.create ~capacity:256 in
  let seen_exact = Hashtbl.create 1024 and seen_iso = Hashtbl.create 1024 in
  List.iteri
    (fun req line ->
      c.requests <- c.requests + 1;
      match T.span ~req "protocol.parse" (fun () -> Protocol.parse line) with
      | exception _ -> c.parse_errors <- c.parse_errors + 1
      | { request = Error _; _ } -> c.parse_errors <- c.parse_errors + 1
      | { request = Ok r; _ } -> (
          match config_of r with
          | None -> ()
          | Some config -> (
              c.with_config <- c.with_config + 1;
              if C.size config <= Can.iso_cache_bound then c.searched <- c.searched + 1;
              let canon, _perm =
                T.span ~req "canonical.form" (fun () -> Can.canonical_form config)
              in
              let key = T.span ~req "canonical.key" (fun () -> Can.raw_key canon) in
              let analysis () =
                if shares then begin
                  c.cache_requests <- c.cache_requests + 1;
                  let exact = Can.raw_key config in
                  if Hashtbl.mem seen_exact exact then c.exact_repeats <- c.exact_repeats + 1
                  else Hashtbl.replace seen_exact exact ();
                  if Hashtbl.mem seen_iso key then c.iso_repeats <- c.iso_repeats + 1
                  else Hashtbl.replace seen_iso key ()
                end;
                match T.span ~req "cache.lookup" (fun () -> Cache.find cache key) with
                | Some a -> Some a
                | None -> (
                    match
                      T.span ~req "classifier.classify" (fun () ->
                          Election.Fast_classifier.classify canon)
                    with
                    | exception (Failure _ | Invalid_argument _) -> None
                    | run -> (
                        c.classify_calls <- c.classify_calls + 1;
                        c.iterations <- c.iterations + Election.Classifier.num_iterations run;
                        match
                          T.span ~req "feasibility.analyze" (fun () -> Fe.analyze_run run)
                        with
                        | exception (Failure _ | Invalid_argument _) -> None
                        | a ->
                            T.span ~req "cache.insert" (fun () -> Cache.add cache key a);
                            Some a))
              in
              let engine (o : Radio_sim.Engine.outcome) =
                c.engine_rounds <- c.engine_rounds + o.rounds;
                c.engine_transmissions <- c.engine_transmissions + o.metrics.transmissions;
                c.node_rounds <- c.node_rounds + (C.size config * o.rounds)
              in
              match r with
              | Protocol.Classify _ -> ignore (analysis ())
              | Elect { max_rounds; _ } -> (
                  match analysis () with
                  | Some a when a.feasible ->
                      let res =
                        T.span ~req "runner.elect" (fun () ->
                            Radio_sim.Runner.run ~max_rounds (Can.election a.plan) config)
                      in
                      engine res.outcome
                  | _ -> ())
              | Simulate { max_rounds; _ } -> (
                  match analysis () with
                  | Some a ->
                      engine
                        (T.span ~req "engine.run" (fun () ->
                             Radio_sim.Engine.run ~max_rounds (Can.protocol a.plan) config))
                  | None -> ())
              | Mc_check { protocol; depth; states; _ } -> (
                  match Radio_mc.Machine.of_name canon protocol with
                  | Some machine ->
                      ignore
                        (T.span ~req "checker.verify" (fun () ->
                             Checker.verify ?depth ?states ~machine canon))
                  | None -> ())
              | Stats -> ())))
    lines

let chunks n xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

(* The same lines through the server's wave loop, rebuilt from its public
   parts so that each part is timed in this one run: parse the wave's
   lines, Service.process_wave on fixed-size waves, render the response
   block.  Returns the service's cache telemetry. *)
let serve_service c window lines =
  let ok = List.filter (fun l -> parse_line l <> None) lines in
  let service = Service.create ~cache_entries:256 in
  let pool = Pool.sequential () in
  List.iter
    (fun wave ->
      c.wave_count <- c.wave_count + 1;
      c.wave_requests <- c.wave_requests + List.length wave;
      let parsed =
        T.span "server.parse" (fun () -> Array.of_list (List.map Protocol.parse wave))
      in
      let responses =
        T.span "service.wave" (fun () -> Service.process_wave service ~pool parsed)
      in
      T.span "server.render" (fun () ->
          let out = Buffer.create 1024 in
          Array.iter
            (fun r ->
              Buffer.add_string out r;
              Buffer.add_char out '\n')
            responses;
          ignore (Buffer.contents out)))
    (chunks window ok);
  Service.telemetry service

let read_ops dir name = read_lines (Filename.concat (Filename.concat dir name) "ops.txt")

let mc_layers c ops =
  List.iteri
    (fun req l ->
      match words l with
      | [ _; path; depth ] ->
          let config = CIo.read_file path and depth = int_of_string depth in
          ignore
            (T.span ~req "symmetry.automorphisms" (fun () ->
                 Election.Symmetry.automorphisms config));
          let last = ref (Unix.gettimeofday ()) in
          let progress ~round:_ ~frontier:_ ~explored:_ ~bytes:_ =
            let now = Unix.gettimeofday () in
            c.waves <- (now -. !last) :: c.waves;
            last := now
          in
          let t0 = Unix.gettimeofday () in
          let e = T.span ~req "checker.explore" (fun () -> explore ~progress ~depth config) in
          c.explore_s <- c.explore_s +. (Unix.gettimeofday () -. t0);
          Hashtbl.replace c.explored req e.stats;
          c.states_raw <- c.states_raw + e.stats.states_raw;
          c.states_explored <- c.states_explored + e.stats.states_explored;
          c.canonicalizations <- c.canonicalizations + e.stats.canonicalizations;
          c.visited_bytes <- max c.visited_bytes e.stats.visited_bytes
      | _ -> die "trace: bad mc op %S" l)
    ops

(* The same explores on a pool of [jobs] workers. *)
let mc_pool c jobs ops =
  List.iteri
    (fun req l ->
      match words l with
      | [ _; path; depth ] ->
          let config = CIo.read_file path and depth = int_of_string depth in
          Pool.with_pool ~jobs (fun pool ->
              let t0 = Unix.gettimeofday () in
              let e =
                T.span ~req "checker.explore_pool" (fun () -> explore ~pool ~depth config)
              in
              if Hashtbl.find_opt c.explored req <> Some e.stats then
                die "trace: explore of %s differs with a pool of %d" path jobs;
              let dt = Unix.gettimeofday () -. t0 in
              let s = Pool.stats pool in
              c.explore_pool_s <- c.explore_pool_s +. dt;
              c.pool_busy <- c.pool_busy +. Array.fold_left ( +. ) 0. s.busy;
              c.pool_wall_jobs <- c.pool_wall_jobs +. (dt *. float_of_int s.jobs);
              c.pool_tasks <- c.pool_tasks + s.tasks;
              c.pool_steals <- c.pool_steals + s.steals)
      | _ -> die "trace: bad mc op %S" l)
    ops

let edit_of : FP.fault -> I.edit option = function
  | Link_down { u; v; _ } -> Some (Remove_edge (u, v))
  | Link_up { u; v; _ } -> Some (Add_edge (u, v))
  | Leave { node; _ } | Crash { node; _ } -> Some (Leave node)
  | Join { node; tag; _ } -> Some (Join (node, tag))
  | Retag { node; tag; _ } -> Some (Set_tag (node, tag))
  | Drop _ | Noise _ | Jitter _ -> None

let churn_layers c ops =
  List.iteri
    (fun req l ->
      match words l with
      | [ _; cfg; plan; horizon ] ->
          let config = CIo.read_file cfg and plan = FP.read_file plan in
          let horizon = int_of_string horizon in
          ignore (T.span ~req "churn.run" (fun () -> Churn.run ~plan ~horizon config));
          let a = Fe.analyze config in
          let o =
            T.span ~req "faulty_engine.run" (fun () ->
                Radio_faults.Faulty_engine.run ~max_rounds:horizon plan
                  (Can.protocol a.plan) config)
          in
          c.faulty_rounds <- c.faulty_rounds + o.base.rounds;
          let st = ref (T.span ~req "incremental.init" (fun () -> I.init config)) in
          List.iter
            (fun f ->
              match edit_of f with
              | None -> ()
              | Some e -> (
                  match T.span ~req "incremental.apply" (fun () -> I.apply !st e) with
                  | exception Invalid_argument _ -> ()
                  | st' ->
                      st := st';
                      let d = I.last st' in
                      c.labels_computed <- c.labels_computed + d.labels_computed;
                      c.labels_reused <- c.labels_reused + d.labels_reused;
                      if d.rebuilt then c.rebuilds <- c.rebuilds + 1))
            (FP.normalize plan)
      | _ -> die "trace: bad churn op %S" l)
    ops

let workloads = [ "serve-repeat"; "serve-cold"; "mc-explore"; "churn-replay" ]

(* One full replay of every workload's trace slice.  Returns the counts
   and, per workload, (ops, minor words, major collections) of its
   sequential part. *)
let replay dir ~jobs ~windows =
  let c = fresh_counts () in
  let gc = Hashtbl.create 4 in
  let measured name ops f =
    let s0 = Gc.quick_stat () in
    f ();
    let s1 = Gc.quick_stat () in
    Hashtbl.replace gc name
      ( ops,
        s1.minor_words -. s0.minor_words,
        s1.major_collections - s0.major_collections )
  in
  let serve name =
    let lines = read_lines (Filename.concat (Filename.concat dir name) "requests.txt") in
    let shares = name = "serve-repeat" in
    measured name (List.length lines) (fun () -> serve_layers c ~shares lines);
    serve_service c (List.assoc name windows) lines
  in
  (* hit rate where answers repeat; evictions where every key is new *)
  c.hit_rate <- Service.hit_rate (serve "serve-repeat");
  c.evictions <- (serve "serve-cold").cache_evictions;
  let mc = read_ops dir "mc-explore" in
  measured "mc-explore" (List.length mc) (fun () -> mc_layers c mc);
  mc_pool c jobs mc;
  let churn = read_ops dir "churn-replay" in
  measured "churn-replay" (List.length churn) (fun () -> churn_layers c churn);
  (c, gc)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let trace dir gc_workload jobs windows =
  if not (List.mem gc_workload workloads) then die "trace: unknown workload %S" gc_workload;
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* untraced, traced, untraced: the overhead is taken against the mean of
     the two untraced replays, so warm-up does not favour either side *)
  let (_, gc), untraced1 = timed (fun () -> replay dir ~jobs ~windows) in
  T.reset ();
  T.enabled := true;
  let (c, _), traced = timed (fun () -> replay dir ~jobs ~windows) in
  T.enabled := false;
  let _, untraced2 = timed (fun () -> replay dir ~jobs ~windows) in
  let untraced = (untraced1 +. untraced2) /. 2. in
  let layers = T.summary () in
  T.write_chrome (Filename.concat dir "trace.json");
  T.write_summary (Filename.concat dir "layers.json") layers;
  let l = T.layer layers in
  let us name = let x = l name in if x.calls = 0 then 0. else x.self_s *. 1e6 /. float_of_int x.calls in
  let w name = let x = l name in if x.calls = 0 then 0. else x.self_words /. float_of_int x.calls in
  let ratio a b = if b = 0. then 0. else a /. b in
  let fi = float_of_int in
  let engine_s = (l "engine.run").self_s +. (l "runner.elect").self_s in
  let layer_self = Hashtbl.fold (fun _ (x : T.layer) acc -> acc +. x.self_s) layers 0. in
  let ops, minor, major = Hashtbl.find gc gc_workload in
  let metrics =
    [
      ("protocol.parse_us", us "protocol.parse");
      ("protocol.parse_words", w "protocol.parse");
      ("protocol.error_share", ratio (fi c.parse_errors) (fi c.requests));
      ("canonical.form_us", us "canonical.form");
      ("canonical.key_us", us "canonical.key");
      ("canonical.searched_share", ratio (fi c.searched) (fi c.with_config));
      ("cache.hit_rate", c.hit_rate);
      ("cache.iso_repeat_share", ratio (fi c.iso_repeats) (fi c.cache_requests));
      ("cache.exact_repeat_share", ratio (fi c.exact_repeats) (fi c.cache_requests));
      ("cache.evictions", fi c.evictions);
      ("classifier.classify_us", us "classifier.classify");
      ("classifier.iterations", fi c.iterations);
      ("classifier.calls", fi c.classify_calls);
      ("classifier.classify_words", w "classifier.classify");
      ("feasibility.analyze_us", us "feasibility.analyze");
      ("feasibility.analyze_words", w "feasibility.analyze");
      ("engine.run_us", us "engine.run");
      ("runner.elect_us", us "runner.elect");
      ("engine.rounds", fi c.engine_rounds);
      ("engine.transmissions", fi c.engine_transmissions);
      ("engine.node_rounds_per_s", ratio (fi c.node_rounds) engine_s);
      ("engine.run_words", w "engine.run");
      ("checker.verify_us", us "checker.verify");
      ("checker.explore_us", us "checker.explore");
      ("checker.states_raw", fi c.states_raw);
      ("checker.states_per_s", ratio (fi c.states_raw) c.explore_s);
      ("checker.states_explored", fi c.states_explored);
      ("checker.canonicalizations", fi c.canonicalizations);
      ("checker.visited_mb", fi c.visited_bytes /. 1_048_576.);
      ("checker.wave_ms_p50", median c.waves *. 1e3);
      ("checker.minor_words_per_state",
        ratio (l "checker.explore").self_words (fi c.states_raw));
      ("symmetry.automorphisms_us", us "symmetry.automorphisms");
      ("pool.tasks", fi c.pool_tasks);
      ("pool.steals", fi c.pool_steals);
      ("pool.busy_share", ratio c.pool_busy c.pool_wall_jobs);
      ("pool.explore_speedup", ratio c.explore_s c.explore_pool_s);
      ("service.wave_us", us "service.wave");
      ("service.wave_size", ratio (fi c.wave_requests) (fi c.wave_count));
      (* the wave loop outside process_wave: parse and render *)
      ("server.io_us",
        ratio (((l "server.parse").self_s +. (l "server.render").self_s) *. 1e6)
          (fi c.wave_requests));
      ("churn.run_us", us "churn.run");
      ("faulty_engine.run_us", us "faulty_engine.run");
      ("faulty_engine.rounds", fi c.faulty_rounds);
      ("incremental.apply_us", us "incremental.apply");
      ("incremental.labels_computed", fi c.labels_computed);
      ("incremental.labels_reused", fi c.labels_reused);
      ("incremental.rebuilds", fi c.rebuilds);
      ("gc.minor_words_per_op", ratio minor (fi ops));
      ("gc.major_collections_per_op", ratio (fi major) (fi ops));
      ("trace.overhead_share", ratio traced untraced);
      ("trace.layer_share", ratio layer_self traced);
    ]
  in
  print_string "{";
  List.iteri
    (fun i (k, v) -> Printf.printf "%s%S:%.17g" (if i > 0 then "," else "") k v)
    metrics;
  print_string "}\n"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "meta" ] -> meta ()
  | [ "serve-ref"; inp; out ] -> serve_ref inp out
  | [ "mc-ref"; list; wanted; out ] -> mc_ref list (int_of_string wanted) out
  | [ "churn-ref"; list; outdir ] -> churn_ref list outdir
  | [ "trace"; dir; gc_workload; jobs; repeat_window; cold_window ] ->
      trace dir gc_workload (int_of_string jobs)
        [ ("serve-repeat", int_of_string repeat_window);
          ("serve-cold", int_of_string cold_window) ]
  | _ -> die "usage: see the header of perfbench/tool.ml"
