(* The serve subsystem: JSON codec round-trips, protocol fuzz/negative
   cases (malformed JSON, unknown kinds, oversized configs, mid-stream
   EOF), the canonical cache key, and the headline determinism contract —
   a shuffled-then-replayed request stream yields byte-identical
   per-request responses cold vs warm and at jobs 1/2/4 (docs/SERVE.md). *)

module J = Radio_serve.Json
module P = Radio_serve.Protocol
module Cache = Radio_serve.Cache
module Service = Radio_serve.Service
module Server = Radio_serve.Server
module Can = Election.Canonical
module C = Radio_config.Config
module G = Radio_graph.Graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let samples =
    [
      {|null|};
      {|true|};
      {|-42|};
      {|"a\nb\"c\\d"|};
      {|[1,2,[],{"x":null}]|};
      {|{"id":7,"kind":"classify","config":"config 1\ntags 0\n"}|};
    ]
  in
  List.iter
    (fun s ->
      match J.parse s with
      | Error e -> Alcotest.failf "parse %s: %s" s e.J.message
      | Ok v -> (
          let printed = J.to_string v in
          match J.parse printed with
          | Error e -> Alcotest.failf "reparse %s: %s" printed e.J.message
          | Ok v' ->
              check_string "print/parse/print fixpoint" printed (J.to_string v')))
    samples

let test_json_unicode () =
  match J.parse {|"\u00e9\ud83d\ude00"|} with
  | Error e -> Alcotest.failf "unicode: %s" e.J.message
  | Ok (J.Str s) ->
      check_string "utf8 bytes" "\xc3\xa9\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected string"

let test_json_negative () =
  let cases =
    [
      ("", "unexpected end of input");
      ("{", "end of input");
      ("[1,]", "unexpected character");
      ("1.5", "non-integer");
      ("{\"a\":1,\"a\":2}", "duplicate key");
      ("\"ab", "unterminated string");
      ("\"\\q\"", "invalid escape");
      ("nulL", "expected \"null\"");
      ("{} trailing", "trailing input");
      ("\"\\ud800x\"", "surrogate");
    ]
  in
  List.iter
    (fun (src, frag) ->
      match J.parse src with
      | Ok _ -> Alcotest.failf "accepted %S" src
      | Error e ->
          check (Printf.sprintf "%S -> %s (got %s)" src frag e.J.message) true
            (contains e.J.message frag);
          check "column positive" true (e.J.column >= 1))
    cases

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  check "a present" true (Cache.find c "a" = Some 1);
  (* "a" is now most recent; adding "c" evicts "b" *)
  Cache.add c "c" 3;
  check "b evicted" true (Cache.find c "b" = None);
  check "a kept" true (Cache.find c "a" = Some 1);
  check "c kept" true (Cache.find c "c" = Some 3);
  check_int "evictions" 1 (Cache.evictions c);
  check_int "length" 2 (Cache.length c)

let test_cache_disabled () =
  let c = Cache.create ~capacity:0 in
  Cache.add c "a" 1;
  check "disabled cache never hits" true (Cache.find c "a" = None);
  check_int "no entries" 0 (Cache.length c)

(* ------------------------------------------------------------------ *)
(* Canonical cache key                                                 *)
(* ------------------------------------------------------------------ *)

(* Deterministic xorshift so the test needs no global RNG state. *)
let rng seed =
  let s = ref (seed lor 1) in
  fun bound ->
    s := !s lxor (!s lsl 13);
    s := !s lxor (!s lsr 7);
    s := !s lxor (!s lsl 17);
    abs !s mod bound

let random_perm rand n =
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = rand (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

let test_cache_key_iso_invariant () =
  let rand = rng 0x5eed in
  let base =
    [
      C.create (G.of_edges 4 [ (0, 1); (1, 2); (2, 3) ]) [| 2; 0; 0; 3 |];
      C.create (G.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ]) [| 0; 0; 1; 1; 2 |];
      C.create (G.of_edges 6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3); (0, 3) ]) [| 1; 0; 0; 1; 0; 0 |];
    ]
  in
  List.iter
    (fun c ->
      let key = Can.cache_key c in
      for _ = 1 to 20 do
        let p = random_perm rand (C.size c) in
        let c' = C.relabel c p in
        check_string "cache_key invariant under relabeling" key
          (Can.cache_key c')
      done)
    base;
  (* and the canonical form is a fixpoint: canon of canon = canon *)
  List.iter
    (fun c ->
      let canon, _ = Can.canonical_form c in
      let canon2, perm2 = Can.canonical_form canon in
      check "canonical form is a fixpoint" true (C.equal canon canon2);
      (* [perm2] need not be the identity when the canonical form has
         non-trivial automorphisms (e.g. a cycle); it must still be a
         permutation, and relabeling by it must leave the form fixed. *)
      let n = C.size canon in
      let seen = Array.make n false in
      Array.iter (fun p -> seen.(p) <- true) perm2;
      Array.iteri
        (fun i s -> check ("fixpoint perm covers " ^ string_of_int i) true s)
        seen;
      check_string "fixpoint perm is an automorphism" (Can.raw_key canon)
        (Can.raw_key (C.relabel canon perm2)))
    base

let test_cache_key_separates () =
  let a = C.create (G.of_edges 3 [ (0, 1); (1, 2) ]) [| 0; 0; 1 |] in
  let b = C.create (G.of_edges 3 [ (0, 1); (1, 2) ]) [| 0; 1; 0 |] in
  check "different configs, different keys" true
    (Can.cache_key a <> Can.cache_key b)

(* ------------------------------------------------------------------ *)
(* Protocol negatives                                                  *)
(* ------------------------------------------------------------------ *)

let err_of line =
  match (P.parse line).P.request with
  | Error e -> e
  | Ok _ -> Alcotest.failf "accepted %S" line

let test_protocol_negative () =
  let e = err_of "{\"kind\":\"warble\"}" in
  check "unknown kind listed" true (contains e.P.message "unknown request kind");
  check "known kinds listed" true (contains e.P.message "mc-check");
  let e = err_of "{\"kind\":\"classify\"}" in
  check "missing config" true (contains e.P.message "missing field \"config\"");
  let e = err_of "{\"kind\":\"classify\",\"config\":\"config 0\\n\"}" in
  check "invalid config" true (contains e.P.message "invalid config");
  let e = err_of "{\"kind\":\"classify\",\"config\":\"config 1\\ntags 0\\n\",\"depth\":3}" in
  check "field rejected per kind" true (contains e.P.message "unknown field");
  let e = err_of "{\"kind\":\"elect\",\"config\":\"config 1\\ntags 0\\n\",\"max_rounds\":0}" in
  check "nonpositive max_rounds" true (contains e.P.message "must be positive");
  let e = err_of "{\"kind\":\"mc-check\",\"config\":\"config 1\\ntags 0\\n\",\"protocol\":\"nope\"}" in
  check "unknown protocol" true (contains e.P.message "unknown protocol");
  let e = err_of "not json at all" in
  check "json error positioned" true (e.P.column <> None);
  let big = String.make (P.max_config_bytes + 1) 'x' in
  let e = err_of (Printf.sprintf "{\"kind\":\"classify\",\"config\":%s}" (J.to_string (J.Str big))) in
  check "oversized config" true (contains e.P.message "config too large")

let test_protocol_id_echo () =
  let p = P.parse "{\"id\":\"req-1\",\"kind\":\"stats\"}" in
  check "id echoed" true (p.P.id = J.Str "req-1");
  check "stats parsed" true (match p.P.request with Ok P.Stats -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Service / server determinism                                        *)
(* ------------------------------------------------------------------ *)

let family_h2 = "config 4\ntags 2 0 0 3\n0 1\n1 2\n2 3\n"
let triangle = "config 3\ntags 0 0 0\n0 1\n1 2\n2 0\n"  (* infeasible *)
let star = "config 4\ntags 1 0 0 0\n0 1\n0 2\n0 3\n"
let h2_reversed = "config 4\ntags 3 0 0 2\n0 1\n1 2\n2 3\n"

let quote s = J.to_string (J.Str s)

let request_lines =
  [
    Printf.sprintf "{\"id\":1,\"kind\":\"classify\",\"config\":%s}" (quote family_h2);
    Printf.sprintf "{\"id\":2,\"kind\":\"classify\",\"config\":%s}" (quote triangle);
    Printf.sprintf "{\"id\":3,\"kind\":\"elect\",\"config\":%s}" (quote family_h2);
    Printf.sprintf "{\"id\":4,\"kind\":\"simulate\",\"config\":%s,\"max_rounds\":500}" (quote star);
    Printf.sprintf "{\"id\":5,\"kind\":\"mc-check\",\"config\":%s}" (quote family_h2);
    Printf.sprintf "{\"id\":6,\"kind\":\"classify\",\"config\":%s}" (quote h2_reversed);
    Printf.sprintf "{\"id\":7,\"kind\":\"elect\",\"config\":%s}" (quote star);
    "{\"id\":8,\"kind\":\"classify\"}";
    "broken json";
    Printf.sprintf "{\"id\":9,\"kind\":\"simulate\",\"config\":%s}" (quote triangle);
  ]

let opts ?(cache = 64) ?(jobs = 1) ?(max_batch = 64) () =
  {
    Server.default_options with
    Server.jobs = Some jobs;
    cache_entries = cache;
    max_batch;
  }

let serve ?service ?(cache = 64) ?(jobs = 1) ?(max_batch = 64) lines =
  Server.run_string ?service (opts ~cache ~jobs ~max_batch ())
    (String.concat "\n" lines ^ "\n")

(* Responses paired back to their request line, so streams can be compared
   per-request even after shuffling.  Distinct request lines in
   [request_lines] have distinct ids, and responses preserve order. *)
let response_map lines output =
  let responses = String.split_on_char '\n' (String.trim output) in
  check_int "one response per request" (List.length lines) (List.length responses);
  List.combine lines responses

let test_shuffled_replay_deterministic () =
  let rand = rng 0xCAFE in
  let baseline = response_map request_lines (serve request_lines) in
  let expect line =
    match List.assoc_opt line baseline with
    | Some r -> r
    | None -> Alcotest.fail "request missing from baseline"
  in
  let shuffle l =
    let a = Array.of_list l in
    let p = random_perm rand (Array.length a) in
    Array.to_list (Array.map (fun i -> a.(i)) p)
  in
  List.iter
    (fun jobs ->
      List.iter
        (fun cache ->
          (* shuffled stream, then the original replayed on the same warm
             service: every response must equal the cold baseline's *)
          let service = Service.create ~cache_entries:cache in
          let shuffled = shuffle request_lines in
          let first = serve ~service ~cache ~jobs shuffled in
          List.iter
            (fun (line, resp) ->
              check_string
                (Printf.sprintf "shuffled (jobs=%d cache=%d)" jobs cache)
                (expect line) resp)
            (response_map shuffled first);
          let second = serve ~service ~cache ~jobs request_lines in
          List.iter
            (fun (line, resp) ->
              check_string
                (Printf.sprintf "warm replay (jobs=%d cache=%d)" jobs cache)
                (expect line) resp)
            (response_map request_lines second))
        [ 0; 64 ])
    [ 1; 2; 4 ]

let test_batch_size_invariant () =
  let baseline = serve ~max_batch:1 request_lines in
  List.iter
    (fun max_batch ->
      check_string
        (Printf.sprintf "max_batch=%d" max_batch)
        baseline
        (serve ~max_batch request_lines))
    [ 2; 3; 64 ]

let test_iso_requests_share_cache () =
  let service = Service.create ~cache_entries:64 in
  let lines =
    [
      Printf.sprintf "{\"id\":1,\"kind\":\"classify\",\"config\":%s}" (quote family_h2);
      Printf.sprintf "{\"id\":2,\"kind\":\"classify\",\"config\":%s}" (quote h2_reversed);
    ]
  in
  ignore (serve ~service lines);
  let tel = Service.telemetry service in
  check_int "isomorphic request hits the same entry" 1 tel.Service.cache_hits;
  check_int "one analysis computed" 1 tel.Service.cache_misses;
  check_int "one cache entry" 1 tel.Service.cache_entries

let test_iso_equivariant_leader () =
  (* h2 reversed is h2 relabeled by v -> 3 - v: the elected node must be
     the same physical node, i.e. ids map through the relabeling. *)
  let leader_of config =
    let out =
      serve [ Printf.sprintf "{\"id\":0,\"kind\":\"classify\",\"config\":%s}" (quote config) ]
    in
    match J.parse (String.trim out) with
    | Ok o -> (
        match Option.bind (J.member "result" o) (J.member "leader") with
        | Some (J.Int v) -> v
        | _ -> Alcotest.fail "no leader in response")
    | Error _ -> Alcotest.fail "unparseable response"
  in
  let a = leader_of family_h2 in
  let b = leader_of h2_reversed in
  check_int "leader maps through the relabeling" (3 - a) b

let test_stats_prefix_exact () =
  let lines =
    [
      Printf.sprintf "{\"id\":1,\"kind\":\"classify\",\"config\":%s}" (quote family_h2);
      "junk";
      "{\"id\":2,\"kind\":\"stats\"}";
      Printf.sprintf "{\"id\":3,\"kind\":\"classify\",\"config\":%s}" (quote family_h2);
      "{\"id\":4,\"kind\":\"stats\"}";
    ]
  in
  let out = serve lines in
  let stats_results =
    List.filter_map
      (fun line ->
        match J.parse line with
        | Ok o when J.member "kind" o = Some (J.Str "stats") ->
            J.member "result" o
        | _ -> None)
      (String.split_on_char '\n' (String.trim out))
  in
  match stats_results with
  | [ first; second ] ->
      check "first stats counts its prefix" true
        (J.member "total" first = Some (J.Int 3));
      check "second stats counts the full stream" true
        (J.member "total" second = Some (J.Int 5));
      check "errors counted" true (J.member "errors" first = Some (J.Int 1))
  | _ -> Alcotest.fail "expected two stats responses"

let test_edge_faults_answered () =
  (* A self-loop, a duplicate edge and an out-of-range endpoint are
     malformed configs like any other: each gets its own error response
     and the daemon stays up to answer the stats line after them. *)
  let bad edges = Printf.sprintf "config 3\ntags 0 1 2\n%s" edges in
  let lines =
    [
      Printf.sprintf "{\"id\":1,\"kind\":\"classify\",\"config\":%s}"
        (quote (bad "0 0\n1 2\n"));
      Printf.sprintf "{\"id\":2,\"kind\":\"elect\",\"config\":%s}"
        (quote (bad "0 1\n1 0\n"));
      Printf.sprintf "{\"id\":3,\"kind\":\"simulate\",\"config\":%s}"
        (quote (bad "0 1\n1 5\n"));
      "{\"id\":4,\"kind\":\"stats\"}";
    ]
  in
  let responses = String.split_on_char '\n' (String.trim (serve lines)) in
  check_int "one response per line" 4 (List.length responses);
  List.iteri
    (fun i r ->
      if i < 3 then
        check "invalid config error" true
          (contains r "\"status\":\"error\"" && contains r "invalid config"))
    responses;
  match J.parse (List.nth responses 3) with
  | Ok o -> (
      match J.member "result" o with
      | Some result ->
          check "stats answered after the faults" true
            (J.member "total" result = Some (J.Int 4));
          check "faults counted as errors" true
            (J.member "errors" result = Some (J.Int 3))
      | None -> Alcotest.fail "stats response without a result")
  | Error _ -> Alcotest.fail "stats response is not JSON"

let test_eof_mid_line () =
  (* final line missing its newline is still answered; the response stream
     stays well-formed *)
  let input =
    Printf.sprintf "{\"id\":1,\"kind\":\"classify\",\"config\":%s}\n{\"id\":2,\"kind\":\"sta"
      (quote family_h2)
  in
  let out = Server.run_string (opts ()) input in
  let lines = String.split_on_char '\n' (String.trim out) in
  check_int "two responses" 2 (List.length lines);
  check "truncated request answered with an error" true
    (contains (List.nth lines 1) "\"status\":\"error\"")

let test_mc_check_agrees_with_classify () =
  (* canonical routing: the leader reported by classify, elect and
     mc-check must be the same node (docs/SERVE.md) *)
  List.iter
    (fun config ->
      let out =
        serve
          [
            Printf.sprintf "{\"id\":1,\"kind\":\"classify\",\"config\":%s}" (quote config);
            Printf.sprintf "{\"id\":2,\"kind\":\"elect\",\"config\":%s}" (quote config);
            Printf.sprintf "{\"id\":3,\"kind\":\"mc-check\",\"config\":%s}" (quote config);
          ]
      in
      let leaders =
        List.filter_map
          (fun line ->
            match J.parse line with
            | Ok o -> (
                let r = J.member "result" o in
                match Option.bind r (J.member "leader") with
                | Some (J.Int v) -> Some v
                | _ -> (
                    match
                      Option.bind
                        (Option.bind r (J.member "verdict"))
                        (J.member "leader")
                    with
                    | Some (J.Int v) -> Some v
                    | _ -> None))
            | Error _ -> None)
          (String.split_on_char '\n' (String.trim out))
      in
      match leaders with
      | [ a; b; c ] ->
          check_int "classify = elect" a b;
          check_int "classify = mc-check" a c
      | _ -> Alcotest.fail "expected three leaders")
    [ family_h2; h2_reversed; star ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "unicode" `Quick test_json_unicode;
          Alcotest.test_case "negative" `Quick test_json_negative;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru;
          Alcotest.test_case "capacity 0 disables" `Quick test_cache_disabled;
          Alcotest.test_case "key iso-invariant" `Quick
            test_cache_key_iso_invariant;
          Alcotest.test_case "key separates" `Quick test_cache_key_separates;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "negative" `Quick test_protocol_negative;
          Alcotest.test_case "id echo" `Quick test_protocol_id_echo;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "shuffled replay, jobs x cache" `Slow
            test_shuffled_replay_deterministic;
          Alcotest.test_case "batch size invariant" `Quick
            test_batch_size_invariant;
          Alcotest.test_case "iso requests share cache" `Quick
            test_iso_requests_share_cache;
          Alcotest.test_case "iso-equivariant leader" `Quick
            test_iso_equivariant_leader;
          Alcotest.test_case "stats prefix exact" `Quick test_stats_prefix_exact;
          Alcotest.test_case "eof mid-line" `Quick test_eof_mid_line;
          Alcotest.test_case "edge faults answered" `Quick
            test_edge_faults_answered;
          Alcotest.test_case "mc-check agrees with classify" `Slow
            test_mc_check_agrees_with_classify;
        ] );
    ]
