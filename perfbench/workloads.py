"""Seeded input generators for the four benchmark workloads.

Every op list is a pure function of (workload, seed, seconds): the seed
draws the inputs, and --seconds fixes how many ops the list holds, so two
runs with the same arguments do identical work.  The generated text is all
that `anorad` sees; nothing here calls into the program.
"""

import functools
import json
import random

# Per workload: generator parameters, window (requests in flight, serve
# only), jobs, and ops per second of --seconds.  The op counts were sized
# so that one run lasts about --seconds on a 2-core x86-64 host.
SPEC = {
    "serve-repeat": {
        "why": "Zipf pool of 150 n4-8 + 150 n16-128 configs, exact or "
               "relabelled; classify/elect/simulate; window 4, jobs 1; 6000 "
               "ops per s of --seconds: cached answers make parse, key, "
               "lookup, render the work",
        "pool_small": 150, "small_n": [4, 8], "pool_large": 150,
        "large_n": [16, 128], "relabellings": 3, "zipf_s": 0.9,
        "kinds": {"classify": 0.4, "elect": 0.3, "simulate": 0.3},
        "exact_share": 0.5,
        "malformed_per_10000": {"bad_json": 40, "unknown_kind": 40, "crash": 5},
        "window": 4, "jobs": 1, "ops_per_second": 6000,
    },
    "serve-cold": {
        "why": "each request a distinct relabelled n16-160 config (G_m, "
               "mirror trees, periodic cycles) + 5% mc-check; window 64, jobs "
               "1; 700 ops per s of --seconds: refinement, compile, engine, "
               "checker dominate",
        "n": [16, 160], "g_m": [4, 16], "mc_check_share": 0.05,
        "mc_check_g_m": [2, 4],
        "kinds": {"classify": 0.34, "elect": 0.33, "simulate": 0.33},
        "malformed_per_10000": {"bad_json": 40, "unknown_kind": 40, "crash": 5},
        "window": 64, "jobs": 1, "ops_per_second": 700,
    },
    "mc-explore": {
        "why": "mc --explore --faults 1, jobs nproc; 7 passes of H_2 d7/d8, "
               "H_3 d8, broken 6-ring d6 + 1 seeded n4-6 config per 10 s: "
               "state packing, canonicalization, visited set, pool waves",
        "fixed": [["h2", 7], ["h2", 8], ["h3", 8], ["ring6_broken", 6]],
        "passes": 7, "seeded_per_pass_per_10s": 1,
        "seeded_n": [4, 6], "seeded_raw_states": [10_000, 1_000_000],
        "candidates_per_op": 6,
        "window": 1, "jobs": "nproc",
    },
    "churn-replay": {
        "why": "anorad churn, n 256/512/1024, 4 link + 2 node flaps, 2 "
               "retags, 1 crash, horizon 400; jobs 1; 5 passes of 2.4 runs "
               "per s of --seconds: the only path through Faulty_engine, "
               "Supervisor, Incremental",
        "sizes": [256, 512, 1024], "extra_edge_share": 0.25, "span": 3,
        "link_flaps": 4, "node_flaps": 2, "retags": 2, "crashes": 1,
        "horizon": 400, "window": 1, "jobs": 1, "passes": 5,
        "ops_per_second": 2.4,
    },
}

# ------------------------------------------------------------------ #
# Configurations, in the `config n / tags ... / u v` text format.      #

def config_text(n, tags, edges):
    lines = ["config %d" % n, "tags " + " ".join(str(t) for t in tags)]
    lines += ["%d %d" % (u, v) for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


def relabel(rng, n, tags, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    new_tags = [0] * n
    for v in range(n):
        new_tags[perm[v]] = tags[v]
    new_edges = [tuple(sorted((perm[u], perm[v]))) for u, v in edges]
    return new_tags, new_edges


def random_connected(rng, n, extra, span):
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    max_edges = n * (n - 1) // 2
    target = min(max_edges, n - 1 + extra)
    while len(edges) < target:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    tags = [rng.randint(0, span) for _ in range(n)]
    tags[rng.randrange(n)] = 0
    return tags, sorted(edges)


def g_path(m):
    """The paper's G_m: path a_1..a_m (tag 0), b_1..b_2m+1 (tag 1),
    c_m..c_1 (tag 0); n = 4m + 1."""
    tags = [0] * m + [1] * (2 * m + 1) + [0] * m
    n = len(tags)
    return tags, [(i, i + 1) for i in range(n - 1)]


def mirror_tree(rng, n):
    """Two copies of a random span-1 tree joined at their roots, either
    directly (swap-symmetric) or through a middle node."""
    middle = rng.random() < 0.5
    k = (n - 1) // 2 if middle else n // 2
    parent = [None] + [rng.randrange(v) for v in range(1, k)]
    half_tags = [rng.randint(0, 1) for _ in range(k)]
    tags = half_tags + half_tags
    edges = []
    for v in range(1, k):
        edges.append((parent[v], v))
        edges.append((k + parent[v], k + v))
    if middle:
        tags.append(rng.randint(0, 1))
        edges += [(0, 2 * k), (k, 2 * k)]
    else:
        edges.append((0, k))
    if min(tags) > 0:
        tags = [t - 1 for t in tags]
    return tags, [tuple(sorted(e)) for e in edges]


def periodic_cycle(rng, n_lo, n_hi, broken):
    period = rng.randint(2, 5)
    reps = rng.randint(max(3, -(-n_lo // period)), max(3, n_hi // period))
    pattern = [rng.randint(0, 1) for _ in range(period)]
    pattern[0], pattern[-1] = 0, 1
    tags = pattern * reps
    n = len(tags)
    if broken:
        v = rng.randrange(n)
        tags[v] = 1 - tags[v]
    return tags, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


# ------------------------------------------------------------------ #
# Serve streams.  A template is one distinct request body; a stream is a
# list of template indices.  Request ids are the stream positions.     #

def _body(kind, text):
    return json.dumps({"kind": kind, "config": text}, separators=(",", ":"))


@functools.lru_cache(maxsize=None)
def _is_object(template):
    try:
        return isinstance(json.loads(template), dict)
    except ValueError:
        return False


def request_line(template, rid):
    """The wire line for template [template] sent with id [rid].  Bad-JSON
    templates carry no id and are sent verbatim, so their error columns do
    not depend on the id."""
    if _is_object(template):
        return '{"id":%d,%s' % (rid, template[1:])
    return template


def _malformed(rng, kind):
    if kind == "bad_json":
        return rng.choice(['{"kind":"classify","config":', 'not json at all',
                           '{"kind":"stats",}', '["classify"]',
                           '{"kind":"elect","config":"config 2\\n'])
    if kind == "unknown_kind":
        return json.dumps({"kind": rng.choice(["frobnicate", "Classify",
                                               "elect ", "census"])},
                          separators=(",", ":"))
    # Lines that make the daemon exit 125 today: a self-loop, a duplicate
    # edge or an out-of-range vertex inside an otherwise valid config.
    n = rng.randint(3, 6)
    tags = [rng.randint(0, 2) for _ in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    flaw = rng.choice(["self_loop", "duplicate", "range"])
    if flaw == "self_loop":
        v = rng.randrange(n)
        edges.append((v, v))
    elif flaw == "duplicate":
        edges.append(edges[rng.randrange(len(edges))])
    else:
        edges.append((rng.randrange(n), n + rng.randint(0, 3)))
    text = "config %d\ntags %s\n" % (n, " ".join(map(str, tags)))
    text += "".join("%d %d\n" % e for e in edges)
    return _body(rng.choice(["classify", "elect", "simulate"]), text)


def _place_malformed(rng, spec, n_ops, templates, stream):
    """Overwrites a fixed number of seeded stream slots with malformed
    templates; returns the template kinds by index."""
    kinds = {}
    slots = rng.sample(range(n_ops), sum(
        max(1, n_ops * c // 10000) for c in spec["malformed_per_10000"].values()))
    it = iter(slots)
    for kind, per in spec["malformed_per_10000"].items():
        for _ in range(max(1, n_ops * per // 10000)):
            templates.append(_malformed(rng, kind))
            kinds[len(templates) - 1] = kind
            stream[next(it)] = len(templates) - 1
    return kinds


def _pick_kind(rng, mix):
    x = rng.random()
    acc = 0.0
    for k, p in mix.items():
        acc += p
        if x < acc:
            return k
    return k


def serve_repeat(seed, seconds):
    spec = SPEC["serve-repeat"]
    rng = random.Random("serve-repeat:%d" % seed)
    n_ops = max(50, int(spec["ops_per_second"] * seconds))
    # Pool entry r (its Zipf rank) alternates small and large, with size and
    # span fixed by r.  Its graph and tags come from a generator of their
    # own that the seed does not touch: the cost of the popular head is the
    # same in every run, and the seed draws the relabellings and the stream.
    pool_rng = random.Random("serve-repeat-pool")
    pool = []
    for r in range(spec["pool_small"] + spec["pool_large"]):
        lo, hi = spec["large_n"] if r % 2 else spec["small_n"]
        n = lo + (r // 2 * 7) % (hi - lo + 1)
        tags, edges = random_connected(pool_rng, n, n // 4, 1 + r % 3)
        variants = [config_text(n, tags, edges)]
        for _ in range(spec["relabellings"]):
            variants.append(config_text(n, *relabel(rng, n, tags, edges)))
        pool.append(variants)
    weights = [1.0 / (r + 1) ** spec["zipf_s"] for r in range(len(pool))]
    templates, index = [], {}
    stream = []
    for _ in range(n_ops):
        variants = rng.choices(pool, weights)[0]
        text = (variants[0] if rng.random() < spec["exact_share"]
                else variants[rng.randint(1, spec["relabellings"])])
        body = _body(_pick_kind(rng, spec["kinds"]), text)
        if body not in index:
            index[body] = len(templates)
            templates.append(body)
        stream.append(index[body])
    kinds = _place_malformed(rng, spec, n_ops, templates, stream)
    return {"templates": templates, "stream": stream, "malformed": kinds}


def serve_cold(seed, seconds):
    spec = SPEC["serve-cold"]
    rng = random.Random("serve-cold:%d" % seed)
    n_ops = max(50, int(spec["ops_per_second"] * seconds))
    lo, hi = spec["n"]
    templates, seen = [], set()
    while len(templates) < n_ops:
        if rng.random() < spec["mc_check_share"]:
            tags, edges = g_path(rng.randint(*spec["mc_check_g_m"]))
            kind = "mc-check"
        else:
            kind = _pick_kind(rng, spec["kinds"])
            family = rng.randrange(3)
            if family == 0:
                tags, edges = g_path(rng.randint(*spec["g_m"]))
            elif family == 1:
                tags, edges = mirror_tree(rng, rng.randint(lo, hi))
            else:
                tags, edges = periodic_cycle(rng, lo, hi, rng.random() < 0.5)
        n = len(tags)
        text = config_text(n, *relabel(rng, n, tags, edges))
        if text in seen:
            continue
        seen.add(text)
        templates.append(_body(kind, text))
    stream = list(range(n_ops))
    kinds = _place_malformed(rng, spec, n_ops, templates, stream)
    return {"templates": templates, "stream": stream, "malformed": kinds}


# ------------------------------------------------------------------ #
# CLI op lists                                                         #

FIXED_CONFIGS = {
    "h2": ([2, 0, 0, 3], [(0, 1), (1, 2), (2, 3)]),
    "h3": ([3, 0, 0, 4], [(0, 1), (1, 2), (2, 3)]),
    "ring6_broken": ([0, 1, 0, 1, 1, 1],
                     [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),
}


def mc_explore(seed, seconds):
    """Fixed explores plus candidate seeded configs; the reference tool
    picks each candidate's depth by counting raw states."""
    spec = SPEC["mc-explore"]
    rng = random.Random("mc-explore:%d" % seed)
    fixed = []
    for name, depth in spec["fixed"]:
        tags, edges = FIXED_CONFIGS[name]
        fixed.append({"name": "%s-d%d" % (name, depth), "depth": depth,
                      "config": config_text(len(tags), tags, edges)})
    per_pass = max(1, round(spec["seeded_per_pass_per_10s"] * seconds / 10))
    candidates = []
    for i in range(per_pass * spec["passes"] * spec["candidates_per_op"]):
        n = rng.randint(*spec["seeded_n"])
        tags, edges = random_connected(rng, n, rng.randint(0, n), rng.randint(1, 3))
        candidates.append({"name": "seeded-%d" % i,
                           "config": config_text(n, tags, edges)})
    return {"fixed": fixed, "candidates": candidates, "seeded_per_pass": per_pass}


def _flap_plan(rng, spec, n, edges):
    horizon = spec["horizon"]
    nodes = rng.sample(range(n), spec["node_flaps"] + spec["retags"] + spec["crashes"])
    events = []
    for u, v in rng.sample(edges, spec["link_flaps"]):
        down = rng.randint(1, horizon - 40)
        events.append("link-down %d %d %d" % (u, v, down))
        events.append("link-up %d %d %d" % (u, v, rng.randint(down + 1, horizon - 1)))
    it = iter(nodes)
    for _ in range(spec["node_flaps"]):
        v = next(it)
        leave = rng.randint(1, horizon - 40)
        events.append("leave %d %d" % (v, leave))
        events.append("join %d %d %d" % (v, rng.randint(leave + 1, horizon - 1),
                                         rng.randint(0, spec["span"])))
    for _ in range(spec["retags"]):
        events.append("retag %d %d %d" % (next(it), rng.randint(1, horizon - 1),
                                          rng.randint(0, spec["span"])))
    for _ in range(spec["crashes"]):
        events.append("crash %d %d" % (next(it), rng.randint(horizon // 2, horizon - 1)))
    return "faults\n" + "\n".join(events) + "\n"


def churn_replay(seed, seconds):
    spec = SPEC["churn-replay"]
    rng = random.Random("churn-replay:%d" % seed)
    n_ops = max(len(spec["sizes"]), int(spec["ops_per_second"] * seconds))
    ops = []
    for i in range(n_ops):
        n = spec["sizes"][i % len(spec["sizes"])]
        tags, edges = random_connected(rng, n, int(n * spec["extra_edge_share"]),
                                       spec["span"])
        ops.append({"name": "churn-%d-n%d" % (i, n), "horizon": spec["horizon"],
                    "config": config_text(n, tags, edges),
                    "plan": _flap_plan(rng, spec, n, edges)})
    return {"ops": ops}


GENERATORS = {
    "serve-repeat": serve_repeat,
    "serve-cold": serve_cold,
    "mc-explore": mc_explore,
    "churn-replay": churn_replay,
}
