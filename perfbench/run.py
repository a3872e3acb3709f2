"""The anorad benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds `anorad` and the
benchmark's helper (perfbench/tool.ml) with dune, generates W's op list from
the seed (--seconds sets its length), computes reference answers in-process,
then:

  --trace 0  drives the real binary (tracing off, environment untouched) and
             prints the end-to-end metrics;
  --trace 1  replays a slice of every workload's inputs in-process with a
             span around each call into a library layer, and prints the
             per-layer metrics (Chrome trace and layer summary are left in
             .perfbench/).

Every answer is checked; a wrong or missing answer is a failed op.  The last
stdout line is the result object; the line before it holds the run metadata.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import client  # noqa: E402
import workloads as W  # noqa: E402

ANORAD = os.path.join("_build", "default", "bin", "anorad.exe")
TOOL = os.path.join("_build", "default", "perfbench", "tool.exe")
SETUP_SPAWNS = 31
SEGMENTS = 5  # serve; the CLI workloads use one segment per pass
DEADLINE_S = 150

# Every workload reports every end-to-end metric.  On the CLI workloads an
# op is one process (an explore or a churn run), so there latency_p99_ms
# is the latency of the heaviest ops in the list, not a tail of many.
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p99_ms": "ms", "peak_rss_mb": "MB"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    for need in ("dune-project", os.path.join("bin", "anorad.ml"), "lib"):
        if not os.path.exists(need):
            fail("no %s here: run from the root of an anorad checkout" % need)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    # no shared dune cache: the build writes inside the checkout only
    r = subprocess.run(["dune", "build", "bin/anorad.exe", "perfbench/tool.exe"],
                       stdout=sys.stderr, stderr=sys.stderr,
                       env=dict(os.environ, DUNE_CACHE="disabled"))
    if r.returncode != 0:
        fail("build failed")


def tool_env():
    # Server.run_string writes temporary files: keep them in the checkout.
    tmp = os.path.abspath(os.path.join(".perfbench", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def tool(*args, capture=False):
    r = subprocess.run([TOOL, *args], stdout=subprocess.PIPE if capture else sys.stderr,
                       stderr=sys.stderr, env=tool_env())
    if r.returncode != 0:
        fail("tool %s failed (exit %d)" % (args[0], r.returncode))
    return r.stdout.decode() if capture else None


def source_revision():
    """A digest of the sources that make the binary, as they are on disk
    (uncommitted edits included)."""
    h = hashlib.sha256()
    for top in ("bin", "lib", "dune-project"):
        paths = [top] if os.path.isfile(top) else [
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs]
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "sha256:" + h.hexdigest()


def write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(text)


def p99(xs):
    return statistics.quantiles(xs, n=100, method="inclusive")[98]


def setup_times(cmd, stdin_line=None):
    """Median spawn-to-first-answer over SETUP_SPAWNS spawns."""
    times = []
    for _ in range(SETUP_SPAWNS):
        dt, first = client.first_answer(cmd, stdin_line)
        if not first:
            fail("set-up probe %s gave no answer" % cmd[1])
        times.append(dt)
    return statistics.median(times)


# ------------------------------------------------------------------ #
# Workloads: each returns (metrics, attempted, failed, correct,        #
# details).  correct: every answer given was right and nothing but the  #
# lines that kill the daemon went unanswered.                          #

def end_to_end(setup, answers, n_ops, segments, start, rss, lat=None):
    """[answers]: (op index, time answered, latency s, correct) per answered
    op.  The op list is cut into [segments] equal runs of consecutive ops.
    Throughput is taken per segment and the median over segments is
    reported, so a transient stall of the host moves one segment, not the
    result.  The latency percentiles are taken over [lat] when it is given
    (the CLI workloads), else per segment in the same way: a serve segment
    holds over a thousand requests at --seconds 10, so its p99 has more
    than ten behind it, while the requests of one wave share their latency
    and a p99 over the whole run is that of its slowest wave or two."""
    parts = [[] for _ in range(segments)]
    for a in answers:
        parts[a[0] * segments // n_ops].append(a)
    per, prev_end = [], start
    for part in filter(None, parts):
        end = max(a[1] for a in part)
        seg_lat = [a[2] for a in part]
        per.append((sum(a[3] for a in part) / (end - prev_end),
                    statistics.median(seg_lat), p99(seg_lat)))
        prev_end = end
    if lat is None:
        p50_s = statistics.median(p[1] for p in per)
        p99_s = statistics.median(p[2] for p in per)
    else:
        p50_s, p99_s = statistics.median(lat), p99(lat)
    return {
        "setup_s": setup,
        "ops_per_s": statistics.median(p[0] for p in per),
        "latency_p50_ms": p50_s * 1e3,
        "latency_p99_ms": p99_s * 1e3,
        "peak_rss_mb": rss,
    }


def serve_workload(name, gen, work, jobs):
    spec = W.SPEC[name]
    templates = gen["templates"]
    ref_in, ref_out = os.path.join(work, "ref_in.txt"), os.path.join(work, "ref_out.jsonl")
    write(ref_in, "".join(W.request_line(t, i) + "\n" for i, t in enumerate(templates)))
    tool("serve-ref", ref_in, ref_out)
    refs = [json.loads(l) for l in open(ref_out)]
    bad_refs = sum(1 for r in refs if not r["crash"] and r["check"] != "ok")
    lines, expected = [], []
    for rid, t in enumerate(gen["stream"]):
        lines.append((W.request_line(templates[t], rid) + "\n").encode())
        r = refs[t]
        if r["crash"] or r["check"] != "ok":
            expected.append(None if r["crash"] else b"<reference check failed>")
            continue
        resp = r["response"]
        prefix = '{"id":%d,' % t
        if resp.startswith(prefix):
            resp = '{"id":%d,' % rid + resp[len(prefix):]
        expected.append(resp.encode())
    cmd = [ANORAD, "serve", "--stdio", "--jobs", str(jobs)]
    setup = setup_times(cmd, b'{"id":0,"kind":"stats"}\n')
    res = client.serve_stream(cmd, lines, expected, spec["window"],
                              time.perf_counter() + DEADLINE_S)
    failed = res["wrong"] + res["missing"] + res["crash_lines"]
    metrics = end_to_end(setup, res["answers"], len(lines), SEGMENTS, res["start"],
                         res["peak_rss_mb"])
    details = {k: res[k] for k in ("wrong", "missing", "crash_lines", "restarts",
                                   "wrong_examples")}
    details["reference_check_failures"] = bad_refs
    details["latency_samples"] = len(res["answers"])
    details["malformed_lines"] = len(gen["malformed"])
    return metrics, len(lines), failed, res["wrong"] + res["missing"] == 0, details


def config_file(work, name, text):
    path = os.path.join(work, "configs", name + ".cfg")
    write(path, text)
    return path


def mc_ops(gen, work, wanted):
    """Fixed ops plus the first [wanted] seeded candidates the reference
    tool accepts; each with its jobs-1 reference stats."""
    spec = W.SPEC["mc-explore"]
    lo, hi = spec["seeded_raw_states"]
    listing, paths = [], {}
    for op in gen["fixed"]:
        paths[op["name"]] = config_file(work, op["name"], op["config"])
        listing.append("fixed %s %s %d" % (op["name"], paths[op["name"]], op["depth"]))
    for op in gen["candidates"]:
        paths[op["name"]] = config_file(work, op["name"], op["config"])
        listing.append("cand %s %s %d %d" % (op["name"], paths[op["name"]], lo, hi))
    mc_list, mc_ref = os.path.join(work, "mc_ops.txt"), os.path.join(work, "mc.ref")
    write(mc_list, "\n".join(listing) + "\n")
    tool("mc-ref", mc_list, str(wanted), mc_ref)
    ops = []
    for l in open(mc_ref):
        f = l.split()
        ops.append({"name": f[0], "path": paths[f[0]], "depth": int(f[1]),
                    "stats": [int(x) for x in f[2:10]], "conclusive": f[10] == "1"})
    return ops


def parse_mc_stats(out):
    for line in out.decode(errors="replace").splitlines():
        if line.startswith("states: "):
            nums = [int(tok) for tok in re.findall(r"\d+", line)]
            if len(nums) == 8:
                return nums
    return None


def mc_workload(gen, work, jobs):
    passes = W.SPEC["mc-explore"]["passes"]
    distinct = mc_ops(gen, work, passes * gen["seeded_per_pass"])
    fixed = [op for op in distinct if not op["name"].startswith("seeded-")]
    seeded = [op for op in distinct if op["name"].startswith("seeded-")]
    # each pass: the fixed explores, then its share of the seeded ones
    ops = [op for p in range(passes) for op in fixed + seeded[p::passes]]
    h2 = config_file(work, "setup-h2", W.config_text(4, *W.FIXED_CONFIGS["h2"]))
    setup = setup_times([ANORAD, "mc", h2, "--explore", "--depth", "0"])

    def explore(op):
        return client.run_cli([ANORAD, "mc", op["path"], "--explore", "--faults", "1",
                               "--depth", str(op["depth"]), "--jobs", str(jobs)])

    # One unmeasured pass of the fixed explores first: the host's first
    # multi-second parallel explore after set-up runs slow.
    for op in fixed:
        explore(op)
    answers, raw, wall, rss, wrong = [], 0, 0.0, 0.0, []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        out, code, dt, peak = explore(op)
        rss = max(rss, peak)
        stats = parse_mc_stats(out)
        ok = code == 0 and op["conclusive"] and stats == op["stats"]
        answers.append((i, time.perf_counter(), dt, ok))
        if not ok:
            wrong.append(op["name"])
            continue
        raw += stats[1]
        wall += dt
    metrics = end_to_end(setup, answers, len(ops), passes, t0, rss,
                         [a[2] for a in answers])
    details = {"ops": [[op["name"], op["depth"], op["stats"][1]] for op in distinct],
               "wrong": wrong, "states_per_s": raw / wall if wall else 0.0}
    return metrics, len(ops), len(wrong), not wrong, details


def churn_files(gen, work):
    listing = []
    for op in gen["ops"]:
        cfg = config_file(work, op["name"], op["config"])
        plan = os.path.join(work, "plans", op["name"] + ".plan")
        write(plan, op["plan"])
        listing.append("%s %s %s %d" % (op["name"], cfg, plan, op["horizon"]))
    return listing


def churn_workload(gen, work):
    listing = churn_files(gen, work)
    refdir = os.path.join(work, "churn_ref")
    os.makedirs(refdir, exist_ok=True)
    churn_list = os.path.join(work, "churn_ops.txt")
    write(churn_list, "\n".join(listing) + "\n")
    tool("churn-ref", churn_list, refdir)
    tiny = config_file(work, "setup-tiny", W.config_text(4, *W.FIXED_CONFIGS["h2"]))
    setup = setup_times([ANORAD, "churn", tiny, "--horizon", "16"])
    refs = [open(os.path.join(refdir, l.split()[0] + ".out"), "rb").read() for l in listing]
    passes = W.SPEC["churn-replay"]["passes"]
    answers, wrong, rss = [], [], 0.0
    per_op = [[] for _ in listing]
    t0 = time.perf_counter()
    for p in range(passes):
        for k, line in enumerate(listing):
            name, cfg, plan, horizon = line.split()
            out, code, dt, peak = client.run_cli(
                [ANORAD, "churn", cfg, "--plan", plan, "--horizon", horizon])
            rss = max(rss, peak)
            ok = code in (0, 1) and out == refs[k]
            answers.append((p * len(listing) + k, time.perf_counter(), dt, ok))
            per_op[k].append(dt)
            if not ok:
                wrong.append(name)
    # An op's latency is its median over the passes: with ~100 runs in a
    # list, a pooled p99 would be one or two runs, i.e. whichever runs a
    # host stall hit.
    lat = [statistics.median(ts) for ts in per_op]
    metrics = end_to_end(setup, answers, len(answers), passes, t0, rss, lat)
    return metrics, len(answers), len(wrong), not wrong, {"wrong": wrong}


# ------------------------------------------------------------------ #
# Traced run                                                           #

# Ops replayed by the traced run, per 1 s of --seconds (mc: seeded explores
# in all, beside the fixed ones).
TRACE_SLICE = {"serve-repeat": 200, "serve-cold": 30, "mc-seeded": 1,
               "churn-replay": 0.6}

PER_LAYER_UNITS = [
    ("_us", "us"), ("_ms_p50", "ms"), ("_words", "words"), ("_share", "ratio"),
    ("_per_s", "1/s"), ("_mb", "MB"), ("_speedup", "x"), ("hit_rate", "ratio"),
    ("words_per_op", "words"), ("_per_state", "words"),
]


def unit_of(name):
    for suffix, unit in PER_LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def trace_run(seed, seconds, work, jobs):
    n_ops = 0
    for name in ("serve-repeat", "serve-cold"):
        gen = W.GENERATORS[name](seed, seconds)
        k = max(20, int(TRACE_SLICE[name] * seconds))
        lines = [W.request_line(gen["templates"][t], rid)
                 for rid, t in enumerate(gen["stream"][:k])]
        write(os.path.join(work, name, "requests.txt"), "\n".join(lines) + "\n")
        n_ops += len(lines)
    mdir = os.path.join(work, "mc-explore")
    ops = mc_ops(W.mc_explore(seed, seconds), mdir, TRACE_SLICE["mc-seeded"])
    write(os.path.join(mdir, "ops.txt"),
          "".join("%s %s %d\n" % (o["name"], o["path"], o["depth"]) for o in ops))
    n_ops += len(ops)
    cdir = os.path.join(work, "churn-replay")
    k = max(3, int(TRACE_SLICE["churn-replay"] * seconds))
    listing = churn_files({"ops": W.churn_replay(seed, seconds)["ops"][:k]}, cdir)
    write(os.path.join(cdir, "ops.txt"), "\n".join(listing) + "\n")
    n_ops += len(listing)
    return n_ops


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    jobs = nproc()
    # one work directory per workload and mode, replaced by each run
    work = os.path.join(".perfbench", "%s-trace%d" % (args.workload, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spec = W.SPEC[args.workload]
    wl_jobs = jobs if spec["jobs"] == "nproc" else spec["jobs"]
    meta = json.loads(tool("meta", capture=True))
    meta.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": jobs, "jobs": wl_jobs,
        "window": spec["window"], "ocamlrunparam_set": "OCAMLRUNPARAM" in os.environ,
        "source_revision": source_revision(),
        "generator": {k: v for k, v in spec.items() if k != "why"},
    })
    if args.trace:
        n_ops = trace_run(args.seed, args.seconds, work, jobs)
        out = tool("trace", work, args.workload, str(jobs),
                   str(W.SPEC["serve-repeat"]["window"]),
                   str(W.SPEC["serve-cold"]["window"]), capture=True)
        values = json.loads(out)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
        meta["trace_files"] = [os.path.join(work, "trace.json"),
                               os.path.join(work, "layers.json")]
        print(json.dumps({"meta": meta}))
        print(json.dumps({"correct": True, "attempted": n_ops, "failed": 0,
                          "metrics": metrics}))
        return
    gen = W.GENERATORS[args.workload](args.seed, args.seconds)
    if args.workload.startswith("serve-"):
        values, attempted, failed, correct, details = serve_workload(
            args.workload, gen, work, wl_jobs)
    elif args.workload == "mc-explore":
        values, attempted, failed, correct, details = mc_workload(gen, work, wl_jobs)
    else:
        values, attempted, failed, correct, details = churn_workload(gen, work)
    meta["ops"] = attempted
    meta["details"] = details
    metrics = {k: {"value": values[k], "unit": END_TO_END_UNITS[k]}
               for k in END_TO_END_UNITS}
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
