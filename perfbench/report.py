"""Runs every workload once and prints each end-to-end metric with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Run from the root of a source checkout; each workload is one
`perfbench/run.py --trace 0` run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args()
    status = 0
    for name in W.SPEC:
        p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", "0"], stdout=subprocess.PIPE, text=True)
        if p.returncode != 0:
            print("%s: run failed (exit %d)" % (name, p.returncode))
            status = 1
            continue
        r = json.loads(p.stdout.strip().splitlines()[-1])
        print("%s: correct=%s attempted=%d failed=%d" % (name, r["correct"], r["attempted"],
                                                         r["failed"]))
        for metric, m in r["metrics"].items():
            print("  %-16s %14.4f %s" % (metric, m["value"], m["unit"]))
        if not r["correct"]:
            status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
