"""Self-tests of the benchmark's answer checks.

    python3 perfbench/selftest.py

Drives the serve client against a scripted stand-in daemon (this file run
with --fake) that answers from a canned response list, and checks that a
corrupted response, a wrong leader, a missing line and a line that kills
the daemon are each counted as exactly one failed op.
"""

import json
import os
import re
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import client  # noqa: E402
import run  # noqa: E402

N = 24
WINDOW = 4
CRASH_ID = 11


def canned(i):
    return '{"id":%d,"kind":"elect","status":"ok","result":{"leader":%d}}' % (i, i % 5)


def fake(mode, target):
    """Answers each request line with its canned response, except that
    request [target] gets the fault named by [mode]."""
    for line in sys.stdin:
        i = json.loads(line)["id"]
        resp = canned(i)
        if i == target:
            if mode == "corrupt":
                resp = resp[:-3] + "}}"
            elif mode == "leader":
                resp = resp.replace('"leader":%d' % (i % 5), '"leader":%d' % (i % 5 + 1))
            elif mode == "drop":
                continue
            elif mode == "crash":
                sys.exit(125)
        sys.stdout.write(resp + "\n")
        sys.stdout.flush()


def drive(mode, target, expected=None):
    lines = [('{"id":%d,"kind":"elect","config":"x"}\n' % i).encode() for i in range(N)]
    if expected is None:
        expected = [canned(i).encode() for i in range(N)]
    cmd = [sys.executable, os.path.abspath(__file__), "--fake", mode, str(target)]
    return client.serve_stream(cmd, lines, expected, WINDOW, time.perf_counter() + 60)


def failed(res):
    return res["wrong"] + res["missing"] + res["crash_lines"]


class ServeChecks(unittest.TestCase):
    def test_clean_stream_has_no_failure(self):
        res = drive("none", -1)
        self.assertEqual((res["answered_ok"], failed(res), res["restarts"]), (N, 0, 0))

    def test_corrupted_response_fails_one_op(self):
        res = drive("corrupt", 5)
        self.assertEqual((res["answered_ok"], res["wrong"], failed(res)), (N - 1, 1, 1))

    def test_wrong_leader_fails_one_op(self):
        res = drive("leader", 7)
        self.assertEqual((res["answered_ok"], res["wrong"], failed(res)), (N - 1, 1, 1))

    def test_missing_line_fails_one_op(self):
        res = drive("drop", 9)
        self.assertEqual((res["answered_ok"], res["missing"], failed(res)), (N - 1, 1, 1))

    def test_crashing_line_fails_once_and_the_rest_is_resent(self):
        expected = [None if i == CRASH_ID else canned(i).encode() for i in range(N)]
        res = drive("crash", CRASH_ID, expected)
        self.assertEqual((res["answered_ok"], res["crash_lines"], failed(res),
                          res["restarts"]), (N - 1, 1, 1, 1))


class CliChecks(unittest.TestCase):
    STATS = ("states: 73058 explored (93846 raw), peak frontier 6987, depth "
             "reached 6, 3162 history keys, automorphism group 1, 93847 "
             "canonicalizations, visited set 3145728 bytes\n")

    def test_explore_stats_line_is_parsed_in_order(self):
        out = ("no separation: ...\n" + self.STATS).encode()
        self.assertEqual(run.parse_mc_stats(out),
                         [73058, 93846, 6987, 6, 3162, 1, 93847, 3145728])

    def test_explore_without_stats_line_does_not_parse(self):
        self.assertIsNone(run.parse_mc_stats(re.sub("states: ", "", self.STATS).encode()))


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--fake":
        fake(sys.argv[2], int(sys.argv[3]))
    else:
        unittest.main()
