"""Clients that drive the real `anorad` binary and check every answer.

A serve client keeps a fixed window of requests in flight on one daemon.
When the daemon dies, it restarts it, resends the well-formed requests that
went unanswered and counts each line that kills the daemon as one failed
op.  CLI ops are spawned one at a time.  Peak memory is the peak resident
set of the `anorad` processes, read from wait4.
"""

import collections
import os
import re
import selectors
import subprocess
import time

ID_RE = re.compile(rb'^\{"id":(-?\d+|null)')


def wait_rss(proc):
    """Reaps [proc]; returns (exit code, peak RSS in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_cli(cmd):
    """Spawns one CLI op; returns (stdout bytes, exit code, wall s, RSS MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
    code, rss = wait_rss(proc)
    return out, code, time.perf_counter() - t0, rss


class Daemon:
    def __init__(self, cmd):
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, bufsize=0)
        self.wfd = self.proc.stdin.fileno()
        self.rfd = self.proc.stdout.fileno()
        os.set_blocking(self.wfd, False)
        self.wbuf = bytearray()
        self.rbuf = bytearray()
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.rfd, selectors.EVENT_READ)
        self.writing = False
        self.alive = True

    def send(self, data):
        self.wbuf += data
        self._flush()

    def _flush(self):
        while self.wbuf and self.alive:
            try:
                n = os.write(self.wfd, self.wbuf)
            except BlockingIOError:
                break
            except (BrokenPipeError, OSError):
                self.wbuf.clear()
                break
            del self.wbuf[:n]
        want = bool(self.wbuf)
        if want != self.writing:
            if want:
                self.sel.register(self.wfd, selectors.EVENT_WRITE)
            else:
                self.sel.unregister(self.wfd)
            self.writing = want

    def lines(self, deadline):
        """Blocks until at least one response line or end of output;
        returns (lines, eof)."""
        while True:
            timeout = max(0.0, deadline - time.perf_counter())
            events = self.sel.select(timeout)
            if not events:
                return [], False
            got = False
            for key, _ in events:
                if key.fd == self.wfd:
                    self._flush()
                else:
                    data = os.read(self.rfd, 1 << 16)
                    if not data:
                        return self._split(), True
                    self.rbuf += data
                    got = True
            if got and b"\n" in self.rbuf:
                return self._split(), False

    def _split(self):
        *done, rest = bytes(self.rbuf).split(b"\n")
        self.rbuf = bytearray(rest)
        return done

    def close(self):
        """Closes stdin (the daemon exits at end of input) and reaps it;
        returns its peak RSS in MB."""
        self.alive = False
        if self.writing:
            self.sel.unregister(self.wfd)
        self.sel.close()
        for f in (self.proc.stdin, self.proc.stdout):
            try:
                f.close()
            except OSError:
                pass
        return wait_rss(self.proc)[1]


def line_id(line):
    m = ID_RE.match(line)
    return None if m is None or m.group(1) == b"null" else int(m.group(1))


def serve_stream(cmd, lines, expected, window, deadline):
    """Sends [lines] (bytes, newline-terminated) with [window] in flight.

    [expected[i]] is the reference response for line i, or None when the
    line crashes the reference too.  Returns a dict of outcomes.
    """
    n = len(lines)
    ids = [line_id(l) for l in lines]
    queue = collections.deque(range(n))
    sends = [0] * n
    inflight = collections.deque()  # [index, time written]
    answers = []  # (index, time answered, latency, correct)
    res = {"answered_ok": 0, "wrong": 0, "missing": 0, "crash_lines": 0,
           "restarts": 0, "peak_rss_mb": 0.0, "wrong_examples": []}
    t0 = time.perf_counter()
    daemon = Daemon(cmd)

    def fail(i, why):
        res[why] += 1
        if why == "wrong" and len(res["wrong_examples"]) < 3:
            res["wrong_examples"].append(i)

    while queue or inflight:
        if time.perf_counter() > deadline:
            for i in list(queue) + [i for i, _ in inflight]:
                fail(i, "missing")
            queue.clear()
            inflight.clear()
            break
        batch = []
        while len(inflight) < window and queue:
            i = queue.popleft()
            sends[i] += 1
            inflight.append((i, time.perf_counter()))
            batch.append(lines[i])
        if batch:
            daemon.send(b"".join(batch))
        got, eof = daemon.lines(deadline)
        now = time.perf_counter()
        for resp in got:
            rid = line_id(resp)
            # a response can only answer the oldest request in flight; a
            # numbered response further on means the ones before it are
            # missing
            while inflight and rid is not None and ids[inflight[0][0]] != rid \
                    and any(ids[j] == rid for j, _ in inflight):
                fail(inflight.popleft()[0], "missing")
            if not inflight:
                break
            i, sent = inflight.popleft()
            ok = expected[i] is not None and resp == expected[i]
            answers.append((i, now, now - sent, ok))
            if ok:
                res["answered_ok"] += 1
            else:
                fail(i, "wrong")
        if eof:
            res["peak_rss_mb"] = max(res["peak_rss_mb"], daemon.close())
            if not queue and not inflight:
                break
            # The daemon died.  Each crashing line counts once and is not
            # resent; the well-formed lines are resent in order.  A line
            # that went out three times without an answer is missing.
            resend = []
            for i, _ in inflight:
                if expected[i] is None:
                    fail(i, "crash_lines")
                elif sends[i] >= 3:
                    fail(i, "missing")
                else:
                    resend.append(i)
            inflight.clear()
            queue.extendleft(reversed(resend))
            res["restarts"] += 1
            daemon = Daemon(cmd)
    wall = time.perf_counter() - t0
    if daemon.alive:
        if time.perf_counter() > deadline:
            daemon.proc.kill()
        res["peak_rss_mb"] = max(res["peak_rss_mb"], daemon.close())
    res["start"] = t0
    res["wall_s"] = wall
    res["answers"] = answers
    return res


def first_answer(cmd, stdin_line=None):
    """Time from spawn to the first output line (setup time); the process
    is then told to finish (end of input) and reaped."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            bufsize=0)
    if stdin_line is not None:
        proc.stdin.write(stdin_line)
    first = proc.stdout.readline()
    dt = time.perf_counter() - t0
    proc.stdin.close()
    proc.stdout.read()
    proc.stdout.close()
    wait_rss(proc)
    return dt, first
