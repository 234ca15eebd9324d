"""Shared pieces of the benchmark: statistics, spans, environment, output.

Nothing here imports the program under test, so ``run.py`` can check
that the program is present before anything depends on it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Where runs leave span files and the daemon's store (git-ignored).
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Samples per block of a tail estimate (see ``tail``).
TAIL_BLOCK = 100
#: Seconds the reference kernel takes on a quiet 2-vCPU Xeon VM. Every
#: reported timing is scaled to this host speed (see ``HostSpeed``).
REFERENCE_S = 0.008
#: Bounds on ``HostSpeed.speed``, so that an open loop slowed to the
#: host's speed stretches its run by at most 2.5x.
SPEED_RANGE = (0.4, 2.5)


def p50(values):
    return statistics.median(values)


def tail(values):
    """``(value, percentile, n)``: the tail of ``values`` in the order
    they were measured. They are cut into blocks of ``TAIL_BLOCK`` or
    more (one block when there are fewer than two such); in each block
    the highest percentile that still leaves ten samples above it, the
    eleventh-largest sample, is taken; ``value`` is the median over the
    blocks. Past one block, a longer run adds blocks instead of moving
    the tail to a rarer percentile, whose estimate would be noisier."""
    n = len(values)
    if n <= 10:
        return max(values), 100.0, n
    blocks = max(1, n // TAIL_BLOCK)
    size = n // blocks
    tails = [sorted(values[i * size:(i + 1) * size])[size - 11]
             for i in range(blocks)]
    return p50(tails), 100.0 * (size - 10) / size, n


def latency_summary(prefix, seconds):
    """``{prefix}p50_ms`` and ``{prefix}tail_ms`` from durations in s,
    plus the tail's percentile and sample count for the report."""
    ms = [s * 1000.0 for s in seconds]
    value, pct, n = tail(ms)
    metrics = {prefix + "p50_ms": p50(ms), prefix + "tail_ms": value}
    notes = {prefix + "tail": {"percentile": round(pct, 2), "samples": n}}
    return metrics, notes


def peak_rss_mb():
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid):
    """Peak resident set size of another process, from ``/proc``."""
    with open("/proc/{}/status".format(pid)) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid {}".format(pid))


def reference_kernel():
    """Fixed work of the kind the program does: Fractions, tuple-keyed
    dicts and bignum products. It is not program code, so no change to
    the program changes its cost."""
    table = {}
    total = Fraction(0)
    for i in range(6000):
        value = Fraction(i + 1, (i & 15) + 3)
        table[(i, i & 7)] = value
        if i & 3 == 0:
            total += value
    big = 1
    for i in range(1, 300):
        big = big * (i * 1000003 + 7) % (1 << 4000) + i
    return len(table), total, big


class HostSpeed:
    """Scales timings to the speed of a fixed reference host.

    The benchmark runs on a few cores of a shared host. Each core flips
    between a fast and a slow state (about 1.8x apart) within seconds,
    as neighbours contend for it, and that moves every timing alike. So
    the reference kernel is timed before and after each measured
    interval, on every core the process may use, and the interval is
    scaled by ``REFERENCE_S`` over the mean of those kernel times. A
    change to the program moves the scaled time by the same factor as
    the raw one. A single-threaded workload pins itself to one core
    (``pin_to_one_core``), so the kernel runs where the work ran.
    """

    def __init__(self):
        self.cores = sorted(os.sched_getaffinity(0))
        self.samples = []
        self._last = None
        self.restart()

    def _measure(self):
        """Mean time of one kernel run on each core."""
        enabled = gc.isenabled()
        gc.disable()  # the program's heap must not cost the kernel
        per_core = []
        try:
            for core in self.cores:
                if len(self.cores) > 1:
                    os.sched_setaffinity(0, {core})
                start = time.perf_counter()
                reference_kernel()
                per_core.append(time.perf_counter() - start)
        finally:
            if len(self.cores) > 1:
                os.sched_setaffinity(0, self.cores)
            if enabled:
                gc.enable()
        seconds = sum(per_core) / len(per_core)
        self.samples.append(seconds)
        return seconds

    def restart(self):
        """Time the kernel now: an interval to be scaled starts here."""
        self._last = self._measure()

    def scale(self):
        """Time the kernel now; the factor for the interval since the
        previous kernel run (``< 1`` on a host slower than reference)."""
        before, after = self._last, self._measure()
        self._last = after
        return 2.0 * REFERENCE_S / (before + after)

    def speed(self):
        """Host speed relative to the reference host, from the latest
        kernel run, clamped to ``SPEED_RANGE``."""
        low, high = SPEED_RANGE
        return min(high, max(low, REFERENCE_S / self._last))

    def reference_ms(self):
        """Median kernel time in this run: the host's speed."""
        return p50(self.samples) * 1000.0


def pin_to_one_core():
    """Keep this process, and the interpreters it starts, on one core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _source_digest():
    """SHA-256 over the program's source tree: identifies the code when
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _git_commit():
    """HEAD of the checkout, or ``None`` when it is not its own git
    repository (an enclosing repository's commit would mislabel it)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment(workload, seed, trace):
    """The environment block printed with every result."""
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


class Spans:
    """In-memory spans recorded around the benchmark's calls into the
    program: ``(id, parent, name, start, end)`` in seconds, written out
    when the run ends."""

    def __init__(self):
        self.records = []
        self._stack = []
        self._next = 1

    @contextmanager
    def span(self, name):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records.append((sid, parent, name, start, end))

    def record(self, name, start, end, parent=None):
        """Add a span measured elsewhere (e.g. on a client thread)."""
        self.records.append((self._next, parent, name, start, end))
        self._next += 1

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    def self_times(self, root):
        """``{name: seconds}`` summed over ``root``'s descendants, each
        span counted minus the time its own children cover."""
        by_parent = {}
        for record in self.records:
            by_parent.setdefault(record[1], []).append(record)
        totals = {}
        stack = list(by_parent.get(root, ()))
        while stack:
            sid, _parent, name, start, end = stack.pop()
            kids = by_parent.get(sid, ())
            covered = sum(k[4] - k[3] for k in kids)
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
            stack.extend(kids)
        return totals

    def duration(self, sid):
        for record in self.records:
            if record[0] == sid:
                return record[4] - record[3]
        raise KeyError(sid)

    def dump(self, path, env):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({
                "environment": env,
                "spans": [{"id": sid, "parent": parent, "name": name,
                           "start": start, "end": end}
                          for sid, parent, name, start, end
                          in sorted(self.records)],
            }, fh)


class Checker:
    """Counts attempted answers and the ones that failed their oracle."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples = []

    def check(self, label, got, expected):
        self.record(label, got == expected,
                    "got {!r}, expected {!r}".format(got, expected))

    def record(self, label, ok, detail=""):
        """Count one attempted answer; keep a few failures to print."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append("{}: {}".format(label, detail)[:300])


def emit(checker, metrics, env, notes):
    """Print the report line, then the result line the driver reads."""
    if checker.examples:
        for example in checker.examples:
            print("perfbench: FAILED {}".format(example), file=sys.stderr)
    print(json.dumps({"environment": env, "notes": notes}, sort_keys=True))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
