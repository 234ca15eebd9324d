"""The ``serve_mixed`` workload: ``repro serve --compile --persist`` as a
subprocess, driven over HTTP by an open-loop generator.

The generator runs in this process and sends on a seeded schedule
over at most two keep-alive connections (one per usable core of the
reference box). Each request is timed from when it was due, so a stall
also charges the requests queued behind it. The mix:

* most requests are ``/v1/probability`` with distinct weights on a few
  warm circuits, FO2 and lineage;
* a minority name a circuit never seen before, so the registry compiles
  and the store writes;
* some are ``/v1/wfomc_weight_sweep``, which bypass the coalescer.

Every answer is checked against the direct, uncompiled solver at the
same weights (computed once in set-up) or against a closed form.

Latencies are scaled to reference host speed (``harness.HostSpeed``):
the load runs in windows of ``WINDOW_S``; after each window the
generator lets its requests finish and times the reference kernel, and
the window's latencies are scaled by the kernel times around it.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction

from repro import parse, wfomc
from repro.cache import open_store
from repro.logic import Vocabulary
from repro.wfomc.closed_forms import table1_wfomc, wfomc_forall_exists

from harness import (OUT_DIR, ROOT, SRC, HostSpeed, Spans, latency_summary,
                     p50, tail, vm_hwm_mb)
from instances import (FORALL_EXISTS, TABLE1, TRANSITIVE, frac_weight,
                       int_weight, seeded_rng, weighted)

#: Keep-alive connections of the generator (``nproc`` on a 2-core box).
CONNECTIONS = 2
#: Open-loop rates in requests/s. ``low`` queues almost nothing.
#: ``high`` doubles it: about 0.15 of the closed-loop capacity of a
#: 2-core reference box when the host is quiet and 0.3 when neighbours
#: load it. Queueing amplifies host-speed swings, so a higher rate
#: would make the latency figures differ more from run to run than a
#: regression bound can tolerate.
LOW_RPS = 15.0
HIGH_RPS = 30.0
#: Rates tried, in order, for the highest sustainable rate (traced run).
LADDER_RPS = (30.0, 45.0, 60.0, 90.0, 120.0, 160.0, 220.0)
#: A ladder rung is sustained when its tail stays under this and the
#: generator's backlog does not grow.
LADDER_TAIL_LIMIT_MS = 100.0
#: The mix, as a block of 15 requests shuffled per block: 1 new
#: circuit, 2 sweeps, and 4 warm probability requests per warm circuit.
#: Fixed counts keep the latency distribution's mixture identical from
#: seed to seed, so the median does not move between request kinds.
#: Sweeps are the slowest kind; at 2 per block there are more of them
#: in every phase than the ten samples a tail leaves beyond it, so each
#: tail falls inside the sweep latencies, not between two kinds.
BLOCK_COLD = 1
BLOCK_SWEEPS = 2
BLOCK_PER_WARM = 4
#: Distinct weight vectors per warm circuit, oracles computed in set-up.
POOL = 24
#: Daemon set-ups per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 5
#: Seconds of load between two runs of the reference kernel.
WINDOW_S = 0.5
DAEMON_PHASES = ("parse", "queue", "compile", "evaluate", "coalesce_hold",
                 "encode")
REQUEST_TIMEOUT_S = 30.0


def _warm_circuits(tiny):
    """``(text, n)`` of the circuits compiled during set-up: two FO2,
    one lineage."""
    return [(TABLE1, 4 if tiny else 5), (FORALL_EXISTS, 6 if tiny else 10),
            (TRANSITIVE, 3)]


def _fraction_text(value):
    return str(Fraction(value))


class Mix:
    """The seeded request population and its expected answers."""

    def __init__(self, seed, tiny):
        self.rng = seeded_rng(seed, "serve")
        self.tag = "{:06x}".format(self.rng.randrange(1 << 24))
        self.cold_counter = 0
        self.block = []
        self.warm = [self._pool(text, n) for text, n in _warm_circuits(tiny)]
        self.sweep_pool = self._sweeps(tiny)

    def _pool(self, text, n):
        formula = parse(text)
        names = [p.name for p in Vocabulary.of_formula(formula)]
        entries = []
        for _ in range(POOL):
            weights = {name: (frac_weight(self.rng, 4),
                              Fraction(int_weight(self.rng, 4)))
                       for name in names}
            wv = weighted(formula, weights)
            expected = wfomc(formula, n, wv) / wv.total_world_weight(n)
            body = {"formula": text, "n": n, "weights": {
                k: [_fraction_text(w), _fraction_text(wb)]
                for k, (w, wb) in weights.items()}}
            entries.append(("/v1/probability", body, _fraction_text(expected)))
        return entries

    def _sweeps(self, tiny):
        formula = parse(TABLE1)
        n = 4 if tiny else 5
        sweeps = []
        for _ in range(POOL // 2):
            base = {name: (frac_weight(self.rng, 4), Fraction(1))
                    for name in ("S", "T")}
            values = [frac_weight(self.rng, 5) for _ in range(8)]
            expected = []
            for v in values:
                weights = dict(base, R=(v, Fraction(1)))
                expected.append(_fraction_text(
                    wfomc(formula, n, weighted(formula, weights))))
            body = {"formula": TABLE1, "n": n, "vary": "R",
                    "values": [_fraction_text(v) for v in values],
                    "wbar": "1",
                    "weights": {k: [_fraction_text(w), _fraction_text(wb)]
                                for k, (w, wb) in base.items()}}
            sweeps.append(("/v1/wfomc_weight_sweep", body, expected))
        return sweeps

    def cold(self):
        """A request for a circuit no earlier request named: fresh
        predicate names, answer from a closed form."""
        self.cold_counter += 1
        name = "Q{}x{}".format(self.tag, self.cold_counter)
        w = frac_weight(self.rng, 4)
        if self.cold_counter % 2:
            n = 6
            text = "forall x. exists y. {}(x, y)".format(name)
            count = wfomc_forall_exists(n, (w, 1))
            total = (w + 1) ** (n * n)
            weights = {name: [_fraction_text(w), "1"]}
        else:
            n = 4
            a, b, c = name + "a", name + "b", name + "c"
            text = "forall x, y. ({}(x) | {}(x, y) | {}(y))".format(a, b, c)
            count = table1_wfomc(n, (w, 1), (1, 1), (1, 1))
            total = (w + 1) ** n * 2 ** (n * n) * 2 ** n
            weights = {a: [_fraction_text(w), "1"]}
        body = {"formula": text, "n": n, "weights": weights}
        return ("/v1/probability", body, _fraction_text(count / total))

    def next_request(self):
        if not self.block:
            self.block = (["cold"] * BLOCK_COLD + ["sweep"] * BLOCK_SWEEPS
                          + list(range(len(self.warm))) * BLOCK_PER_WARM)
            self.rng.shuffle(self.block)
        kind = self.block.pop()
        if kind == "cold":
            return self.cold()
        if kind == "sweep":
            return self.rng.choice(self.sweep_pool)
        return self.rng.choice(self.warm[kind])

    def warmup_requests(self):
        return [entries[0] for entries in self.warm] + [self.sweep_pool[0]]


class Daemon:
    """One ``repro serve`` subprocess with its own fresh store."""

    def __init__(self, index):
        self.cache_dir = os.path.join(OUT_DIR, "serve-store-{}-{}".format(
            os.getpid(), index))
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)
        self.log_path = self.cache_dir + ".log"
        self._log = None
        self.proc = None
        self.port = None

    def start(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--compile", "--persist", "--cache-dir", self.cache_dir,
             "--log-level", "warning"],
            stdout=subprocess.PIPE, stderr=self._log, env=env, cwd=ROOT,
            text=True)
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError("daemon did not start: {!r}".format(line))
        self.port = int(line.strip().rsplit(":", 1)[1])
        deadline = time.monotonic() + 60.0
        while True:
            try:
                status, _body = request_once(self.port, "GET", "/readyz")
            except OSError:
                status = None
            if status == 200:
                return self
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never became ready")
            time.sleep(0.005)

    def metrics(self):
        status, body = request_once(self.port, "GET", "/metrics")
        if status != 200:
            raise RuntimeError("/metrics answered {}".format(status))
        return body

    def peak_rss_mb(self):
        return vm_hwm_mb(self.proc.pid)

    def stop(self):
        """SIGTERM and wait for a clean drain; returns the exit code."""
        try:
            self.proc.send_signal(signal.SIGTERM)
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
            code = None
        finally:
            self.proc.stdout.close()
            self._log.close()
        return code

    def kill(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
            self.proc.stdout.close()
        if self._log is not None:
            self._log.close()

    def store_stats(self):
        store = open_store(self.cache_dir)
        try:
            return store.stats()
        finally:
            store.close()

    def remove(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        try:
            os.remove(self.log_path)
        except FileNotFoundError:
            pass


def request_once(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        return _send(conn, method, path, body)
    finally:
        conn.close()


def _send(conn, method, path, body=None):
    payload = json.dumps(body) if body is not None else None
    headers = {"Content-Type": "application/json"} if payload else {}
    conn.request(method, path, body=payload, headers=headers)
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def answer_ok(path, status, body, expected):
    if status != 200:
        return False
    if path == "/v1/wfomc_weight_sweep":
        return body.get("result", {}).get("results") == expected
    return body.get("result") == expected


class Generator:
    """Sends requests over ``CONNECTIONS`` keep-alive connections."""

    def __init__(self, port, checker, spans=None):
        self.port = port
        self.checker = checker
        self.spans = spans
        self._lock = threading.Lock()

    def _worker(self, jobs, records):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            while True:
                job = jobs.get()
                if job is None:
                    return
                try:
                    self._request(conn, job, records)
                finally:
                    jobs.task_done()
        finally:
            conn.close()

    def _request(self, conn, job, records):
        due, lag, (path, body, expected) = job
        sent = time.perf_counter()
        try:
            status, reply = _send(conn, "POST", path, body)
        except (OSError, http.client.HTTPException,
                json.JSONDecodeError) as exc:
            conn.close()
            status, reply = None, {"error": repr(exc)}
        done = time.perf_counter()
        ok = answer_ok(path, status, reply, expected)
        with self._lock:
            records.append([due, lag, sent, done, ok, 1.0])
            self.checker.record(path, ok, "status {} body {}".format(
                status, str(reply)[:200]))
            if self.spans is not None:
                self.spans.record("serve.request", sent, done)

    def _run(self, feed):
        jobs = queue.Queue()
        records = []
        workers = [threading.Thread(target=self._worker,
                                    args=(jobs, records), daemon=True)
                   for _ in range(CONNECTIONS)]
        for worker in workers:
            worker.start()
        try:
            feed(jobs, records)
        finally:
            for _ in workers:
                jobs.put(None)
            for worker in workers:
                worker.join(timeout=REQUEST_TIMEOUT_S + 5)
        return records

    def _windows(self, jobs, records, host, seconds, window, send):
        """Run ``send(jobs, span)`` in windows; after each, wait for its
        requests to finish and give them the window's host-speed scale.
        Returns the scale of each window."""
        scales = []
        host.restart()
        left = seconds
        while left > 1e-9:
            span = min(window, left)
            left -= span
            first = len(records)
            send(jobs, span)
            jobs.join()
            scales.append(host.scale())
            with self._lock:
                for record in records[first:]:
                    record[5] = scales[-1]
        return scales

    def open_loop(self, mix, rate, seconds, rng, host, window=WINDOW_S):
        """Arrivals at ``rate``/s for ``seconds``, both at reference host
        speed: on a host at speed ``k`` each window sends at ``k * rate``
        for ``span / k`` wall seconds, so the daemon is as busy, and a
        window holds as many requests, as on the reference host. Gaps
        are drawn uniformly from 0.5 to 1.5 mean gaps: Poisson arrivals
        made the tails depend on how bursty each seed's draw was."""

        def send(jobs, span):
            speed = host.speed()
            start = time.perf_counter() + 0.01
            due = start
            end = start + span / speed
            while True:
                due += rng.uniform(0.5, 1.5) / (rate * speed)
                if due >= end:
                    return
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                lag = time.perf_counter() - due
                jobs.put((due, lag, mix.next_request()))

        return self._run(lambda jobs, records: self._windows(
            jobs, records, host, seconds, window, send))

    def closed_loop(self, mix, seconds, host):
        """Each connection sends its next request when the last returns.
        Returns the records and their requests per second at reference
        host speed."""
        busy = []

        def send(jobs, span):
            started = time.perf_counter()
            end = started + span
            while time.perf_counter() < end:
                if jobs.qsize() < CONNECTIONS:
                    now = time.perf_counter()
                    jobs.put((now, 0.0, mix.next_request()))
                else:
                    time.sleep(0.0005)
            jobs.join()
            busy.append(time.perf_counter() - started)

        scales = []
        records = self._run(lambda jobs, records: scales.extend(
            self._windows(jobs, records, host, seconds, WINDOW_S, send)))
        scaled = sum(b * k for b, k in zip(busy, scales))
        return records, len(records) / scaled


def _latencies(records):
    """Seconds from due to answer, at reference host speed."""
    return [(done - due) * scale
            for due, _lag, _sent, done, _ok, scale in records]


def _mean_scale(records):
    return sum(record[5] for record in records) / max(len(records), 1)


def _phase_deltas(before, after, requests, scale):
    """Mean seconds per request in each daemon phase over a window."""
    out = {}
    for name in DAEMON_PHASES:
        b = before["phases"].get(name, {})
        a = after["phases"].get(name, {})
        out[name] = ((a.get("sum", 0.0) - b.get("sum", 0.0)) * scale
                     / max(requests, 1))
    return out


def _sustained(records):
    """Tail under the limit, and a backlog that does not grow: the
    last third waits no longer than the first third plus 5 ms."""
    if len(records) < 12:
        return False
    value, _pct, _n = tail([x * 1000.0 for x in _latencies(records)])
    waits = [sent - due for due, _lag, sent, *_rest in records]
    third = len(waits) // 3
    first = sum(waits[:third]) / third
    last = sum(waits[-third:]) / third
    return value <= LADDER_TAIL_LIMIT_MS and last <= first + 0.005 and \
        all(record[4] for record in records)


def setup_daemon(mix, index, host):
    """Start a daemon and compile the warm circuits through it; returns
    the daemon and the seconds it took at reference host speed."""
    host.restart()
    started = time.perf_counter()
    daemon = Daemon(index)
    try:
        daemon.start()
        for path, body, _expected in mix.warmup_requests():
            status, reply = request_once(daemon.port, "POST", path, body)
            if status != 200:
                raise RuntimeError("warm-up {} answered {}: {}".format(
                    path, status, reply))
    except BaseException:
        daemon.kill()
        daemon.remove()
        raise
    return daemon, (time.perf_counter() - started) * host.scale()


def run_serve(seed, seconds, trace, checker, tiny=False):
    """Run ``serve_mixed``; returns ``(metrics, notes)``."""
    mix = Mix(seed, tiny)
    rng = seeded_rng(seed, "arrivals")
    host = HostSpeed()
    daemons = []
    setups = []
    try:
        for index in range(SETUP_LAUNCHES):
            daemon, elapsed = setup_daemon(mix, index, host)
            daemons.append(daemon)
            setups.append(elapsed)
            if index < SETUP_LAUNCHES - 1:
                _stop_checked(daemon, checker)
        daemon = daemons[-1]
        if trace:
            metrics, notes = _traced(daemon, mix, rng, seconds, checker, host)
        else:
            metrics, notes = _untraced(daemon, mix, rng, seconds, checker,
                                       host)
        rss = daemon.peak_rss_mb()
        _stop_checked(daemon, checker)
        store = daemon.store_stats()
        notes["store"] = {"entries": store["entries"],
                          "namespaces": store["namespaces"]}
        if trace:
            metrics["cache.store_entries"] = float(store["entries"])
            metrics["cache.store_bytes"] = float(store["size_bytes"])
        else:
            metrics["setup_s"] = sorted(setups)[len(setups) // 2]
            metrics["peak_rss_mb"] = rss
            metrics["ok_frac"] = 1.0 - checker.failed / checker.attempted
        notes["setup_runs_s"] = setups
        notes["host_reference_ms"] = host.reference_ms()
        return metrics, notes
    finally:
        for daemon in daemons:
            daemon.kill()
            daemon.remove()


def _stop_checked(daemon, checker):
    code = daemon.stop()
    checker.record("drain", code == 0,
                   "daemon exited with {} on SIGTERM".format(code))


def _lag_tail_ms(records):
    return tail([lag * scale * 1000.0
                 for _d, lag, _s, _e, _ok, scale in records])[0]


def _untraced(daemon, mix, rng, seconds, checker, host):
    gen = Generator(daemon.port, checker)
    _records, capacity = gen.closed_loop(mix, 0.1 * seconds, host)
    # Phases are in reference-host seconds; on a slow host they stretch.
    low = gen.open_loop(mix, LOW_RPS, 0.45 * seconds, rng, host)
    high = gen.open_loop(mix, HIGH_RPS, 0.4 * seconds, rng, host)
    metrics, notes = {}, {"capacity_rps": capacity}
    for prefix, recs in (("op_", low + high), ("low.", low),
                         ("high.", high)):
        m, n = latency_summary(prefix, _latencies(recs))
        metrics.update(m)
        notes.update(n)
    metrics["ops_per_s"] = capacity
    notes["lag_tail_ms"] = _lag_tail_ms(high)
    notes["op_p50_raw_ms"] = p50([(r[3] - r[0]) * 1000.0
                                  for r in low + high])
    return metrics, notes


def _traced(daemon, mix, rng, seconds, checker, host):
    spans = Spans()
    plain = Generator(daemon.port, checker)
    traced = Generator(daemon.port, checker, spans)
    low_plain = plain.open_loop(mix, LOW_RPS, 0.2 * seconds, rng, host)
    before_low = daemon.metrics()
    low = traced.open_loop(mix, LOW_RPS, 0.2 * seconds, rng, host)
    after_low = daemon.metrics()
    high = traced.open_loop(mix, HIGH_RPS, 0.35 * seconds, rng, host)
    after_high = daemon.metrics()

    metrics = {}
    for label, recs, before, after in (("low", low, before_low, after_low),
                                       ("high", high, after_low, after_high)):
        deltas = _phase_deltas(before, after, len(recs), _mean_scale(recs))
        for name, value in deltas.items():
            metrics["serve.phase.{}.{}_mean_ms".format(label, name)] = \
                value * 1000.0
        if label == "high":
            # Server-side phases over the time a request spent on the
            # wire and in the daemon (from send, not from due).
            on_wire = sum((done - sent) * scale
                          for _d, _l, sent, done, _ok, scale in recs)
            metrics["attributed_frac"] = (sum(deltas.values())
                                          / (on_wire / len(recs)))
    co_b, co_a = after_low["coalesce"], after_high["coalesce"]
    batches = co_a["batches"] - co_b["batches"]
    metrics["serve.coalesce.avg_batch_size"] = (
        (co_a["batched_requests"] - co_b["batched_requests"]) / batches
        if batches else 0.0)
    reg_b, reg_a = before_low["registry"], after_high["registry"]
    metrics["serve.registry.hits"] = float(reg_a["hits"] - reg_b["hits"])
    metrics["serve.registry.compiles"] = float(
        reg_a["compiles"] - reg_b["compiles"])
    metrics["serve.admission.rejected"] = float(
        after_high["admission"]["shed"] - before_low["admission"]["shed"])
    metrics["loadgen.lag_tail_ms"] = _lag_tail_ms(high)
    metrics["loadgen.achieved_rps"] = len(high) / (0.35 * seconds)
    metrics["trace_overhead_frac"] = (p50(_latencies(low))
                                      / p50(_latencies(low_plain)))

    sustained = None
    deadline = time.perf_counter() + 0.25 * seconds
    for rate in LADDER_RPS:
        if time.perf_counter() >= deadline:
            break
        # One window: the backlog check needs load that never pauses.
        span = max(1.0, 0.05 * seconds)
        recs = plain.open_loop(mix, rate, span, rng, host, window=span)
        if not _sustained(recs):
            break
        sustained = rate
    notes = {"highest_sustained_rps": sustained,
             "ladder_tail_limit_ms": LADDER_TAIL_LIMIT_MS}
    path = os.path.join(OUT_DIR, "spans-serve_mixed-{}.json".format(
        os.getpid()))
    notes["spans_file"] = os.path.relpath(path, ROOT)
    spans.dump(path, {"workload": "serve_mixed"})
    print("perfbench: highest sustained rate {} req/s (ladder {}, tail "
          "limit {} ms)".format(sustained, LADDER_RPS,
                                LADDER_TAIL_LIMIT_MS), file=sys.stderr)
    return metrics, notes
