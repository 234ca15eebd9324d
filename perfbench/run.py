"""The repository's benchmark: four workloads from sentence (or HTTP
request) to exact answer, with an outside-in per-layer split.

Run from the root of a checkout::

    python3 perfbench/run.py --workload grounded_cold --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate run that replays each op through the
layers' public functions and reports the per-layer metrics. Timings
are scaled to the speed of a reference host (``harness.HostSpeed``).
The last line of standard output is the result object; the line before
it holds the environment block and notes (tail percentiles, sample
counts, capacity, the host's reference-kernel time and raw timings).
Metric names and units come from ``BENCHMARK.json``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("grounded_cold", "fo2_lifted", "compiled_sweep", "serve_mixed")
#: Fresh-interpreter set-ups per library run; ``setup_s`` is the median.
SETUP_PROBES = 5


def _fail(message):
    print("perfbench: {}".format(message), file=sys.stderr)
    sys.exit(2)


def _load_program():
    """Import the program from ``src``; exit non-zero without a result
    when the checkout does not hold it."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        _fail("no program source at {}".format(SRC))
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        _fail("cannot import the program: {}".format(exc))


def _declared_metrics():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        _fail("cannot read {}: {}".format(path, exc))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _setup_probe(workload, seed, tiny):
    """Import the program and do one workload's set-up in this fresh
    interpreter; print the seconds since the interpreter started it."""
    from library import WORKLOADS as LIBRARY

    LIBRARY[workload](seed, tiny).setup()
    print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))


def _probe_setups(workload, seed, tiny):
    """Median set-up time over fresh interpreters, so import and
    set-up costs of this workload alone are counted; each probe is
    scaled to reference host speed."""
    from harness import HostSpeed

    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"] + (["--tiny"] if tiny else [])
    host = HostSpeed()
    runs, raw = [], []
    for _ in range(SETUP_PROBES):
        host.restart()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=170)
        scale = host.scale()
        if out.returncode != 0:
            _fail("set-up probe failed: {}".format(out.stderr[-2000:]))
        raw.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
        runs.append(raw[-1] * scale)
    return statistics.median(runs), raw


def _run_library(name, seed, seconds, trace, tiny, checker):
    from harness import (HostSpeed, Spans, latency_summary, p50, peak_rss_mb,
                         pin_to_one_core)
    from library import WORKLOADS as LIBRARY, run_traced, run_untraced

    # One client thread: on one core, the host-speed kernel runs where
    # the ops run.
    pin_to_one_core()
    notes = {}
    if not trace:
        setup_s, notes["setup_raw_s"] = _probe_setups(name, seed, tiny)
    workload = LIBRARY[name](seed, tiny)
    workload.setup()
    workload.oracles()
    host = HostSpeed()
    if trace:
        spans = Spans()
        metrics = run_traced(workload, seconds, spans, checker, host)
        notes["traced_ops"] = metrics.pop("traced_ops")
        notes["host_reference_ms"] = host.reference_ms()
        path = os.path.join(ROOT, ".perfbench_out", "spans-{}-{}.json".format(
            name, os.getpid()))
        spans.dump(path, {"workload": name, "seed": seed})
        notes["spans_file"] = os.path.relpath(path, ROOT)
        return metrics, notes
    ops, lows, highs, raw = run_untraced(workload, seconds, checker, host)
    metrics = {"setup_s": setup_s, "ops_per_s": len(ops) / sum(ops),
               "peak_rss_mb": peak_rss_mb(),
               "ok_frac": 1.0 - checker.failed / checker.attempted}
    for prefix, values in (("op_", ops), ("low.", lows), ("high.", highs)):
        m, n = latency_summary(prefix, values)
        metrics.update(m)
        notes.update(n)
    notes["host_reference_ms"] = host.reference_ms()
    notes["op_p50_raw_ms"] = p50(raw) * 1000.0
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny instances (the smoke test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so ``finally`` blocks stop daemons.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    _load_program()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed, args.tiny)
        return 0
    end_to_end, per_layer = _declared_metrics()

    from harness import Checker, emit, environment

    checker = Checker()
    env = environment(args.workload, args.seed, args.trace)
    if args.workload == "serve_mixed":
        from serving import run_serve

        metrics, notes = run_serve(args.seed, args.seconds, args.trace,
                                   checker, args.tiny)
    else:
        metrics, notes = _run_library(args.workload, args.seed, args.seconds,
                                      args.trace, args.tiny, checker)
    if checker.attempted == 0:
        _fail("no answer was checked")

    declared = per_layer if args.trace else end_to_end
    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        _fail("metrics not declared in BENCHMARK.json: {}".format(unknown))
    missing = sorted(set(declared) - set(metrics))
    if not args.trace and missing:
        _fail("end-to-end metrics not measured: {}".format(missing))
    # A layer this workload never enters reports zero work and time.
    notes["layers_not_entered"] = missing
    emit(checker, {name: {"value": float(metrics.get(name, 0.0)),
                          "unit": unit}
                   for name, unit in declared.items()},
         env, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
