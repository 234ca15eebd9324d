"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For each workload it runs ``run.py --tiny`` with tracing off and on and
checks that every oracle passed, that the traced answers matched the
untraced ones (a mismatch is counted as failed), that the result line
has exactly the declared metrics, that ``attributed_frac`` and
``trace_overhead_frac`` are reported, that the layers each workload is
predicted to move were measured, and that the layers it must not enter
read zero. Last, it checks that ``run.py`` fails without a result in a
directory holding only ``BENCHMARK.json`` and the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SECONDS = {"serve_mixed": "3"}

FAILURES = []


def check(label, ok, detail=""):
    print("[perfbench-smoke] {:<58} {} {}".format(
        label, "ok" if ok else "FAIL", detail))
    if not ok:
        FAILURES.append(label)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, RUN if cwd == ROOT else "perfbench/run.py",
           "--workload", workload, "--seed", "7",
           "--seconds", SECONDS.get(workload, "1"), "--trace", str(trace),
           "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "workloads.json")) as fh:
        predictions = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    check("workloads.json covers every workload",
          sorted(predictions) == sorted(names))

    for workload in names:
        for trace in (0, 1):
            label = "{} trace={}".format(workload, trace)
            proc = run(workload, trace)
            result = result_of(proc) if proc.returncode == 0 else None
            check(label + " exits 0 with a result", result is not None,
                  proc.stderr[-400:] if result is None else "")
            if result is None:
                continue
            check(label + " result keys",
                  sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"])
            check(label + " every answer matched its oracle",
                  result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  "{}/{} failed".format(result["failed"],
                                        result["attempted"]))
            metrics = result["metrics"]
            check(label + " exactly the declared metrics",
                  {k: v["unit"] for k, v in metrics.items()}
                  == declared[trace])
            if trace == 0:
                check(label + " end-to-end metrics are non-zero",
                      all(v["value"] > 0 for v in metrics.values()))
                continue
            for name in ("attributed_frac", "trace_overhead_frac"):
                check("{} reports {}".format(label, name),
                      metrics[name]["value"] > 0,
                      "{:.3f}".format(metrics[name]["value"]))
            expect = predictions[workload]
            if workload != "serve_mixed":
                timed = [k for k in expect["moves"]
                         if declared[1][k] in ("ms", "s")]
                check(label + " measured every layer it should move",
                      all(metrics[k]["value"] > 0 for k in timed),
                      str([k for k in timed if metrics[k]["value"] <= 0]))
            else:
                check(label + " measured the daemon phases",
                      metrics["serve.phase.high.evaluate_mean_ms"]["value"]
                      > 0 and metrics["serve.phase.high.parse_mean_ms"][
                          "value"] > 0)
            check(label + " never entered the layers it must not",
                  all(metrics[k]["value"] == 0
                      for k in expect["not_entered"]),
                  str([k for k in expect["not_entered"]
                       if metrics[k]["value"] != 0]))

    bare = os.path.join(ROOT, ".perfbench_out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(names[0], 0, cwd=bare)
        check("without the program: non-zero exit, no result",
              proc.returncode != 0 and not proc.stdout.strip(),
              "exit={}".format(proc.returncode))
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    if FAILURES:
        print("[perfbench-smoke] FAILED: {}".format(", ".join(FAILURES)))
        return 1
    print("[perfbench-smoke] all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
