"""Persistent-cache benchmarks: warm-vs-cold cross-process sweeps.

Two roles:

* pytest-benchmark smoke tests keep the persist code paths exercised in
  CI on small instances, asserting bit-identical counts between
  persist-on, persist-off, and disk-warm runs;
* :func:`measure_warm_vs_cold` runs the branching-bound Theta_1 weight
  sweep twice in *separate subprocesses* sharing one store — the cold
  process fills the disk cache, the warm process must be served from it
  — and reports both wall clocks.  ``check_regression.py`` gates the
  warm/cold speedup (>= 2x, serial and ``workers=2``) and the
  bit-identicality of the counts; running this module as a script
  prints the same measurement::

      python benchmarks/bench_persist.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(_HERE, os.pardir, "src")

#: Subprocess driver: one Theta_1 weight sweep with ``persist=True``.
#: Timing starts after imports (and after the worker pool is pre-warmed,
#: when used) so both the cold and the warm process measure the sweep
#: itself, not interpreter or pool startup.
_DRIVER = """
import json
import sys
import time
from fractions import Fraction

from repro.complexity.encoding import encode_theta1
from repro.complexity.turing import RIGHT, CountingTM, Transition
from repro.logic.syntax import predicates_of
from repro.logic.vocabulary import WeightedVocabulary
from repro.options import SolverOptions
from repro.wfomc.solver import wfomc_weight_sweep

cache_dir, workers, sweep_size = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
workers = workers or None

tm = CountingTM(
    states=["q0"], initial="q0", accepting=["q0"], num_tapes=1,
    active_tape={"q0": 0},
    delta={
        ("q0", 1): [Transition("q0", 1, RIGHT), Transition("q0", 0, RIGHT)],
        ("q0", 0): [Transition("q0", 0, RIGHT)],
    },
)
sentence = encode_theta1(tm, epochs=1).sentence
arities = predicates_of(sentence)
varied = sorted(arities)[0]
vocabularies = [
    WeightedVocabulary.from_weights(
        {name: (Fraction(k, 2), 1) if name == varied else (1, 1)
         for name in arities},
        arities,
    )
    for k in range(1, sweep_size + 1)
]

if workers:
    # Pre-warm the pool so its startup is not billed to the sweep.
    from repro.wfomc.solver import wfomc
    from repro.logic.parser import parse
    wfomc(parse("forall x, y. (R(x) | S(x, y))"), 2,
          options=SolverOptions(method="lineage", workers=workers))

start = time.perf_counter()
results = wfomc_weight_sweep(
    sentence, 3, vocabularies,
    options=SolverOptions(method="lineage", persist=True,
                          cache_dir=cache_dir, workers=workers))
elapsed = time.perf_counter() - start

from repro.cache import open_store
open_store(cache_dir).flush()
print(json.dumps({
    "elapsed_s": elapsed,
    "counts": [str(r) for r in results],
}))
"""


def _run_sweep_process(cache_dir, workers=0, sweep_size=4):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, "-c", _DRIVER, cache_dir, str(workers),
         str(sweep_size)],
        capture_output=True, text=True, env=env)
    if result.returncode != 0:
        raise RuntimeError("sweep process failed:\n" + result.stderr)
    return json.loads(result.stdout)


def measure_warm_vs_cold(workers=0, sweep_size=4, repeats=2):
    """Cold-process vs warm-process wall clock of the Theta_1 sweep.

    The cold run starts from an empty store; each warm run is a fresh
    process over the now-filled store (best of ``repeats`` resists
    scheduler noise).  Returns a dict with both times, the speedup, and
    whether the counts were bit-identical.
    """
    with tempfile.TemporaryDirectory(prefix="repro-bench-persist-") as tmp:
        cache_dir = os.path.join(tmp, "store")
        cold = _run_sweep_process(cache_dir, workers, sweep_size)
        warm_times = []
        identical = True
        for _ in range(repeats):
            warm = _run_sweep_process(cache_dir, workers, sweep_size)
            warm_times.append(warm["elapsed_s"])
            identical = identical and warm["counts"] == cold["counts"]
    return {
        "workers": workers or None,
        "sweep_size": sweep_size,
        "cold_s": cold["elapsed_s"],
        "warm_s": min(warm_times),
        "speedup": cold["elapsed_s"] / min(warm_times),
        "bit_identical": identical,
    }


# -- pytest-benchmark smoke tests (CI keeps the persist paths alive) ---------


def test_persist_smoke_counts_are_bit_identical(benchmark, tmp_path):
    from repro.logic.parser import parse
    from repro.options import SolverOptions
    from repro.propositional.counter import reset_engine
    from repro.wfomc.solver import clear_solver_caches, wfomc

    from repro.grounding.lineage import clear_grounding_caches

    f = parse("forall x, y. (R(x) | S(x, y) | T(y))")
    plain = wfomc(f, 2, options=SolverOptions(method="lineage"))
    cache_dir = str(tmp_path / "smoke-store")

    def persisted():
        reset_engine()
        clear_grounding_caches()
        clear_solver_caches()
        return wfomc(f, 2, options=SolverOptions(
            method="lineage", persist=True, cache_dir=cache_dir))

    cold = persisted()  # fills the store
    warm = benchmark(persisted)  # every further run reads it back
    assert plain == cold == warm == 161


def test_persist_smoke_store_roundtrip(benchmark, tmp_path):
    from fractions import Fraction

    from repro.cache import PersistentStore

    store = PersistentStore(str(tmp_path / "rt-store"))
    payload = {(i, i + 1): Fraction(i, 3) for i in range(64)}

    def roundtrip():
        store.put("components", "bench-key", payload)
        store.flush()
        return store.get("components", "bench-key")

    assert benchmark(roundtrip) == payload
    store.close()


if __name__ == "__main__":
    for workers in (0, 2):
        result = measure_warm_vs_cold(workers=workers)
        print(json.dumps(result, indent=2))
