"""Circuit-evaluation backend benchmarks: serving speed per backend.

Two roles, mirroring ``bench_compile.py``:

* pytest-benchmark smoke tests keep every :mod:`repro.compile.backends`
  path exercised in CI on small instances, asserting bit-identical
  counts for the exact backends and bounded error for the float one;
* :func:`measure_backends` compiles the branching-bound Theta_1
  instance once and serves the ``k``-vocabulary weight sweep through
  each backend in steady state (sources generated and compiled, store
  warm), timing evaluation only.  ``check_regression.py`` gates the
  codegen speedup over the exact row interpreter (>= 5x with
  bit-identical results) — the property the backend subsystem exists
  for.  Running this module as a script prints the same measurement;
  ``--emit`` writes the committed ``BENCH_backends.json``::

      python benchmarks/bench_backends.py --emit
"""

from __future__ import annotations

import argparse
import json
import os
import time
from fractions import Fraction

#: Backends measured against the exact row interpreter.
MEASURED = ("batched", "float", "codegen")


def _best_of(fn, repeats):
    """Minimum wall clock over ``repeats`` runs (steady-state serving)."""
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def measure_backends(sweep_size=32, n=3, repeats=3):
    """Steady-state sweep serving: the row interpreter vs each backend.

    The circuit is compiled once and every backend is primed once before
    timing, so the figures isolate evaluation itself — the per-request
    cost of a sweep-serving process — rather than compilation or codegen
    one-time costs (those amortize over the process lifetime and are
    already covered by the ``bench_compile`` gate).  Returns the best-of
    ``repeats`` wall clock per backend, the speedup over the exact row
    interpreter, bit-identity flags for the exact backends, and the
    worst float-backend relative error.
    """
    try:
        from bench_compile import _theta1_sweep_instance
    except ImportError:  # collected as the benchmarks package
        from benchmarks.bench_compile import _theta1_sweep_instance
    from repro.compile import compile_wfomc
    from repro.options import SolverOptions

    sentence, vocabularies = _theta1_sweep_instance(sweep_size)
    compiled = compile_wfomc(sentence, n, options=SolverOptions(method="lineage"))

    def serve(backend):
        return compiled.evaluate_many(vocabularies, backend=backend)

    for backend in (None,) + MEASURED:  # prime: codegen compiles here
        serve(backend)

    exact_s, reference = _best_of(lambda: serve(None), repeats)
    out = {
        "sweep_size": sweep_size,
        "n": n,
        "repeats": repeats,
        "circuit_nodes": len(compiled.circuit.rows),
        "exact_s": exact_s,
        "backends": {},
    }
    for backend in MEASURED:
        seconds, results = _best_of(lambda b=backend: serve(b), repeats)
        entry = {"seconds": seconds, "speedup": exact_s / seconds}
        if backend == "float":
            entry["max_rel_error"] = max(
                abs(float(value) - approx) / abs(float(value))
                if value != 0 else abs(approx)
                for value, approx in zip(reference, results))
        else:
            entry["bit_identical"] = (
                len(results) == len(reference)
                and all(a == b and isinstance(b, Fraction)
                        for a, b in zip(reference, results)))
        out["backends"][backend] = entry
    return out


# -- pytest-benchmark smoke tests (CI keeps every backend alive) -------------


def _small_instance():
    from repro.logic.parser import parse
    from repro.logic.syntax import predicates_of
    from repro.logic.vocabulary import WeightedVocabulary

    f = parse("forall x, y. (R(x) | S(x, y) | T(y))")
    arities = predicates_of(f)
    vocabularies = [
        WeightedVocabulary.from_weights(
            {name: (Fraction(k, 3), 1) for name in arities}, arities)
        for k in range(1, 7)
    ]
    return f, vocabularies


def test_backend_smoke_batched_bit_identical(benchmark):
    from repro.compile import compile_wfomc
    from repro.options import SolverOptions

    f, vocabularies = _small_instance()
    compiled = compile_wfomc(f, 2, options=SolverOptions(method="lineage"))
    reference = compiled.evaluate_many(vocabularies)

    results = benchmark(
        lambda: compiled.evaluate_many(vocabularies, backend="batched"))
    assert results == reference


def test_backend_smoke_codegen_bit_identical(benchmark):
    from repro.compile import compile_wfomc
    from repro.options import SolverOptions

    f, vocabularies = _small_instance()
    compiled = compile_wfomc(f, 2, options=SolverOptions(method="lineage"))
    reference = compiled.evaluate_many(vocabularies)

    results = benchmark(
        lambda: compiled.evaluate_many(vocabularies, backend="codegen"))
    assert results == reference


def test_backend_smoke_float_bounded(benchmark):
    from repro.compile import compile_wfomc
    from repro.options import SolverOptions

    f, vocabularies = _small_instance()
    compiled = compile_wfomc(f, 2, options=SolverOptions(method="lineage"))
    reference = compiled.evaluate_many(vocabularies)

    results = benchmark(
        lambda: compiled.evaluate_many(vocabularies, backend="float"))
    for value, approx in zip(reference, results):
        assert abs(float(value) - approx) <= 1e-9 * abs(float(value))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--emit", action="store_true",
        help="write the measurement to the repo-root BENCH_backends.json")
    parser.add_argument("--sweep-size", type=int, default=32)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    result = measure_backends(
        sweep_size=args.sweep_size, n=args.n, repeats=args.repeats)
    text = json.dumps(result, indent=2)
    print(text)
    if args.emit:
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "BENCH_backends.json")
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print("wrote {}".format(os.path.abspath(path)))


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
    main()
