"""Solver-dispatch caching: batch evaluation vs cold repeated calls.

The dispatch cache plus the grounding-level lineage cache make repeated
``wfomc`` calls with the same (sentence, weights) nearly free and let
``wfomc_batch`` amortize grounding across domain sizes; this bench
quantifies both against a cold-cache loop.
"""


from repro.grounding.lineage import clear_grounding_caches
from repro.logic.parser import parse
from repro.options import SolverOptions
from repro.propositional.counter import reset_engine
from repro.wfomc.solver import clear_solver_caches, wfomc, wfomc_batch

from .conftest import print_table

SENTENCE = parse("forall x, y. (R(x) | S(x, y) | T(y))")
SIZES = (1, 2, 3)
EXPECTED = {1: 7, 2: 161, 3: 13009}  # Table 1 values


def _clear_all():
    clear_solver_caches()
    clear_grounding_caches()
    reset_engine()


def _cold_loop():
    _clear_all()
    return {n: wfomc(SENTENCE, n, options=SolverOptions(method="lineage"))
            for n in SIZES}


def _warm_batch():
    return wfomc_batch(SENTENCE, SIZES, options=SolverOptions(method="lineage"))


def test_cold_repeated_calls(benchmark):
    result = benchmark(_cold_loop)
    assert result == EXPECTED


def test_warm_batch(benchmark):
    _warm_batch()  # populate caches once; the benchmark measures reuse
    result = benchmark(_warm_batch)
    assert result == EXPECTED
    rows = [(n, result[n]) for n in SIZES]
    print_table("wfomc_batch over Table 1 sizes", ["n", "WFOMC"], rows)
