"""The FO2 cell recursion in integers: closed forms at large ``n``, a flat
Python stack, and budget aborts that keep the memo consistent.

The recursion scales every weight pair by its denominator, counts in
ints and divides once at the end; these checks compare it against the
paper's closed forms (far beyond brute-force enumeration) with weights
whose denominators differ per predicate, zero weights on either side,
and negative weights.
"""

import inspect
import itertools
import sys
from fractions import Fraction as F

import pytest

from repro import Budget, BudgetExceededError, WeightedVocabulary, parse
from repro.options import SolverOptions
from repro.utils import weights_signature
from repro.wfomc import clear_fo2_caches, wfomc_fo2
from repro.wfomc import fo2
from repro.wfomc.closed_forms import table1_wfomc, wfomc_forall_exists

TABLE1 = parse("forall x, y. (R(x) | S(x, y) | T(y))")
FORALL_EXISTS = parse("forall x. exists y. R(x, y)")

TABLE1_WEIGHTS = [
    {"R": (F(2, 3), F(5, 7)), "S": (F(3, 4), F(1, 5)), "T": (F(7, 2), F(9, 11))},
    {"R": (0, F(3, 2)), "S": (F(5, 3), F(2, 7)), "T": (F(1, 4), 3)},
    {"R": (F(4, 5), 0), "S": (F(2, 9), 0), "T": (F(6, 5), F(1, 3))},
    {"R": (1, -1), "S": (F(-2, 3), F(5, 4)), "T": (F(3, 7), F(-1, 2))},
]

FORALL_EXISTS_WEIGHTS = [
    (F(2, 3), F(5, 7)),
    (0, F(3, 2)),
    (F(4, 5), 0),
    (1, -1),
    (F(-3, 4), F(2, 9)),
]


def _table1_vocabulary(weights):
    return WeightedVocabulary.from_weights(weights, {"R": 1, "S": 2, "T": 1})


@pytest.fixture(autouse=True)
def _cold_caches():
    clear_fo2_caches()
    yield
    clear_fo2_caches()


class TestClosedForms:
    @pytest.mark.parametrize("n", [10, 22, 36])
    @pytest.mark.parametrize("weights", TABLE1_WEIGHTS)
    def test_table1(self, n, weights):
        got = wfomc_fo2(TABLE1, n, _table1_vocabulary(weights))
        assert isinstance(got, F)
        assert got == table1_wfomc(n, weights["R"], weights["S"],
                                   weights["T"])

    @pytest.mark.parametrize("n", [10, 22, 36])
    @pytest.mark.parametrize("pair", FORALL_EXISTS_WEIGHTS)
    def test_forall_exists(self, n, pair):
        wv = WeightedVocabulary.from_weights({"R": pair}, {"R": 2})
        got = wfomc_fo2(FORALL_EXISTS, n, wv)
        assert got == wfomc_forall_exists(n, pair)

    def test_batch_of_sizes_shares_one_decomposition(self):
        # Later sizes reuse the memo filled by earlier ones; each answer
        # still divides by its own n-dependent denominator.
        wv = _table1_vocabulary(TABLE1_WEIGHTS[0])
        w = TABLE1_WEIGHTS[0]
        for n in (10, 12, 11, 10):
            assert wfomc_fo2(TABLE1, n, wv) == table1_wfomc(
                n, w["R"], w["S"], w["T"])


class TestFlatStack:
    def test_many_cells_do_not_grow_the_python_stack(self):
        # Seven unary predicates give 127 valid cells.  Counting them
        # must not need a frame per cell, so a recursion limit just above
        # the current depth (well below 127 spare frames) is enough.
        k = 7
        formula = parse("forall x. (" + " | ".join(
            "P{}(x)".format(i) for i in range(k)) + ")")
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            got = wfomc_fo2(formula, 2)
        finally:
            sys.setrecursionlimit(old)
        assert got == (2 ** k - 1) ** 2


class TestBudgetAbort:
    N = 12

    def test_abort_midway_then_retry_reuses_the_memo(self):
        weights = TABLE1_WEIGHTS[0]
        wv = _table1_vocabulary(weights)

        cold_budget = Budget()
        cold = wfomc_fo2(TABLE1, self.N, wv, options=SolverOptions(budget=cold_budget))
        assert cold == table1_wfomc(self.N, weights["R"], weights["S"],
                                    weights["T"])
        clear_fo2_caches()

        # The budget reads its clock on its first tick and every 64th
        # after; a clock that advances one second per read trips the
        # budget at the ``timeout``-th read, about halfway through.
        reads = itertools.count()
        checks_midway = cold_budget.ticks // 2 // 64
        budget = Budget(timeout=checks_midway, clock=lambda: next(reads))
        with pytest.raises(BudgetExceededError):
            wfomc_fo2(TABLE1, self.N, wv, options=SolverOptions(budget=budget))
        decomposition, _wv = fo2._DECOMPOSITION_CACHE.get(
            (TABLE1, weights_signature(wv)))
        assert decomposition._recurse_memo, "abort came before the recursion"

        retry_budget = Budget()
        retry = wfomc_fo2(TABLE1, self.N, wv, options=SolverOptions(budget=retry_budget))
        assert (retry.numerator, retry.denominator) == (
            cold.numerator, cold.denominator)
        assert retry_budget.ticks < cold_budget.ticks
