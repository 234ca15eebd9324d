"""Tests for the top-level solver router and probability computation."""

from fractions import Fraction

import pytest

from repro import fomc, parse, probability, wfomc
from repro.errors import UnsupportedFormulaError
from repro.logic.vocabulary import WeightedVocabulary
from repro.options import SolverOptions


class TestRouting:
    def test_auto_uses_fo2_for_fo2(self):
        f = parse("forall x. exists y. R(x, y)")
        # n = 12 is infeasible for grounding (2^144 worlds); auto must lift.
        assert wfomc(f, 12) == (2 ** 12 - 1) ** 12

    def test_auto_falls_back_for_fo3(self):
        f = parse("forall x, y, z. (R(x, y) & R(y, z) -> R(x, z))")
        # Transitivity: count transitive digraphs on 2 nodes = 13.
        assert wfomc(f, 2) == 13

    def test_method_pinning(self):
        f = parse("forall x. exists y. R(x, y)")
        for method in ("fo2", "lineage", "enumerate"):
            assert wfomc(f, 2, options=SolverOptions(method=method)) == 9

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            wfomc(parse("exists x. P(x)"), 2, options=SolverOptions(method="magic"))

    def test_fomc_returns_int(self):
        result = fomc(parse("exists x. P(x)"), 3)
        assert isinstance(result, int)
        assert result == 2 ** 3 - 1


class TestProbability:
    def test_uniform_probability(self):
        # Pr(exists x P(x)) with p = 1/2 per atom: 1 - 2^-n.
        f = parse("exists x. P(x)")
        for n in (1, 2, 3):
            assert probability(f, n) == 1 - Fraction(1, 2 ** n)

    def test_weighted_probability(self):
        f = parse("exists x. P(x)")
        wv = WeightedVocabulary.from_weights({"P": (1, 3)}, {"P": 1})
        # p = 1/4 per atom.
        for n in (1, 2):
            assert probability(f, n, wv) == 1 - Fraction(3, 4) ** n

    def test_zero_normalization_rejected(self):
        f = parse("exists x. P(x)")
        wv = WeightedVocabulary.from_weights({"P": (1, -1)}, {"P": 1})
        with pytest.raises(UnsupportedFormulaError):
            probability(f, 2, wv)

    def test_tautology_has_probability_one(self):
        f = parse("forall x. (P(x) | ~P(x))")
        assert probability(f, 4) == 1


class TestCrossMethodAgreement:
    @pytest.mark.parametrize(
        "text",
        [
            "forall x. exists y. R(x, y)",
            "forall x, y. (R(x) | S(x, y) | T(y))",
            "exists x. (P(x) & forall y. S(x, y))",
        ],
    )
    def test_all_methods_agree(self, text):
        f = parse(text)
        for n in (1, 2):
            results = {
                method: wfomc(f, n, options=SolverOptions(method=method))
                for method in ("fo2", "lineage", "enumerate")
            }
            assert len(set(results.values())) == 1, results
