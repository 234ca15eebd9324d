"""Tests for spectrum membership (the associated decision problem)."""

import sys

from repro.cli import main
from repro.complexity.spectrum import has_model, in_spectrum, spectrum
from repro.logic.parser import parse
from repro.options import SolverOptions


class TestHasModel:
    def test_cq_has_model_everywhere(self):
        # The paper: every CQ has a model over any domain of size n >= 1.
        f = parse("exists x, y. (R(x) & S(x, y))")
        assert spectrum(f, 4) == {1, 2, 3, 4}

    def test_unsatisfiable(self):
        f = parse("(exists x. P(x)) & (forall x. ~P(x))")
        assert spectrum(f, 3) == set()

    def test_even_spectrum(self):
        # "Every element has a distinct partner": models exist iff n is even.
        f = parse(
            "(forall x. exists y. (M(x, y) & x != y)) & "
            "(forall x, y. (M(x, y) -> M(y, x))) & "
            "(forall x. forall y. forall z. (M(x, y) & M(x, z) -> y = z))"
        )
        assert spectrum(f, 4) == {2, 4}

    def test_at_least_three(self):
        f = parse("exists x, y. exists z. (x != y & y != z & x != z)")
        assert spectrum(f, 5) == {3, 4, 5}

    def test_in_spectrum_alias(self):
        f = parse("exists x. P(x)")
        assert in_spectrum(f, 1)
        assert has_model(f, 1)

    def test_spectrum_membership_vs_fomc(self):
        # n in Spec(Phi) iff FOMC(Phi, n) > 0 — the Jaeger-Van den Broeck
        # observation from Section 1.
        from repro.wfomc.solver import fomc

        f = parse("forall x. exists y. (R(x, y) & x != y)")
        for n in (1, 2, 3):
            count = fomc(f, n, options=SolverOptions(method="lineage"))
            assert has_model(f, n) == (count > 0)


class TestDeepSearch:
    """The SAT search keeps no Python frame per pure literal or decision."""

    WIDE = "forall x. forall y. (E(x,y) | F(x,y))"

    def test_thousands_of_pure_literals(self):
        # 3,200 ground atoms, every literal pure: one step assigns them.
        assert has_model(parse(self.WIDE), 40)

    def test_spectrum_command_on_wide_sentence(self, capsys):
        assert main(["spectrum", self.WIDE, "40"]) == 0
        assert capsys.readouterr().out.split() == [str(n)
                                                   for n in range(1, 41)]

    def test_hundreds_of_decisions_under_a_low_recursion_limit(self):
        # P(i) xor Q(i): no pure literal and nothing propagates until a
        # decision, so the search decides once per domain element.
        from repro.grounding.lineage import lineage
        from repro.propositional.counter import satisfiable

        ground = lineage(parse("forall x. ((P(x) | Q(x)) & (~P(x) | ~Q(x)))"),
                         300)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            assert satisfiable(ground)
        finally:
            sys.setrecursionlimit(limit)
