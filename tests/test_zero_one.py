"""Tests for the 0-1 law utilities (Section 1) and extension axioms."""

from fractions import Fraction

import pytest

from repro.asymptotics import (
    extension_axiom,
    mu_n,
    mu_sequence,
    simplified_extension_axiom,
)
from repro.logic.parser import parse
from repro.logic.syntax import num_variables
from repro.options import SolverOptions
from repro.wfomc.bruteforce import fomc_lineage


class TestMuN:
    def test_paper_example(self):
        # mu_n(forall x exists y R(x,y)) = (2^n - 1)^n / 2^(n^2) -> 0.
        f = parse("forall x. exists y. R(x, y)")
        for n in (1, 2, 3, 4):
            assert mu_n(f, n) == Fraction((2 ** n - 1) ** n, 2 ** (n * n))

    def test_convergence_to_one(self):
        # Paper discrepancy (documented in EXPERIMENTS.md): Section 1
        # claims (2^n - 1)^n / 2^(n^2) -> 0, but the sequence equals
        # (1 - 2^-n)^n, which increases to 1 — each row of R is nonempty
        # almost surely.  The exact computation settles it.
        f = parse("forall x. exists y. R(x, y)")
        seq = mu_sequence(f, range(2, 9))
        assert all(a < b for a, b in zip(seq, seq[1:]))
        assert seq[-1] > Fraction(9, 10)

    def test_existential_converges_to_one(self):
        f = parse("exists x. P(x)")
        seq = mu_sequence(f, (1, 3, 6), options=SolverOptions(method="lineage"))
        assert seq == [1 - Fraction(1, 2) ** n for n in (1, 3, 6)]

    def test_tautology(self):
        assert mu_n(parse("forall x. (P(x) | ~P(x))"), 5) == 1


class TestExtensionAxioms:
    def test_simplified_matches_table2(self):
        f = simplified_extension_axiom()
        assert f == extension_axiom(3)
        assert num_variables(f) == 4  # x1, x2, x3, y

    def test_k1_has_no_distinctness_guard(self):
        # forall x1 exists y E(x1, y): the paper's Section 1 running example
        # shape; mu_n = ((2^n - 1)/2^n)^n... counted exactly below.
        f = extension_axiom(1)
        assert fomc_lineage(f, 2) == (2 ** 2 - 1) ** 2

    def test_k2_small_counts(self):
        f = extension_axiom(2)
        # Check against direct lineage counting for n = 2: every pair of
        # distinct x1,x2 needs a common E-neighbor.
        assert mu_n(f, 2, options=SolverOptions(method="lineage")) == Fraction(
            fomc_lineage(f, 2), 2 ** 4
        )

    def test_mu_is_a_probability(self):
        # Extension axioms have limit probability 1 (Fagin's proof), but
        # convergence is not monotone at tiny n; we check exact values.
        f = extension_axiom(2)
        # n = 2: one unordered pair needs a common E-neighbor among two
        # columns: mu = 1 - (3/4)^2.
        assert mu_n(f, 2, options=SolverOptions(method="lineage")) == 1 - Fraction(3, 4) ** 2

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            extension_axiom(0)
