"""Integration tests: every solver stack against every other, end to end.

These tests exercise the full pipelines on shared inputs — the strongest
correctness statement the repository makes is that all of these
independent computation paths agree exactly.
"""

from fractions import Fraction


from repro import (
    ConjunctiveQuery,
    MLN,
    WeightedVocabulary,
    fomc,
    lifted_wfomc,
    parse,
    probability,
    wfomc,
)
from repro.cq import (
    PositiveClause,
    CQAtom,
    clause_probability,
    cq_probability_bruteforce,
    gamma_acyclic_probability,
)
from repro.mln import mln_probability_bruteforce, mln_probability_wfomc
from repro.options import SolverOptions
from repro.transforms import positivize, skolemize, wfomc_without_equality
from repro.weights import from_probability
from repro.wfomc.bruteforce import wfomc_lineage
from repro.wfomc.fo2 import wfomc_fo2


class TestFiveWayAgreement:
    """enumerate == lineage == FO2 cells == lifted rules == closed form."""

    def test_forall_exists(self):
        f = parse("forall x. exists y. R(x, y)")
        n = 2
        values = {
            "enumerate": wfomc(f, n, options=SolverOptions(method="enumerate")),
            "lineage": wfomc(f, n, options=SolverOptions(method="lineage")),
            "fo2": wfomc_fo2(f, n),
            "rules": lifted_wfomc(f, n),
            "closed": Fraction((2 ** n - 1) ** n),
        }
        assert len(set(values.values())) == 1, values

    def test_table1_sentence(self):
        from repro.wfomc.closed_forms import table1_fomc

        f = parse("forall x, y. (R(x) | S(x, y) | T(y))")
        n = 2
        values = {
            wfomc(f, n, options=SolverOptions(method="enumerate")),
            wfomc(f, n, options=SolverOptions(method="lineage")),
            wfomc_fo2(f, n),
            lifted_wfomc(f, n),
            Fraction(table1_fomc(n)),
        }
        assert len(values) == 1


class TestTransformPipelines:
    def test_skolemize_positivize_equality_chain(self):
        # The full Corollary 3.2 preprocessing over a sentence with all
        # three features: existential, negation, equality.
        f = parse("forall x. exists y. (R(x, y) & ~P(y) & x != y)")
        wv = WeightedVocabulary.counting(f)
        g, wv2 = skolemize(f, wv)
        h, wv3 = positivize(g, wv2)
        for n in (1, 2):
            expected = wfomc_lineage(f, n, wv)
            assert wfomc_lineage(h, n, wv3) == expected
            assert wfomc_without_equality(h, n, wv3) == expected


class TestClauseAndQueryViews:
    def test_clause_vs_fo_solver_vs_dual(self):
        # One object, three views: FO sentence, positive clause, dual CQ.
        probs = {"R": Fraction(1, 3), "S": Fraction(1, 4)}
        clause = PositiveClause((CQAtom("R", ("x",)), CQAtom("S", ("x", "y"))))
        sentence = parse("forall x, y. (R(x) | S(x, y))")
        wv = WeightedVocabulary.from_weights(
            {k: from_probability(p) for k, p in probs.items()}, {"R": 1, "S": 2}
        )
        for n in (1, 2, 3):
            via_clause = clause_probability(clause, probs, n)
            via_fo = probability(sentence, n, wv)
            dual = ConjunctiveQuery(
                clause.atoms, {k: 1 - p for k, p in probs.items()}, n
            )
            via_dual = 1 - cq_probability_bruteforce(dual)
            assert via_clause == via_fo == via_dual


class TestMLNFullStack:
    def test_mln_three_ways(self):
        mln = MLN([(2, parse("P(x) -> Q(x)"))])
        query = parse("exists x. (P(x) & Q(x))")
        n = 2
        exact = mln_probability_bruteforce(mln, query, n)
        via_auto = mln_probability_wfomc(mln, query, n)
        via_lineage = mln_probability_wfomc(mln, query, n, options=SolverOptions(method="lineage"))
        assert exact == via_auto == via_lineage


class TestPaperIdentitiesEndToEnd:
    def test_section1_example(self):
        # FOMC(forall x exists y R(x,y), n) = (2^n - 1)^n, via the public API.
        assert fomc(parse("forall x. exists y. R(x, y)"), 6) == (2 ** 6 - 1) ** 6

    def test_spectrum_vs_counting(self):
        from repro.complexity.spectrum import has_model

        f = parse("forall x. exists y. (M(x, y) & x != y)")
        for n in (1, 2, 3):
            assert has_model(f, n) == (fomc(f, n, options=SolverOptions(method="lineage")) > 0)

    def test_gamma_acyclic_vs_fo2_on_shared_fragment(self):
        # The CQ exists x,y (P(x) & S(x,y) & Q(y)) is both gamma-acyclic
        # and FO2: two PTIME algorithms from different sections agree.
        probs = {"P": Fraction(1, 2), "S": Fraction(1, 3), "Q": Fraction(1, 4)}
        q = ConjunctiveQuery(
            [("P", ("x",)), ("S", ("x", "y")), ("Q", ("y",))], probs, 3
        )
        sentence = parse("exists x. exists y. (P(x) & S(x, y) & Q(y))")
        wv = WeightedVocabulary.from_weights(
            {k: from_probability(p) for k, p in probs.items()},
            {"P": 1, "S": 2, "Q": 1},
        )
        assert gamma_acyclic_probability(q) == probability(sentence, 3, wv)
