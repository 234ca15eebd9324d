"""Tests for propositional formulas, CNF conversion, and the WMC engine.

The DPLL counter is the load-bearing substrate of every grounded
computation, so it gets property tests against assignment enumeration,
including with negative weights.
"""

import sys
from fractions import Fraction

from hypothesis import given, settings

from repro.grounding.lineage import lineage
from repro.logic import parse
from repro.propositional.bruteforce import count_models_enumerate, wmc_enumerate
from repro.propositional.cnf import to_cnf
from repro.propositional.counter import (
    model_count,
    satisfiable,
    wmc_cnf,
    wmc_formula,
)
from repro.propositional.formula import (
    PAnd,
    PFalse,
    PNot,
    POr,
    PTrue,
    pand,
    peval,
    pnot,
    por,
    prop_vars,
    pvar,
)
from repro.weights import WeightPair

from .strategies import fractions, lineage_conjunctions, prop_formulas

a, b, c = pvar("a"), pvar("b"), pvar("c")


class TestFormulaConstructors:
    def test_pand_flattens_and_folds(self):
        assert pand(a, pand(b, c)) == PAnd((a, b, c))
        assert pand() == PTrue()
        assert pand(a, PFalse()) == PFalse()
        assert pand(a) == a

    def test_por_flattens_and_folds(self):
        assert por(a, por(b, c)) == POr((a, b, c))
        assert por() == PFalse()
        assert por(a, PTrue()) == PTrue()

    def test_pnot_folds(self):
        assert pnot(pnot(a)) == a
        assert pnot(PTrue()) == PFalse()

    def test_prop_vars(self):
        assert prop_vars(pand(a, pnot(por(b, c)))) == {"a", "b", "c"}

    def test_peval(self):
        f = por(pand(a, b), pnot(c))
        assert peval(f, {"a": True, "b": True, "c": True})
        assert not peval(f, {"a": False, "b": True, "c": True})


class TestCNF:
    def test_clausal_formula_direct(self):
        f = pand(por(a, b), por(pnot(a), c))
        cnf = to_cnf(f)
        # No auxiliary variables for a clausal input.
        assert cnf.num_vars == 3
        assert len(cnf.clauses) == 2

    def test_tseitin_for_non_clausal(self):
        f = por(pand(a, b), pand(pnot(a), c))
        cnf = to_cnf(f)
        assert cnf.num_vars > 3

    def test_contradiction(self):
        cnf = to_cnf(PFalse())
        assert cnf.contradictory

    def test_tseitin_preserves_model_count(self):
        f = por(pand(a, b), pand(pnot(a), c))
        assert model_count(f) == count_models_enumerate(f)

    @settings(max_examples=60, deadline=None)
    @given(prop_formulas())
    def test_tseitin_count_property(self, f):
        universe = sorted(prop_vars(f))
        assert model_count(f, universe) == count_models_enumerate(f, universe)

    def test_transitive_lineage_needs_no_auxiliaries(self):
        # R(x,y) & R(y,z) -> R(x,z) grounds to !(R(x,y) & R(y,z)) | R(x,z):
        # a clause up to De Morgan.  64 ground clauses, minus tautologies
        # and repeats, over the 16 atoms of n=4.
        sentence = parse("forall x, y, z. (R(x, y) & R(y, z) -> R(x, z))")
        cnf = to_cnf(lineage(sentence, 4))
        assert (cnf.num_vars, len(cnf.clauses), cnf.num_aux()) == (16, 36, 0)
        assert model_count(lineage(sentence, 4)) == 3994

    def test_disguised_tautology_has_no_clauses(self):
        # z = y satisfies every ground disjunction, so each flattened
        # clause holds !T(x,y) and T(x,y) and is dropped.
        sentence = parse(
            "forall x. forall y. exists z. ((T(x,y) & T(y,z)) -> T(x,z))")
        cnf = to_cnf(lineage(sentence, 4))
        assert (cnf.num_vars, cnf.clauses) == (16, [])

    def test_auxiliaries_only_for_non_literal_disjuncts(self):
        d = pvar("d")
        f = pand(por(a, pand(b, c)), por(pnot(pand(a, b)), c), pnot(por(a, d)))
        cnf = to_cnf(f)
        assert cnf.num_aux() == 1  # for the nested b & c, nothing else
        va, vb, vc, vd = (cnf.index_of[l] for l in "abcd")
        (x,) = set(range(1, cnf.num_vars + 1)) - set(cnf.labels)
        assert sorted(map(sorted, cnf.clauses)) == sorted(map(sorted, [
            (va, x), (-x, vb), (-x, vc), (x, -vb, -vc),  # x <-> (b & c)
            (-va, -vb, vc), (-va,), (-vd,),
        ]))
        # A conjunct that is not a clause up to De Morgan keeps its
        # disjuncts as written: there !(a & b) is one auxiliary.
        assert to_cnf(por(pnot(pand(a, b)), pand(b, c))).num_aux() == 2

    def test_constants_inside_raw_nodes(self):
        # The smart constructors fold constants away; raw nodes can still
        # carry them into a clause or a definition.
        for f in (
            PAnd((POr((a, PAnd((b, PTrue())))), POr((c, PFalse())))),
            POr((PAnd((a, PFalse())), PAnd((b, c)), PNot(POr((PTrue(), a))))),
            PAnd((POr((a, PNot(PFalse()))), PNot(PAnd((PTrue(), b))))),
        ):
            universe = ["a", "b", "c"]
            assert model_count(f, universe) == count_models_enumerate(f, universe)

    def test_deep_formula_converts_without_recursion(self):
        # Built with the raw node classes: hashing a 5,000-deep node (as
        # the smart constructors do) would itself recurse.  Each level
        # puts its literal first, and every assignment decides the chain
        # within six levels, so the recursive reference evaluator behind
        # count_models_enumerate stays shallow.
        assert sys.getrecursionlimit() < 5000
        atoms = [pvar(i) for i in range(3)]
        f = atoms[0]
        for i in range(5000):
            f = (PAnd if i % 2 == 0 else POr)((atoms[(i + 1) % 3], f))
        cnf = to_cnf(f, extra_labels=range(3))
        assert cnf.num_aux() > 0
        assert wmc_cnf(cnf, lambda _label: (1, 1)) == count_models_enumerate(
            f, range(3))

    @settings(max_examples=80, deadline=None)
    @given(lineage_conjunctions(), fractions(), fractions(), fractions(),
           fractions())
    def test_lineage_shapes_match_enumeration(self, f, wa, wb, wc, wd):
        pairs = {
            "a": WeightPair(wa, wb),
            "b": WeightPair(wb, 0),
            "c": WeightPair(wc, wd),
            "d": WeightPair(Fraction(-1, 2), wa),
        }
        universe = ["a", "b", "c", "d"]
        fast = wmc_formula(f, pairs.__getitem__, universe)
        slow = wmc_enumerate(f, pairs.__getitem__, universe)
        assert (fast.numerator, fast.denominator) == (
            slow.numerator, slow.denominator)


class TestWMC:
    def test_single_variable(self):
        weights = {"a": WeightPair(2, 3)}
        assert wmc_formula(a, weights.__getitem__) == 2
        assert wmc_formula(pnot(a), weights.__getitem__) == 3

    def test_unconstrained_variable_contributes_total(self):
        weights = {"a": WeightPair(2, 3), "b": WeightPair(5, 7)}
        assert wmc_formula(a, weights.__getitem__, universe=["a", "b"]) == 2 * 12

    def test_negative_weights(self):
        # Skolem-style cancellation: a free (1, -1) variable zeroes the count.
        weights = {"a": WeightPair(1, 1), "b": WeightPair(1, -1)}
        assert wmc_formula(a, weights.__getitem__, universe=["a", "b"]) == 0

    def test_contradiction_counts_zero(self):
        assert model_count(pand(a, pnot(a))) == 0

    def test_tautology(self):
        assert model_count(por(a, pnot(a))) == 2

    @settings(max_examples=60, deadline=None)
    @given(prop_formulas(), fractions(), fractions(), fractions(), fractions())
    def test_wmc_matches_enumeration(self, f, wa, wb, wc, wd):
        pairs = {
            "a": WeightPair(wa, 1),
            "b": WeightPair(wb, 2),
            "c": WeightPair(wc, wd),
            "d": WeightPair(1, wd),
        }
        universe = ["a", "b", "c", "d"]
        fast = wmc_formula(f, pairs.__getitem__, universe)
        slow = wmc_enumerate(f, pairs.__getitem__, universe)
        assert fast == slow

    def test_component_decomposition_correctness(self):
        # Two independent components: counts multiply.
        f = pand(por(a, b), por(c, pvar("d")))
        assert model_count(f) == 9

    def test_large_independent_product(self):
        # 20 independent clauses: DPLL must not blow up.
        f = pand(*(por(pvar("x{}".format(i)), pvar("y{}".format(i))) for i in range(20)))
        assert model_count(f) == 3 ** 20


class TestSAT:
    def test_satisfiable(self):
        assert satisfiable(pand(por(a, b), pnot(a)))

    def test_unsatisfiable(self):
        assert not satisfiable(pand(a, pnot(a)))

    def test_deep_unsat(self):
        f = pand(por(a, b), por(pnot(a), b), pnot(b))
        assert not satisfiable(f)

    @settings(max_examples=60, deadline=None)
    @given(prop_formulas())
    def test_sat_iff_count_positive(self, f):
        assert satisfiable(f) == (count_models_enumerate(f) > 0)
