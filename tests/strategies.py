"""Shared hypothesis strategies for randomized property tests."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from repro.logic.syntax import (
    Atom,
    Eq,
    Var,
    conj,
    disj,
    exists,
    forall,
    neg,
)
from repro.logic.vocabulary import WeightedVocabulary
from repro.propositional.formula import PNot, POr, pand, pnot, por, pvar

X, Y = Var("x"), Var("y")

#: A small fixed vocabulary used by random-sentence strategies.
FO2_ARITIES = {"P": 1, "Q": 1, "R": 2, "S": 2}


def fractions(min_num=-3, max_num=4, denominators=(1, 2, 3)):
    """Small exact rationals, including negatives (Skolem-style weights)."""
    return st.builds(
        Fraction,
        st.integers(min_value=min_num, max_value=max_num),
        st.sampled_from(denominators),
    )


def probabilities():
    """Rationals in [0, 1] with small denominators."""
    return st.integers(min_value=0, max_value=6).map(lambda k: Fraction(k, 6))


def weighted_vocabularies(names_arities=None, allow_negative=True):
    """Random symmetric weight assignments over a fixed vocabulary."""
    names_arities = names_arities or FO2_ARITIES
    weight = fractions() if allow_negative else fractions(min_num=0)
    return st.fixed_dictionaries(
        {name: st.tuples(weight, weight) for name in names_arities}
    ).map(lambda w: WeightedVocabulary.from_weights(w, names_arities))


def _atoms(variables):
    choices = []
    for v in variables:
        choices.append(Atom("P", (v,)))
        choices.append(Atom("Q", (v,)))
    for v in variables:
        for u in variables:
            choices.append(Atom("R", (v, u)))
            choices.append(Atom("S", (v, u)))
    if len(variables) >= 2:
        choices.append(Eq(variables[0], variables[1]))
    return st.sampled_from(choices)


def quantifier_free(variables, max_depth=3):
    """Random quantifier-free formulas over the given variables."""
    base = _atoms(variables)
    return st.recursive(
        base,
        lambda inner: st.one_of(
            inner.map(neg),
            st.tuples(inner, inner).map(lambda t: conj(*t)),
            st.tuples(inner, inner).map(lambda t: disj(*t)),
        ),
        max_leaves=max_depth * 2,
    )


@st.composite
def fo2_sentences(draw):
    """Random FO2 sentences with up to two nested quantifier blocks."""
    inner = draw(quantifier_free((X, Y)))
    pattern = draw(st.sampled_from(["AA", "AE", "EA", "EE", "A", "E"]))
    if pattern == "AA":
        return forall([X, Y], inner)
    if pattern == "AE":
        return forall([X], exists([Y], inner))
    if pattern == "EA":
        return exists([X], forall([Y], inner))
    if pattern == "EE":
        return exists([X, Y], inner)
    one_var = draw(quantifier_free((X,)))
    if pattern == "A":
        return forall([X], one_var)
    return exists([X], one_var)


@st.composite
def fo2_nested_sentences(draw):
    """FO2 sentences with deeper nesting and Boolean structure on top."""
    first = draw(fo2_sentences())
    second = draw(fo2_sentences())
    op = draw(st.sampled_from(["and", "or", "not", "single"]))
    if op == "and":
        return conj(first, second)
    if op == "or":
        return disj(first, second)
    if op == "not":
        return neg(first)
    return first


@st.composite
def prop_formulas(draw, labels=("a", "b", "c", "d")):
    """Random propositional formulas over a few labels."""
    base = st.sampled_from([pvar(l) for l in labels])
    formula = st.recursive(
        base,
        lambda inner: st.one_of(
            inner.map(pnot),
            st.lists(inner, min_size=2, max_size=3).map(lambda fs: pand(*fs)),
            st.lists(inner, min_size=2, max_size=3).map(lambda fs: por(*fs)),
        ),
        max_leaves=8,
    )
    return draw(formula)


@st.composite
def cnf_clause_lists(draw, num_vars=5, max_clauses=8):
    """Random CNF clause lists over integer variables 1..num_vars."""
    literals = st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clause = st.lists(literals, min_size=1, max_size=3).map(tuple)
    return draw(st.lists(clause, min_size=0, max_size=max_clauses))


@st.composite
def lineage_conjunctions(draw, labels=("a", "b", "c", "d")):
    """Conjunctions shaped like the lineages of universal sentences.

    Mixes literal clauses, grounded implications ``!(x & y) | z``, alone
    or next to their De Morgan twin ``!x | !y | z`` (a hidden duplicate
    clause), ANDs nested inside ORs, negated ORs, double negations, and
    tautologies hidden behind De Morgan (``!(x & y) | x``).
    """
    atoms = [pvar(l) for l in labels]
    literal = st.sampled_from(atoms + [pnot(a) for a in atoms])
    clause = st.lists(literal, min_size=1, max_size=3).map(lambda ls: por(*ls))
    implication = st.tuples(literal, literal, literal).map(
        lambda t: por(pnot(pand(t[0], t[1])), t[2]))
    twins = st.tuples(literal, literal, literal).map(
        lambda t: pand(por(pnot(pand(t[0], t[1])), t[2]),
                       por(pnot(t[0]), pnot(t[1]), t[2])))
    nested = st.tuples(literal, st.lists(literal, min_size=2, max_size=3)).map(
        lambda t: por(t[0], pand(*t[1])))
    negated_or = st.lists(literal, min_size=2, max_size=3).map(
        lambda ls: pnot(por(*ls)))
    double_negation = st.tuples(literal, literal).map(
        lambda t: POr((PNot(PNot(t[0])), t[1])))
    hidden_tautology = st.tuples(literal, literal).map(
        lambda t: por(pnot(pand(t[0], t[1])), t[0]))
    shape = st.one_of(clause, implication, twins, nested, negated_or,
                      double_negation, hidden_tautology)
    return pand(*draw(st.lists(shape, min_size=1, max_size=6)))
