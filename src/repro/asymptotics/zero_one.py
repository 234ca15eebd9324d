"""0-1 laws computed through FOMC (the Section 1 discussion).

``mu_n(Phi)`` is the fraction of labeled structures over ``[n]``
satisfying ``Phi``; Fagin's 0-1 law says it converges to 0 or 1 for
every FO sentence.  The paper's #P1-hardness result shows there is no
*elementary* proof route via closed-form model counts — no closed
formula for ``FOMC(Phi, n)`` is computable in general — but for the
sentences our solvers handle, ``mu_n`` is computable exactly, and the
examples/benchmarks display the convergence.

Also included: the (simplified) extension axioms of Table 2, the
building blocks of Fagin's transfer-theorem proof.
"""

from __future__ import annotations

from fractions import Fraction

from ..logic.syntax import Atom, Var, conj, disj, exists, forall, neg, Eq
from ..logic.vocabulary import WeightedVocabulary
from ..utils import check_domain_size
from ..wfomc.solver import wfomc

__all__ = ["mu_n", "mu_sequence", "extension_axiom", "simplified_extension_axiom"]


def mu_n(formula, n, options=None):
    """``mu_n(Phi) = FOMC(Phi, n) / 2**|Tup(n)|`` as an exact Fraction.

    ``options`` is a :class:`~repro.options.SolverOptions` passed on to
    :func:`~repro.wfomc.solver.wfomc`.
    """
    check_domain_size(n)
    wv = WeightedVocabulary.counting(formula)
    count = wfomc(formula, n, wv, options=options)
    total = 2 ** wv.vocabulary.num_ground_tuples(n)
    return Fraction(count, total)


def mu_sequence(formula, sizes, options=None):
    """``[mu_n(Phi) for n in sizes]`` — watch the 0-1 law converge."""
    return [mu_n(formula, n, options=options) for n in sizes]


def simplified_extension_axiom():
    """The simplified extension axiom from Table 2 (an open problem).

    ``forall x1, x2, x3 (distinct -> exists y E(x1,y) & E(x2,y) & E(x3,y))``
    """
    return extension_axiom(3)


def extension_axiom(k, predicate="E"):
    """The k-ary "common neighbor" extension axiom over a binary ``E``.

    ``forall x1..xk (pairwise distinct -> exists y. E(x1,y) & ... & E(xk,y))``

    Each extension axiom has asymptotic probability 1 (Fagin); the exact
    counting complexity of even the simplified ``k = 3`` case is open
    (Table 2).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    xs = [Var("x{}".format(i)) for i in range(1, k + 1)]
    y = Var("y")
    distinct = [
        neg(Eq(xs[i], xs[j])) for i in range(k) for j in range(i + 1, k)
    ]
    common = exists([y], conj(*(Atom(predicate, (x, y)) for x in xs)))
    if distinct:
        # ~(x_i all distinct) | common, via De Morgan on the disequalities.
        body = disj(*(neg(d) for d in distinct), common)
    else:
        body = common
    return forall(xs, body)
