"""Baseline WFOMC solvers: world enumeration and lineage + WMC.

These implement the *definition* of WFOMC (Section 2) and serve as ground
truth for the polynomial-time algorithms:

* :func:`wfomc_enumerate` sums world weights over all ``2**|Tup(n)|``
  structures — purely for tiny validation instances;
* :func:`wfomc_lineage` grounds the sentence to its lineage and runs the
  exact DPLL weighted model counter — exponential in the worst case but
  vastly faster in practice, and the engine behind every construction the
  paper validates by grounding (the SAT gadget, the Turing machine
  encoding Theta_1, MLN semantics).
"""

from __future__ import annotations

from fractions import Fraction

from ..grounding.lineage import ground_atom_weights, lineage
from ..grounding.structures import all_structures, world_weight
from ..logic.evaluate import evaluate
from ..logic.syntax import free_variables
from ..logic.vocabulary import WeightedVocabulary
from ..options import SolverOptions
from ..propositional.counter import wmc_formula
from ..utils import check_domain_size

__all__ = ["wfomc_enumerate", "wfomc_lineage", "fomc_lineage"]


def _check_sentence(formula):
    free = free_variables(formula)
    if free:
        raise ValueError(
            "WFOMC requires a sentence; free variables: {}".format(sorted(v.name for v in free))
        )


def wfomc_enumerate(formula, n, weighted_vocabulary=None):
    """WFOMC by enumerating all structures (the textbook definition)."""
    _check_sentence(formula)
    check_domain_size(n)
    wv = weighted_vocabulary or WeightedVocabulary.counting(formula)
    total = Fraction(0)
    for structure in all_structures(wv.vocabulary, n):
        if evaluate(formula, structure):
            total += world_weight(structure, wv)
    return total


def wfomc_lineage(formula, n, weighted_vocabulary=None, options=None):
    """WFOMC via lineage grounding and exact CDCL model counting.

    ``options`` is a :class:`~repro.options.SolverOptions` (or ``None``
    for the defaults).  ``workers`` > 1 counts independent top-level
    lineage components on a process pool; the result is bit-identical
    to a serial run.  The conflict-driven-search
    knobs steer the counting engine only (see
    :class:`~repro.propositional.counter.CountingEngine`); the result is
    knob-independent.  ``persist``/``cache_dir`` back the engine's
    component cache with the on-disk store of :mod:`repro.cache`, so
    repeated runs (including separate processes) warm-start from disk.
    """
    opts = SolverOptions.resolve(options)
    _check_sentence(formula)
    check_domain_size(n)
    wv = weighted_vocabulary or WeightedVocabulary.counting(formula)
    prop = lineage(formula, n)
    weight_of, universe = ground_atom_weights(wv, n)
    return wmc_formula(prop, weight_of, universe, options=opts)


def fomc_lineage(formula, n, options=None):
    """Unweighted first-order model count via the lineage path."""
    result = wfomc_lineage(formula, n, options=options)
    assert result.denominator == 1
    return int(result)
