"""The FO2 lifted algorithm: polynomial data complexity (Appendix C, [37]).

Pipeline, following Van den Broeck et al. as reviewed in Appendix C:

1. **Scott-normalize** the sentence: nested quantifiers are flattened into
   a conjunction of prenex sentences with prefixes ``forall*`` or
   ``forall* exists`` over fresh defined symbols (weight ``(1, 1)``).
2. **Skolemize** away the existentials (Lemma 3.3), introducing symbols
   with the cancellation weights ``(1, -1)``.
3. The residue is a single universal sentence ``forall x forall y psi``
   over predicates of arity at most 2 (plus zero-ary symbols).
4. **Shannon-expand** the zero-ary symbols (as prescribed in Appendix C).
5. Run the **cell decomposition**: a 1-type (cell) is a truth assignment
   to all unary atoms ``U(x)`` and reflexive binary atoms ``B(x, x)``;
   the weighted count is a sum over how the ``n`` domain elements are
   partitioned among the valid cells:

   ``sum_{n_1+...+n_K = n} multinomial * prod_k u_k**n_k
   * prod_k r_kk**C(n_k, 2) * prod_{k<l} r_kl**(n_k n_l)``

   where ``u_k`` is the weight of cell ``k`` and ``r_kl`` the summed
   weight of the binary "2-tables" between a cell-``k`` and a cell-``l``
   element that satisfy ``psi`` in both directions.

The recursion counts in Python ints, never in Fractions.
Symmetric weights are homogeneous: every ground atom of a predicate ``P``
contributes exactly one of ``w_P`` and ``wbar_P`` to a world's weight.
With ``d_P`` the common denominator of that pair, the integer pair
``(d_P w_P, d_P wbar_P)`` scales every world by the same factor, so

``WFOMC(psi, n, w, wbar) = WFOMC(psi, n, d w, d wbar)
/ (prod_{unary P} d_P**n * prod_{binary P} d_P**(n*n))``

(a binary predicate has ``n`` reflexive atoms in the cells and
``n*(n-1)`` in the 2-tables).  So ``u_k`` and ``r_kl`` are ints, the sum
above is an int, and one ``Fraction`` is built per zero-ary assignment
at the end.  The sum is taken cell by cell, ``n_k`` running upward with
``u_k**n_k``, ``r_kk**C(n_k, 2)`` and ``r_kl**n_k`` each advanced by one
multiplication per step, on an explicit stack, so sentences with many
cells do not exhaust the Python stack.  Zero-ary and unconstrained
predicates are weighted outside the recursion.

Equality atoms are supported natively: ``x = y`` is false for the two
distinct elements of a 2-table and true on the diagonal.

The number of terms is ``C(n + K - 1, K - 1)`` for ``K`` valid cells —
polynomial in ``n`` for a fixed sentence, which is the PTIME
data-complexity result this module reproduces.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from operator import mul

from ..errors import NotFO2Error
from ..logic.scott import scott_normalize, skolemize_scott
from ..logic.syntax import (
    Var,
    free_variables,
    num_variables,
    substitute,
    conj,
)
from ..logic.vocabulary import WeightedVocabulary
from ..grounding.lineage import _ground  # grounding of a quantifier-free matrix
from ..options import SolverOptions
from ..propositional.formula import peval, prop_vars
from ..utils import LRUCache, binomial, check_domain_size, weights_signature

__all__ = [
    "wfomc_fo2",
    "FO2CellStructure",
    "FO2CellDecomposition",
    "fo2_cache_stats",
    "clear_fo2_caches",
]

#: Weight-*independent* cell structures keyed on the *skolemized matrix*:
#: the matrix grounding, the valid-cell enumeration, and the satisfying
#: 2-table patterns — the exponential part of the construction — are a
#: pure function of the matrix, so weight sweeps over one sentence share
#: a single structure.  (The matrix, not the formula, is the key because
#: the fresh Scott/Skolem symbol names depend on the caller's vocabulary:
#: a vocabulary that already uses a Skolem-like name shifts the fresh
#: names, and a structure cached under the formula alone would mix them
#: up across vocabularies.)
_STRUCTURE_CACHE = LRUCache(maxsize=128)

#: Weighted cell decompositions keyed on ``(formula, weights)``.  A
#: decomposition layers cell weights, 2-table weights, and the memoized
#: distribution recursion on top of a shared structure; every domain size
#: (``wfomc_batch``) and repeated call reuses the same instance.
_DECOMPOSITION_CACHE = LRUCache(maxsize=128)

#: Bound on memoized recursion entries per decomposition instance; the
#: table is cleared wholesale when it fills.
_MAX_RECURSE_MEMO = 1 << 16


def fo2_cache_stats():
    """Hit/miss statistics for both FO2 cache layers."""
    return {
        "structures": _STRUCTURE_CACHE.stats(),
        "decompositions": _DECOMPOSITION_CACHE.stats(),
    }


def clear_fo2_caches():
    """Drop all cached FO2 cell structures and decompositions."""
    _STRUCTURE_CACHE.clear()
    _DECOMPOSITION_CACHE.clear()

_X = Var("fo2_x")
_Y = Var("fo2_y")


def _combine_universal(sentences):
    """Merge universal sentences into one matrix over canonical vars x, y."""
    parts = []
    for sent in sentences:
        if len(sent.vars) > 2:
            raise NotFO2Error(
                "sentence has a {}-variable prefix; not FO2".format(len(sent.vars))
            )
        mapping = {}
        if len(sent.vars) >= 1:
            mapping[sent.vars[0]] = _X
        if len(sent.vars) == 2:
            mapping[sent.vars[1]] = _Y
        parts.append(substitute(sent.matrix, mapping))
    return conj(*parts)


class FO2CellStructure:
    """The weight-independent half of a cell decomposition.

    Holds everything that depends only on the sentence: the grounded
    matrix, the predicate classification, the valid cells per zero-ary
    assignment, and — the exponential part of the construction — the
    satisfying 2-table bit patterns of every cell pair.  One structure is
    shared by every :class:`FO2CellDecomposition` built over it, so a
    weight sweep enumerates cells and 2-tables exactly once.
    """

    def __init__(self, matrix, vocabulary):
        free = free_variables(matrix)
        if not free <= {_X, _Y}:
            raise NotFO2Error("matrix has unexpected free variables: {}".format(free))

        #: Stable cross-process identity of this structure (formula reprs
        #: are deterministic), used as the persistent-store key prefix.
        self.matrix_key = repr(matrix)
        #: Optional :class:`repro.cache.PersistentStore` consulted by
        #: :meth:`tables` (attached by :func:`wfomc_fo2` under
        #: ``persist=True``).
        self.store = None

        # Ground the matrix at the three element patterns we need.
        # Elements 1 and 2 stand for "an element of cell k / cell l".
        self.diag_prop = _ground(matrix, 2, {_X: 1, _Y: 1})
        self.pair_prop_xy = _ground(matrix, 2, {_X: 1, _Y: 2})
        self.pair_prop_yx = _ground(matrix, 2, {_X: 2, _Y: 1})

        # Only predicates that actually occur in the matrix participate in
        # the decomposition; unconstrained predicates are handled by the
        # caller with a (w + wbar)**|tuples| factor.
        self.matrix_preds = {
            name
            for name, _args in (
                prop_vars(self.diag_prop)
                | prop_vars(self.pair_prop_xy)
                | prop_vars(self.pair_prop_yx)
            )
        }
        self.zero_preds = []
        self.unary_preds = []
        self.binary_preds = []
        for pred in vocabulary:
            if pred.name not in self.matrix_preds:
                continue
            if pred.arity == 0:
                self.zero_preds.append(pred.name)
            elif pred.arity == 1:
                self.unary_preds.append(pred.name)
            elif pred.arity == 2:
                self.binary_preds.append(pred.name)
            else:
                raise NotFO2Error(
                    "predicate {} has arity {} > 2; the FO2 lifted solver "
                    "requires arity at most 2".format(pred.name, pred.arity)
                )

        # Type slots: unary atoms and reflexive binary atoms of one element.
        self.type_slots = [(u, "unary") for u in self.unary_preds] + [
            (b, "refl") for b in self.binary_preds
        ]

        # Off-diagonal binary atoms between elements 1 and 2: the 2-table
        # variables of a cell pair.
        self.off_diag_labels = []
        for b in self.binary_preds:
            self.off_diag_labels.append((b, (1, 2)))
            self.off_diag_labels.append((b, (2, 1)))

        #: zero_key -> (cells, satisfying 2-table patterns per cell pair);
        #: filled lazily and shared by every weighted decomposition.
        self._zero_tables = {}

    def _type_assignment(self, cell_bits, element):
        """Ground-atom assignment for one element's 1-type."""
        assignment = {}
        for (name, kind), bit in zip(self.type_slots, cell_bits):
            if kind == "unary":
                assignment[(name, (element,))] = bit
            else:
                assignment[(name, (element, element))] = bit
        return assignment

    def tables(self, zero_key, zero_assignment, budget=None):
        """``(cells, satisfying)`` for one zero-ary assignment.

        ``cells`` lists the valid 1-types (bit tuples over
        ``type_slots``); ``satisfying[k][l]`` lists the 2-table bit
        tuples (over ``off_diag_labels``) that satisfy the matrix in both
        directions between a cell-``k`` and a cell-``l`` element.  This
        is the exponential enumeration, done once per sentence and reused
        by every weight function and domain size — and, when a persistent
        store is attached, once per sentence *ever*: the enumeration is
        read through the ``fo2_tables`` namespace keyed on the skolemized
        matrix and the zero-ary assignment, so a second process skips it.
        """
        cached = self._zero_tables.get(zero_key)
        if cached is not None:
            return cached
        store = self.store
        if store is not None:
            persisted = store.get("fo2_tables", (self.matrix_key, zero_key))
            if persisted is not None:
                tables = (persisted[0], persisted[1])
                self._zero_tables[zero_key] = tables
                return tables
        base = {(name, ()): bit for name, bit in zero_assignment.items()}

        # Valid cells: 1-types whose element satisfies psi(x, x).
        cells = []
        for bits in itertools.product((False, True), repeat=len(self.type_slots)):
            if budget is not None:
                budget.tick()
            assignment = dict(base)
            assignment.update(self._type_assignment(bits, 1))
            if peval(self.diag_prop, assignment):
                cells.append(bits)

        k_cells = len(cells)
        off_diag_labels = self.off_diag_labels
        satisfying = [[None] * k_cells for _ in range(k_cells)]
        for k in range(k_cells):
            for l in range(k_cells):
                assignment = dict(base)
                assignment.update(self._type_assignment(cells[k], 1))
                assignment.update(self._type_assignment(cells[l], 2))
                good = []
                for bits in itertools.product((False, True), repeat=len(off_diag_labels)):
                    if budget is not None:
                        budget.tick()
                    for label, bit in zip(off_diag_labels, bits):
                        assignment[label] = bit
                    if peval(self.pair_prop_xy, assignment) and peval(
                        self.pair_prop_yx, assignment
                    ):
                        good.append(bits)
                satisfying[k][l] = good

        tables = (cells, satisfying)
        self._zero_tables[zero_key] = tables
        if store is not None:
            store.put("fo2_tables", (self.matrix_key, zero_key), tables)
        return tables


class FO2CellDecomposition:
    """The cell decomposition of a universal FO2 matrix.

    Layers one weight function over a (possibly shared)
    :class:`FO2CellStructure`: cell weights ``u_k``, 2-table pair weights
    ``r_kl``, and the memoized distribution recursion.  Exposes the
    pieces so tests and benchmarks can inspect them; :func:`wfomc_fo2` is
    the user-facing wrapper.  ``structure`` may be a prebuilt
    :class:`FO2CellStructure` or a matrix formula (one is built).
    """

    def __init__(self, structure, weighted_vocabulary):
        if not isinstance(structure, FO2CellStructure):
            structure = FO2CellStructure(
                structure, weighted_vocabulary.vocabulary
            )
        self.structure = structure
        self.wv = weighted_vocabulary

        # Per-zero-assignment cell/pair-weight tables and the memo table of
        # the distribution recursion; both survive across calls (and across
        # domain sizes) for the lifetime of the decomposition instance.
        self._tables = {}
        self._recurse_memo = {}

    # The structural pieces read like attributes of the decomposition.

    @property
    def matrix_preds(self):
        return self.structure.matrix_preds

    @property
    def zero_preds(self):
        return self.structure.zero_preds

    @property
    def unary_preds(self):
        return self.structure.unary_preds

    @property
    def binary_preds(self):
        return self.structure.binary_preds

    @property
    def type_slots(self):
        return self.structure.type_slots

    def _scaled_weights(self, names):
        """Integer weights for one atom of each predicate in ``names``.

        Each pair ``(w, wbar)`` is multiplied by its common denominator
        ``d_P``.  Returns ``(scale, pairs)``: ``pairs[i]`` is the int pair
        ``(w * d_P, wbar * d_P)`` of ``names[i]`` and ``scale`` is the
        product of the ``d_P``, so a weight that picks one of ``w, wbar``
        per name is ``scale`` times its Fraction value.
        """
        scale = 1
        pairs = []
        for name in names:
            pair = self.wv.weight(name)
            d = lcm(pair.w.denominator, pair.wbar.denominator)
            scale *= d
            pairs.append((pair.w.numerator * (d // pair.w.denominator),
                          pair.wbar.numerator * (d // pair.wbar.denominator)))
        return scale, pairs

    def _type_weight(self, cell_bits):
        """The (Fraction) weight ``u_k`` of one 1-type."""
        scale, pairs = self._scaled_weights(
            name for name, _kind in self.structure.type_slots)
        return Fraction(_bits_weight(pairs, cell_bits), scale)

    def _cell_tables(self, zero_key, zero_assignment, budget=None):
        """Cells and the scaled int weights for one assignment of the
        zero-ary atoms: ``(cells, u, r, cell_scale, pair_scale)``.

        ``u[k]`` is ``cell_scale`` times the weight of cell ``k`` and
        ``r[k][l]`` is ``pair_scale`` times the summed weight of the
        satisfying 2-tables between a cell-``k`` and a cell-``l``
        element.  The expensive enumeration lives in the shared
        structure; this layer only sums weights over the stored
        satisfying patterns, so it is polynomial in their number."""
        cached = self._tables.get(zero_key)
        if cached is not None:
            return cached
        structure = self.structure
        cells, satisfying = structure.tables(zero_key, zero_assignment,
                                             budget=budget)

        cell_scale, cell_pairs = self._scaled_weights(
            name for name, _kind in structure.type_slots)
        cell_weights = [_bits_weight(cell_pairs, bits) for bits in cells]

        pair_scale, label_pairs = self._scaled_weights(
            name for name, _args in structure.off_diag_labels)
        r = [[sum(_bits_weight(label_pairs, bits) for bits in row_kl)
              for row_kl in row_k] for row_k in satisfying]

        tables = (cells, cell_weights, r, cell_scale, pair_scale)
        self._tables[zero_key] = tables
        return tables

    def run(self, n, zero_assignment, budget=None):
        """The weighted count for one assignment of the zero-ary atoms."""
        check_domain_size(n)
        zero_key = tuple(sorted(zero_assignment.items()))
        cells, cell_weights, r, cell_scale, pair_scale = self._cell_tables(
            zero_key, zero_assignment, budget=budget)
        if not cells:
            return Fraction(0) if n > 0 else Fraction(1)
        total = self._distribute(zero_key, n, cell_weights, r, budget)
        # Every element owns one cell atom per type slot and every
        # unordered pair one atom per 2-table label.
        return Fraction(total, cell_scale ** n * pair_scale ** binomial(n, 2))

    def _distribute(self, zero_key, n, cell_weights, r, budget):
        """The int sum over all ways to distribute ``n`` elements among
        the cells.

        ``suffix(k, remaining, pending)`` is the summed weight of
        distributing ``remaining`` elements among cells ``k..K-1``, where
        ``pending[l - k]`` carries the cross-cell factor
        ``prod_{j<k} r[j][l]**n_j`` accumulated from earlier cells.  It
        depends only on its arguments, so it is memoized — distinct
        prefixes routinely converge on the same ``pending`` (whenever the
        ``r`` values collapse to 0/1, as in unweighted counting), and the
        memo also persists across calls and domain sizes.

        Each unfinished ``suffix`` is a generator on an explicit stack
        that yields the arguments of the child it needs and is sent the
        child's value, so the Python stack stays flat however many cells
        there are.
        """
        memo = self._recurse_memo
        last = len(cell_weights) - 1

        def suffix(k, remaining, pending):
            # The cell-k factors of n_k = nk, kept as running powers:
            # coeff = C(remaining, nk), power = (u_k * pending[0])**nk,
            # tri = r_kk**C(nk, 2), step = r_kk**nk, and
            # cross[l] = pending[l] * r_kl**nk for the later cells l.
            rk = r[k]
            r_kk = rk[k]
            base = cell_weights[k] * pending[0]
            cross_r = rk[k + 1:]
            cross = pending[1:]
            coeff = power = tri = step = 1
            value = 0
            for nk in range(remaining + 1):
                if nk:
                    coeff = coeff * (remaining - nk + 1) // nk
                    power *= base
                    tri *= step
                    step *= r_kk
                    cross = tuple(map(mul, cross, cross_r))
                term = coeff * power * tri
                if not term:
                    # power and tri stay zero for every larger nk.
                    break
                value += term * (yield k + 1, remaining - nk, cross)
            return value

        def visit(k, remaining, pending):
            """``(key, value)`` of a suffix; ``value`` is None when it
            still has to be computed."""
            if budget is not None:
                budget.tick()
            if not remaining:
                return None, 1
            key = (zero_key, k, remaining, pending)
            value = memo.get(key)
            if value is None and k == last:
                value = ((cell_weights[k] * pending[0]) ** remaining
                         * r[k][k] ** binomial(remaining, 2))
                store(key, value)
            return key, value

        def store(key, value):
            if len(memo) >= _MAX_RECURSE_MEMO:
                memo.clear()
            memo[key] = value

        root = (0, n, (1,) * (last + 1))
        key, value = visit(*root)
        if value is not None:
            return value
        stack = [(key, suffix(*root))]
        while True:
            key, frame = stack[-1]
            try:
                child = frame.send(value)
            except StopIteration as done:
                value = done.value
                store(key, value)
                stack.pop()
                if not stack:
                    return value
                continue
            child_key, value = visit(*child)
            if value is None:
                stack.append((child_key, suffix(*child)))


def _bits_weight(pairs, bits):
    """The product picking ``w`` or ``wbar`` of each pair per bit."""
    weight = 1
    for (w, wbar), bit in zip(pairs, bits):
        weight *= w if bit else wbar
    return weight


def wfomc_fo2(formula, n, weighted_vocabulary=None, options=None):
    """Symmetric WFOMC of an FO2 sentence in time polynomial in ``n``.

    ``formula`` may use nested quantifiers, equality, and any Boolean
    connectives, but at most two distinct variables and predicates of
    arity at most two.  Raises :class:`~repro.errors.NotFO2Error`
    otherwise.  Of the :class:`~repro.options.SolverOptions` knobs,
    ``persist``/``cache_dir`` read the exponential cell and 2-table
    enumeration through the on-disk store of :mod:`repro.cache`, and
    ``budget`` (a :class:`~repro.resilience.limits.Budget`) bounds the
    cell/2-table enumeration and the distribution recursion; aborting
    leaves every memo table consistent (only completed values are ever
    stored), so a retried call warm-starts.
    """
    opts = SolverOptions.resolve(options)
    check_domain_size(n)
    wv = weighted_vocabulary or WeightedVocabulary.counting(formula)

    if n == 0:
        # Scott/Skolem prenexing assumes a nonempty domain (pulling a
        # quantifier over a disjunct is unsound over the empty domain), so
        # evaluate the trivial n = 0 instance directly: the lineage over an
        # empty domain mentions no ground atoms at all.
        from .bruteforce import wfomc_lineage

        return wfomc_lineage(formula, 0, wv, options=opts)

    if num_variables(formula) > 2:
        raise NotFO2Error(
            "sentence uses {} distinct variables; FO2 allows at most 2".format(
                num_variables(formula)
            )
        )
    for pred in wv.vocabulary:
        if pred.arity > 2:
            raise NotFO2Error(
                "predicate {} has arity {}; the FO2 solver requires arity "
                "at most 2".format(pred.name, pred.arity)
            )

    cache_key = (formula, weights_signature(wv))
    cached = _DECOMPOSITION_CACHE.get(cache_key)
    if cached is None:
        # Scott/Skolem are cheap syntactic transforms (re-run per weight
        # function because the fresh symbols carry weights); the expensive
        # cell/2-table enumeration lives in the weight-independent
        # structure, keyed on the resulting matrix.
        sentences, wv1 = scott_normalize(formula, wv)
        universal, wv2 = skolemize_scott(sentences, wv1)
        matrix = _combine_universal(universal)
        structure = _STRUCTURE_CACHE.get(matrix)
        if structure is None:
            structure = FO2CellStructure(matrix, wv2.vocabulary)
            _STRUCTURE_CACHE.put(matrix, structure)
        decomposition = FO2CellDecomposition(structure, wv2)
        _DECOMPOSITION_CACHE.put(cache_key, (decomposition, wv2))
    else:
        decomposition, wv2 = cached
    if opts.persist:
        from ..cache import open_store

        store = open_store(opts.cache_dir)
        decomposition.structure.store = store if not store.disabled else None
    else:
        # Persistence is per-call opt-in, but structures live in the
        # module cache: a store attached by an earlier persisted call
        # must not leak into this one.
        decomposition.structure.store = None

    # Shannon expansion over zero-ary predicates (Appendix C).
    zero_preds = decomposition.zero_preds
    total = Fraction(0)
    for bits in itertools.product((False, True), repeat=len(zero_preds)):
        zero_assignment = dict(zip(zero_preds, bits))
        weight = Fraction(1)
        for name, bit in zip(zero_preds, bits):
            pair = wv2.weight(name)
            weight *= pair.w if bit else pair.wbar
        if weight == 0:
            continue
        total += weight * decomposition.run(n, zero_assignment,
                                            budget=opts.budget)

    # Predicates never mentioned by the matrix are unconstrained: every
    # ground atom contributes its full mass w + wbar.
    for pred, pair in wv2.items():
        if pred.name not in decomposition.matrix_preds:
            total *= pair.total ** (n ** pred.arity)
    return total
