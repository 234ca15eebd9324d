"""Compiling CNFs, propositional formulas, and lineages into circuits.

Compilation is counting in another value domain: :func:`compile_cnf`
runs the counting engine's own search (:class:`~repro.propositional.
counter.CountingEngine`) with :class:`CircuitValue` weights, whose
``*`` and ``+`` build circuit nodes instead of multiplying numbers.
Every product and sum the search would compute becomes a node, so the
result is a :class:`~repro.compile.circuit.Circuit` whose evaluation
at any weight assignment is bit-identical to direct counting at those
weights — including negative and zero weights, because a circuit value
is zero only when it is *structurally* zero (an unsatisfiable
component), never because of a particular weight.  The search knobs of
:class:`~repro.options.SolverOptions` (clause learning, branching,
phase saving, restarts, the learned-clause bound) steer compilation
exactly as they steer counting; compilation itself is serial and
never touches the on-disk component store.

Leaf handling mirrors the counting wrappers exactly:

* labeled CNF variables become leaves keyed by their *label* (for
  lineages, the ground-atom pair ``(pred, args)``);
* auxiliary Tseitin variables carry the fixed weight ``(1, 1)``, so
  their leaves are baked into constants at compile time (they vanish
  from products and contribute a constant ``2`` where they are
  unconstrained, exactly the mass direct counting assigns them);
* labeled variables that occur in no clause contribute their full
  ``w + wbar`` mass as total leaves.

``SolverOptions(persist=True)`` stores serialized circuits in the
``circuits`` namespace of the on-disk cache (:mod:`repro.cache`),
content-addressed on the weight-independent canonical key of the input
(clauses plus labels, or ``(formula, n)`` for lineages) and the store's
engine tag, so a second process re-serving a sweep skips compilation
entirely.
"""

from __future__ import annotations

from ..grounding.lineage import lineage
from ..grounding.structures import ground_tuples
from ..logic.syntax import predicates_of
from ..logic.vocabulary import Predicate, Vocabulary
from ..cache.adapters import CIRCUITS_NS
from ..obs import span
from ..options import SolverOptions
from ..propositional.counter import CountingEngine, cnf_for_formula
from ..utils import vocabulary_signature
from .circuit import _TIMES, Circuit, CircuitBuilder

__all__ = ["CIRCUITS_NS", "CircuitValue", "compile_cnf", "compile_formula",
           "compile_lineage"]


class CircuitValue:
    """A circuit node standing in for a number in the counting search.

    The search only multiplies, adds and compares with zero.  Here
    ``*`` and ``+`` emit ``times``/``plus`` nodes into one shared
    :class:`~repro.compile.circuit.CircuitBuilder`, and ``== 0`` is the
    builder's structural :meth:`~repro.compile.circuit.CircuitBuilder.
    is_zero`.  ``*`` splices the children of a product operand into one
    flat ``times`` node, so the search's running products (``factor *=
    w`` once per literal) end as one node per branch, not a chain of
    binary products; the intermediate prefixes stay unreachable and
    :meth:`~repro.compile.circuit.CircuitBuilder.build` prunes them.
    Plain ints — the search's neutral ``0`` and ``1`` — mix in as
    constants.  Values hash and compare by node id, so they can sit in
    the engine's cache keys.
    """

    __slots__ = ("builder", "node")

    def __init__(self, builder, node):
        self.builder = builder
        self.node = node

    def __mul__(self, other):
        builder = self.builder
        if isinstance(other, CircuitValue):
            other = other.node
        elif other == 1:
            return self
        else:
            other = builder.const(other)
        nodes = builder.nodes
        kids = []
        for node in (self.node, other):
            row = nodes[node]
            if row[0] == _TIMES:
                kids.extend(row[1])
            else:
                kids.append(node)
        return CircuitValue(builder, builder.times(kids))

    __rmul__ = __mul__

    def __add__(self, other):
        builder = self.builder
        if isinstance(other, CircuitValue):
            other = other.node
        elif other == 0:
            return self
        else:
            other = builder.const(other)
        return CircuitValue(builder, builder.plus([self.node, other]))

    __radd__ = __add__

    def __eq__(self, other):
        if isinstance(other, CircuitValue):
            return self.node == other.node
        if other == 0:
            return self.builder.is_zero(self.node)
        return NotImplemented

    def __hash__(self):
        return self.node


def _store_for(opts):
    """The usable on-disk store ``opts`` asks for, or ``None``."""
    if not opts.persist:
        return None
    from ..cache import open_store

    store = open_store(opts.cache_dir)
    return None if store.disabled else store


def _load_circuit(store, store_key):
    if store is None or store_key is None:
        return None
    payload = store.get(CIRCUITS_NS, store_key)
    if payload is None:
        return None
    return Circuit.from_payload(payload)


def _save_circuit(store, store_key, circuit):
    if store is not None and store_key is not None:
        store.put(CIRCUITS_NS, store_key, circuit.to_payload())


def compile_cnf(cnf, options=None, store_key=None):
    """Compile a :class:`~repro.propositional.cnf.CNF` into a circuit.

    The circuit's leaves are the CNF's variable *labels*;
    ``Circuit.evaluate({label: (w, wbar), ...})`` is bit-identical to
    :func:`~repro.propositional.counter.wmc_cnf` with the same weights.
    The circuit is what the counting search computes with
    :class:`CircuitValue` weights: the search knobs of ``options``
    (``learn``, ``branching``, ``max_learned``, ``phase_saving``,
    ``restarts``) steer it, and ``budget`` bounds it.  The search runs
    serially (``workers`` is ignored) over a value cache private to this
    compile, sharing only the weight-independent canonical-key cache;
    it never reads or writes the on-disk component store.  With
    ``persist`` the finished circuit is stored in the ``circuits``
    namespace.  ``store_key`` overrides the persistence key (callers
    with a cheaper canonical identity, like :func:`compile_lineage`,
    pass their own).
    """
    opts = SolverOptions.resolve(options)
    store = _store_for(opts)
    if store is not None and store_key is None:
        store_key = ("cnf", tuple(cnf.clauses),
                     tuple(sorted(cnf.labels.items(),
                                  key=lambda item: item[0])),
                     cnf.num_vars)
    cached = _load_circuit(store, store_key)
    if cached is not None:
        return cached

    builder = CircuitBuilder()
    if cnf.contradictory:
        root = builder.const(0)
    else:
        weights = {}
        totals = {}
        for v in range(1, cnf.num_vars + 1):
            weights[v] = (CircuitValue(builder, builder.lit(v, True)),
                          CircuitValue(builder, builder.lit(v, False)))
            totals[v] = CircuitValue(builder, builder.tot(v))
        engine = CountingEngine(weights, totals, cache={},
                                options=opts.replace(workers=None))
        clauses = tuple(cnf.clauses)
        # ``to_cnf`` guarantees duplicate-free, non-empty clauses.
        with span("compile_cnf", cat="engine", vars=cnf.num_vars,
                  clauses=len(clauses)):
            value = engine.count(clauses, trusted=True)
        root = (value.node if isinstance(value, CircuitValue)
                else builder.const(value))
        used = set()
        for c in clauses:
            for lit in c:
                used.add(lit if lit > 0 else -lit)
        unused = [builder.tot(v) for v in sorted(cnf.original_vars())
                  if v not in used]
        if unused:
            root = builder.times([root] + unused)
    traced = builder.build(root)

    labels = cnf.labels

    def relabel(var):
        label = labels.get(var)
        if label is None:
            return ("bake", (1, 1))  # auxiliary Tseitin variable
        return ("key", label)

    circuit = traced.map_leaves(relabel)
    _save_circuit(store, store_key, circuit)
    return circuit


def compile_formula(formula, universe=(), options=None, store_key=None):
    """Compile an arbitrary propositional formula into a circuit.

    The twin of :func:`~repro.propositional.counter.wmc_formula`: the
    conversion to CNF is shared with the counting path (one memoized
    ``to_cnf`` per ``(formula, universe)``), labels absent from the
    formula but listed in ``universe`` contribute total leaves.
    """
    cnf = cnf_for_formula(formula, universe)
    return compile_cnf(cnf, options=options, store_key=store_key)


def compile_lineage(formula, n, vocabulary=None, options=None):
    """Compile the lineage of an FO sentence over domain ``[n]``.

    Returns a circuit over ground-atom leaves ``(pred, args)`` whose
    evaluation at the induced atom weights equals
    :func:`~repro.wfomc.bruteforce.wfomc_lineage` at the corresponding
    weighted vocabulary — for *every* weighted vocabulary over the same
    predicates, which is the whole point: one compile serves any number
    of weight vectors.  ``vocabulary`` defaults to the predicates of the
    formula; pass the full vocabulary when atoms outside the formula
    should contribute their unconstrained mass.
    """
    if vocabulary is None:
        arities = predicates_of(formula)
        vocabulary = Vocabulary(Predicate(name, arity)
                                for name, arity in sorted(arities.items()))
    prop = lineage(formula, n)
    universe = tuple(ground_tuples(vocabulary, n))
    store_key = ("lineage", formula, n,
                 vocabulary_signature(vocabulary, ordered=True))
    return compile_formula(prop, universe, options=options,
                           store_key=store_key)
