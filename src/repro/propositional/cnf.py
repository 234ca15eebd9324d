"""CNF conversion with exact model-count preservation.

There is one path, a single pass over the top-level conjuncts:

* **Flatten.**  The formula is read as a conjunction, seeing through
  nested ``PAnd``, negated ``POr`` and double negation (De Morgan on the
  fly, building no formula nodes).  A conjunct that is a clause up to De
  Morgan -- its disjuncts, read through nested ``POr`` and negated
  ``PAnd``, are all literals -- becomes that clause with no auxiliary
  variable.  Lineages of universal sentences are mostly such clauses:
  ``A & B -> C`` grounds to ``!(A & B) | C``, the clause ``!A | !B | C``.
* **Define what is left.**  In any other conjunct the disjuncts are
  taken as written, and each one that is not a literal gets a Tseitin
  variable ``d`` with its full biconditional definition
  ``d <-> op(l_1, ..., l_k)``: the clauses ``(!d | l_i)`` and
  ``(d | !l_1 | ... | !l_k)`` for a conjunction, dually for a
  disjunction.  Sub-formulas are defined bottom-up on an explicit stack,
  so deep formulas need no recursion, and nodes with the same junction
  over the same operand literals share one definition.  (Spreading a
  negated ``PAnd`` into a clause that keeps a Tseitin variable anyway
  drops the variable of that conjunction, which the learning-free
  search and the compiler branch on: on Theta_1 it made compilation
  about 4x slower.)
* **Clause hygiene.**  Repeated literals, tautological clauses and
  duplicate clauses are dropped, none of which changes the set of
  models.  The clauses are duplicate-free and non-empty (an empty clause
  only marks a contradictory CNF), which lets
  :func:`~repro.propositional.counter.wmc_cnf` skip its own pass.

Why the count is exact: every auxiliary variable is *functionally
determined* by the original variables, because its definition is an
equivalence.  Each model of the formula therefore extends to exactly one
model of the CNF, and giving auxiliaries the weight pair ``(1, 1)``
keeps the weight of each model unchanged.  One-sided
(Plaisted-Greenbaum) definitions such as only ``(!d | l_i)`` preserve
satisfiability but not the count: ``d`` is then free wherever the
definition is true, so some models are counted twice.  They are not
used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import neg
from typing import Any, Dict, List, Tuple

from .formula import PAnd, PFalse, PNot, POr, PTrue, PVar

__all__ = ["CNF", "to_cnf"]


@dataclass
class CNF:
    """A CNF over integer variables ``1..num_vars``.

    ``clauses`` holds tuples of nonzero ints (DIMACS-style literals).
    ``labels`` maps variable index to the original label for the non-
    auxiliary variables; auxiliary (Tseitin) variables have no label and
    always carry weight ``(1, 1)``.
    """

    num_vars: int = 0
    clauses: List[Tuple[int, ...]] = field(default_factory=list)
    labels: Dict[int, Any] = field(default_factory=dict)
    index_of: Dict[Any, int] = field(default_factory=dict)
    contradictory: bool = False

    def var_for(self, label):
        """The variable index for ``label``, creating it if needed."""
        idx = self.index_of.get(label)
        if idx is None:
            self.num_vars += 1
            idx = self.num_vars
            self.index_of[label] = idx
            self.labels[idx] = label
        return idx

    def aux_var(self):
        """A fresh auxiliary (unlabeled) variable."""
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits):
        clause = tuple(lits)
        if not clause:
            self.contradictory = True
        self.clauses.append(clause)

    def original_vars(self):
        """Indices of the labeled (non-auxiliary) variables."""
        return set(self.labels)

    def num_aux(self):
        """How many auxiliary (Tseitin) variables the encoding introduced."""
        return self.num_vars - len(self.labels)


def _operands(node, positive, junction):
    """``node`` at polarity ``positive``, read as a ``junction`` of parts.

    Returns ``(sub, positive)`` pairs whose ``junction`` (``PAnd`` or
    ``POr``) is equivalent to ``node`` taken positively or negated.
    Negations flip the polarity; the junction itself is entered when
    positive and its dual when negated (De Morgan).  Formula nodes are
    only read, never built or hashed.
    """
    dual = POr if junction is PAnd else PAnd
    out = []
    stack = [(node, positive)]
    while stack:
        g, pos = stack.pop()
        if isinstance(g, PNot):
            stack.append((g.body, not pos))
        elif isinstance(g, junction if pos else dual):
            stack.extend((p, pos) for p in reversed(g.parts))
        else:
            out.append((g, pos))
    return out


def _as_written(parts):
    """``(sub, positive)`` for each part, with its negations stripped."""
    out = []
    for g in parts:
        pos = True
        while isinstance(g, PNot):
            g, pos = g.body, not pos
        out.append((g, pos))
    return out


def to_cnf(formula, extra_labels=()):
    """Convert a propositional formula to :class:`CNF`.

    ``extra_labels`` forces the given labels to be registered as variables
    even if they do not occur in the formula (callers use this so that
    "don't care" ground atoms still contribute their ``w + wbar`` factor
    to the weighted count).
    """
    cnf = CNF()
    for label in extra_labels:
        cnf.var_for(label)

    seen = set()

    def emit(lits):
        clause = tuple(dict.fromkeys(lits))
        key = frozenset(clause)
        if key in seen or not key.isdisjoint(map(neg, clause)):
            return
        seen.add(key)
        cnf.add_clause(clause)

    # Literal of each defined node, by identity: the walk never hashes a
    # formula node (hashing one re-hashes its whole subtree).  Nodes are
    # kept alive by ``formula`` for the duration of the call.
    lit_of = {}
    # Auxiliary of each (junction, operand literals) definition, so
    # equal sub-formulas share one variable.
    aux_of = {}
    # An auxiliary forced true, made on first use: the literal of a
    # constant that raw (not smart-constructed) nodes carry into a
    # definition.
    true_var = 0

    def literal(g, pos):
        nonlocal true_var
        if isinstance(g, PVar):
            lit = cnf.var_for(g.label)
        elif isinstance(g, (PAnd, POr)):
            lit = lit_of[id(g)]
        elif isinstance(g, (PTrue, PFalse)):
            if not true_var:
                true_var = cnf.aux_var()
                emit((true_var,))
            lit = true_var if isinstance(g, PTrue) else -true_var
        else:
            raise TypeError("not a propositional formula: {!r}".format(g))
        return lit if pos else -lit

    def define(root):
        """Give ``root`` and its non-literal parts Tseitin literals."""
        stack = [(root, None)]
        while stack:
            node, ops = stack[-1]
            if id(node) in lit_of:
                stack.pop()
                continue
            if ops is None:
                ops = _as_written(node.parts)
                stack[-1] = (node, ops)
                pending = [(g, None) for g, _ in ops
                           if isinstance(g, (PAnd, POr)) and id(g) not in lit_of]
                if pending:
                    stack.extend(pending)
                    continue
            stack.pop()
            junction = PAnd if isinstance(node, PAnd) else POr
            lits = tuple(dict.fromkeys(literal(g, pos) for g, pos in ops))
            key = (junction, lits)
            d = aux_of.get(key)
            if d is None:
                d = aux_of[key] = cnf.aux_var()
                # AND: d -> l_i and (all l_i) -> d; OR is the dual.
                s = 1 if junction is PAnd else -1
                for lit in lits:
                    emit((-s * d, s * lit))
                emit([s * d] + [-s * lit for lit in lits])
            lit_of[id(node)] = d

    for conjunct, pos in _operands(formula, True, PAnd):
        disjuncts = _operands(conjunct, pos, POr)
        if any(isinstance(g, (PAnd, POr)) for g, _ in disjuncts):
            # Not a clause up to De Morgan: take the disjuncts as written.
            # (A conjunct from the walk above is a positive POr, a
            # negated PAnd, or a literal.)
            disjuncts = (_as_written(conjunct.parts) if isinstance(conjunct, POr)
                         else [(conjunct, pos)])
        clause = []
        for g, gpos in disjuncts:
            if isinstance(g, (PTrue, PFalse)):
                if isinstance(g, PTrue) == gpos:
                    break  # a true disjunct satisfies the clause
                continue  # a false disjunct adds nothing
            if isinstance(g, (PAnd, POr)) and id(g) not in lit_of:
                define(g)
            clause.append(literal(g, gpos))
        else:
            emit(clause)
    return cnf
