"""Inputs and independent oracles for the four benchmark workloads.

Every input is generated here from the run's seed; the program under
test only ever sees the generated sentences, domain sizes and weights.
Every oracle avoids the route it checks:

* Theta_1 counts come from simulating the Turing machine
  (``Theta1Encoding.expected_fomc``), not from grounding;
* transitive digraphs come from OEIS A006905;
* FO2 sentences come from the paper's closed forms;
* compiled and served answers come from the direct, uncompiled solver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from repro import parse
from repro.complexity.encoding import encode_theta1
from repro.complexity.turing import LEFT, RIGHT, CountingTM, Transition
from repro.logic import Vocabulary, WeightedVocabulary
from repro.wfomc.closed_forms import table1_wfomc, wfomc_forall_exists

TABLE1 = "forall x, y. (R(x) | S(x, y) | T(y))"
FORALL_EXISTS = "forall x. exists y. R(x, y)"
EXISTS_FORALL = "exists x. forall y. R(x, y)"
TRANSITIVE = "forall x, y, z. (R(x, y) & R(y, z) -> R(x, z))"

#: Labelled transitive relations on n points (OEIS A006905).
A006905 = {1: 2, 2: 13, 3: 171, 4: 3994}


def branching_machine():
    """One state; on reading 1 it may keep it or erase it."""
    return CountingTM(
        states=["q0"], initial="q0", accepting=["q0"], num_tapes=1,
        active_tape={"q0": 0},
        delta={
            ("q0", 1): [Transition("q0", 1, RIGHT),
                        Transition("q0", 0, RIGHT)],
            ("q0", 0): [Transition("q0", 0, RIGHT)],
        },
    )


def two_state_machine():
    """Alternates states; rejects if it ever reads a 0 in state q1."""
    return CountingTM(
        states=["q0", "q1"], initial="q0", accepting=["q1"], num_tapes=1,
        active_tape={"q0": 0, "q1": 0},
        delta={
            ("q0", 1): [Transition("q1", 1, RIGHT)],
            ("q0", 0): [Transition("q0", 0, RIGHT)],
            ("q1", 1): [Transition("q0", 0, RIGHT),
                        Transition("q1", 1, LEFT)],
            ("q1", 0): [Transition("q1", 0, RIGHT)],
        },
    )


def theta1_text(machine):
    """Theta_1 for ``machine`` (one clock epoch) in parser syntax."""
    return repr(encode_theta1(machine, epochs=1).sentence)


def theta1_oracle(machine, n):
    """``n! * #accepting runs``, by simulating the machine."""
    return encode_theta1(machine, epochs=1).expected_fomc(n)


def exists_forall_wfomc(n, w, wbar):
    """``WFOMC(exists x forall y R(x, y), n)``: all worlds minus those in
    which every row of ``R`` misses at least one column."""
    total = w + wbar
    return total ** (n * n) - (total ** n - w ** n) ** n


@dataclass
class Instance:
    """One counting call: sentence text, domain size, weights, answer.

    ``cls`` is ``"low"`` or ``"high"``: the light and the heavy instance
    class of a library workload, timed separately within each op.
    """

    label: str
    text: str
    n: int
    weights: dict
    expected: Fraction
    cls: str

    def weighted_vocabulary(self, formula):
        if not self.weights:
            return WeightedVocabulary.counting(formula)
        return weighted(formula, self.weights)


def int_weight(rng, bits):
    """A positive integer of exactly ``bits`` bits, so that every seed
    gives numbers of one size and the same bignum cost."""
    return rng.randrange(1 << (bits - 1), 1 << bits)


def frac_weight(rng, bits):
    return Fraction(int_weight(rng, bits), int_weight(rng, bits))


def grounded_instances(rng, tiny=False):
    """FO3 sentences that route to lineage grounding and the engine."""
    n_theta, n_trans = (2, 3) if tiny else (3, 4)
    out = [
        Instance("theta1-branching", theta1_text(branching_machine()),
                 n_theta, {}, Fraction(theta1_oracle(branching_machine(),
                                                     n_theta)), "high"),
        Instance("theta1-two-state", theta1_text(two_state_machine()),
                 n_theta, {}, Fraction(theta1_oracle(two_state_machine(),
                                                     n_theta)), "high"),
        Instance("transitive", TRANSITIVE, n_trans, {},
                 Fraction(A006905[n_trans]), "low"),
    ]
    rng.shuffle(out)
    return out


def fo2_instances(rng, tiny=False):
    """FO2 sentences at large ``n``: lifted, never grounded."""
    n_table, n_fe, n_ef = (4, 6, 4) if tiny else (22, 36, 16)
    r, s, t = [(int_weight(rng, 7), int_weight(rng, 7)) for _ in range(3)]
    fe = (int_weight(rng, 7), int_weight(rng, 7))
    ef = (int_weight(rng, 7), int_weight(rng, 7))
    out = [
        Instance("table1", TABLE1, n_table, {"R": r, "S": s, "T": t},
                 table1_wfomc(n_table, r, s, t), "high"),
        Instance("forall-exists", FORALL_EXISTS, n_fe, {"R": fe},
                 Fraction(wfomc_forall_exists(n_fe, fe)), "low"),
        Instance("exists-forall", EXISTS_FORALL, n_ef, {"R": ef},
                 Fraction(exists_forall_wfomc(n_ef, *ef)), "low"),
    ]
    rng.shuffle(out)
    return out


@dataclass
class SweepShape:
    """One compiled circuit and the k weight vectors swept over it."""

    label: str
    text: str
    n: int
    weight_sets: list
    cls: str


def sweep_shapes(rng, tiny=False):
    """The two circuit shapes of ``compiled_sweep``.

    The Theta_1 lineage circuit gets small integer weights, so its cost
    is interpreter overhead; the Table 1 FO2 circuit gets fractions of
    fixed bit length, so its cost is bignum arithmetic.
    """
    theta = theta1_text(branching_machine())
    names = [p.name for p in Vocabulary.of_formula(parse(theta))]
    k_theta, k_fo2, n_fo2 = (4, 4, 3) if tiny else (96, 24, 6)
    theta_sets = [{name: (rng.randrange(2, 10), rng.randrange(2, 10))
                   for name in names} for _ in range(k_theta)]
    fo2_sets = [{name: (frac_weight(rng, 7), frac_weight(rng, 7))
                 for name in ("R", "S", "T")} for _ in range(k_fo2)]
    return [
        SweepShape("theta1-lineage", theta, 2 if tiny else 3, theta_sets,
                   "low"),
        SweepShape("table1-fo2", TABLE1, n_fo2, fo2_sets, "high"),
    ]


def weighted(formula, weights):
    return WeightedVocabulary(Vocabulary.of_formula(formula), weights)


def seeded_rng(seed, stream):
    """An independent generator per input stream of one run."""
    return random.Random("{}:{}".format(seed, stream))
