"""Tests for the conflict-driven (CDCL) counting search.

Three layers of validation: Hypothesis property tests assert exact
agreement between the CDCL engine, the same search with learning off,
circuits compiled by that search under every knob, and brute-force
enumeration on random weighted CNFs; the larger instances are checked
against a plain Shannon-expansion counter that shares nothing with the
engine; determinism tests pin down bit-identical results for
``learn=True, workers>1``; and white-box
unit tests check 1-UIP derivation, asserting levels, and LBD on
hand-built implication graphs, plus learned-database reduction and the
engine-knob plumbing through the solver layer.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings

from repro.compile import compile_cnf
from repro.options import SolverOptions
from repro.propositional.cnf import CNF
from repro.propositional.counter import (
    CountingEngine,
    EngineStats,
    _analyze_conflict,
    engine_stats,
    wmc_cnf,
)
from repro.weights import WeightPair
from repro.wfomc.solver import wfomc

from .strategies import cnf_clause_lists, fractions


def _cnf_from_clauses(clauses, num_vars):
    cnf = CNF()
    for v in range(1, num_vars + 1):
        cnf.var_for(v)
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


def _wmc_reference(clauses, pairs):
    """WMC by enumerating all assignments of variables 1..len(pairs)."""
    total = Fraction(0)
    num_vars = len(pairs)
    for bits in itertools.product((False, True), repeat=num_vars):
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in c) for c in clauses):
            weight = Fraction(1)
            for bit, pair in zip(bits, pairs):
                weight *= pair.w if bit else pair.wbar
            total += weight
    return total


def _shannon_count(clauses, pair_of, variables):
    """WMC over ``variables`` by plain Shannon expansion.

    Branches on the lowest variable, drops satisfied clauses, and prunes
    a branch that empties a clause.  No propagation, learning or
    caching: an oracle independent of the engine it checks.
    """
    if not variables:
        return 1
    var, rest_vars = variables[0], variables[1:]
    total = 0
    for lit, weight in zip((var, -var), pair_of(var)):
        rest = []
        for c in clauses:
            if lit in c:
                continue
            c = tuple(l for l in c if l != -lit)
            if not c:
                break
            rest.append(c)
        else:
            total += weight * _shannon_count(rest, pair_of, rest_vars)
    return total


def _engine(weights_pairs, **knobs):
    weights = {v: (p.w, p.wbar) for v, p in weights_pairs.items()}
    totals = {v: p.w + p.wbar for v, p in weights_pairs.items()}
    return CountingEngine(weights, totals, cache={}, stats=EngineStats(),
                          key_cache={}, options=SolverOptions(**knobs))


def _hard_random_clauses(num_vars=24, ratio=4.2, seed=5):
    """A conflict-rich random 3-CNF (near the UNSAT threshold)."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(int(num_vars * ratio)):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return clauses


#: Every search knob set: learning off (with and without restarts), the
#: default, MOMS branching, and a tiny learned-clause database.
KNOB_SETS = ({"learn": False}, {"learn": False, "restarts": 1},
             {"learn": True}, {"learn": True, "branching": "moms"},
             {"learn": True, "max_learned": 16})


class TestCDCLAgainstEnumeration:
    @settings(max_examples=120, deadline=None)
    @given(cnf_clause_lists(), fractions(), fractions(), fractions())
    def test_cdcl_matches_enumeration_and_no_learning(self, clauses, w1, w2, w3):
        num_vars = 5
        pairs = [
            WeightPair(w1, 1),
            WeightPair(w2, 2),
            WeightPair(1, w3),
            WeightPair(w1, w3),
            WeightPair(1, 1),
        ]
        cnf = _cnf_from_clauses(clauses, num_vars)
        reference = _wmc_reference(clauses, pairs)
        for knobs in ({"learn": True}, {"learn": True, "branching": "moms"},
                      {"learn": False}):
            got = wmc_cnf(cnf, lambda v: pairs[v - 1], engine_cache={},
                          stats=EngineStats(),
                          options=SolverOptions(**knobs))
            assert got == reference

    @settings(max_examples=40, deadline=None)
    @given(cnf_clause_lists(num_vars=8, max_clauses=20), fractions())
    def test_deeper_instances_exercise_the_trail(self, clauses, w):
        # Eight variables and up to 20 clauses: multi-level trails,
        # conflicts, and backjumps actually occur here.
        pairs = [WeightPair(w, 1) if v % 3 == 0 else WeightPair(1, 1)
                 for v in range(1, 9)]
        cnf = _cnf_from_clauses(clauses, 8)
        reference = _wmc_reference(clauses, pairs)
        assert wmc_cnf(cnf, lambda v: pairs[v - 1], engine_cache={},
                       stats=EngineStats()) == reference

    def test_hard_instance_agrees_across_all_knobs(self):
        clauses = _hard_random_clauses()
        pairs = {v: WeightPair(1, 1) for v in range(1, 25)}
        results = []
        conflict_stats = None
        for knobs in KNOB_SETS:
            engine = _engine(pairs, **knobs)
            results.append(engine.run(clauses))
            if knobs == {"learn": True}:
                conflict_stats = engine.stats
            if not knobs["learn"]:
                # Learning off: a conflict only closes its branch.
                stats = engine.stats
                assert (stats.conflicts, stats.learned_clauses,
                        stats.backjumps, stats.restarts) == (0, 0, 0, 0)
        reference = _shannon_count(clauses, pairs.__getitem__, range(1, 25))
        compiled = compile_cnf(_cnf_from_clauses(clauses, 24)).evaluate(
            lambda v: (1, 1))
        assert set(results) == {reference} == {compiled}
        # The default engine actually learned on this instance.
        assert conflict_stats.conflicts > 0
        assert conflict_stats.learned_clauses > 0
        assert conflict_stats.backjumps > 0
        assert conflict_stats.backjump_levels >= conflict_stats.backjumps


class TestCompileUnderEveryKnob:
    """Compilation runs the counting search, so every knob steers it."""

    @settings(max_examples=40, deadline=None)
    @given(cnf_clause_lists(num_vars=8, max_clauses=20), fractions(),
           fractions())
    def test_circuits_match_enumeration_under_every_knob(self, clauses, w1,
                                                         w2):
        cnf = _cnf_from_clauses(clauses, 8)
        weight_sets = (
            # zero weights on both polarities of different variables
            [WeightPair(0, w1) if v % 3 == 0 else
             WeightPair(w2, 0) if v % 3 == 1 else WeightPair(1, 1)
             for v in range(1, 9)],
            # negative weights, Skolem style and fractional
            [WeightPair(1, -1) if v % 2 else WeightPair(Fraction(-1, 2), w1)
             for v in range(1, 9)],
            # fractions
            [WeightPair(w1, Fraction(v, 3)) if v % 2 else
             WeightPair(Fraction(1, v), w2) for v in range(1, 9)],
        )
        references = [_wmc_reference(clauses, pairs) for pairs in weight_sets]
        for knobs in KNOB_SETS:
            circuit = compile_cnf(cnf, options=SolverOptions(**knobs))
            assert circuit.is_smooth()
            for pairs, reference in zip(weight_sets, references):
                assert circuit.evaluate(lambda v: pairs[v - 1]) == reference

    def test_hard_instance_compiles_with_learning(self):
        clauses = _hard_random_clauses()
        rng = random.Random(23)
        pairs = {v: WeightPair(Fraction(rng.randint(-4, 5), rng.randint(1, 4)),
                               Fraction(rng.randint(-4, 5), rng.randint(1, 4)))
                 for v in range(1, 25)}
        learned = engine_stats()["learned_clauses"]
        circuit = compile_cnf(_cnf_from_clauses(clauses, 24),
                              options=SolverOptions(learn=True))
        # The compiling search learned on this conflict-rich instance.
        assert engine_stats()["learned_clauses"] > learned
        no_learn = _engine(pairs, learn=False).run(clauses)
        assert circuit.evaluate(pairs.__getitem__) == no_learn


class TestParallelLearningDeterminism:
    def _multi_component_cnf(self):
        # Conflict-prone disjoint components with fractional weights: any
        # scheduling or merge nondeterminism would change the Fraction.
        clauses = []
        rng = random.Random(17)
        for k in range(4):
            base = 8 * k
            for _ in range(22):
                vs = rng.sample(range(base + 1, base + 9), 3)
                clauses.append(tuple(v if rng.random() < 0.5 else -v
                                     for v in vs))
        cnf = _cnf_from_clauses(clauses, 32)
        pairs = {v: WeightPair(Fraction(v, 5), Fraction(2, v)) for v in range(1, 33)}
        return cnf, pairs

    def _multi_component_reference(self, cnf, pairs):
        # The four components are variable-disjoint (variables
        # 8k+1..8k+8), so the count is their product.
        reference = 1
        for k in range(4):
            block = [c for c in cnf.clauses if (abs(c[0]) - 1) // 8 == k]
            reference *= _shannon_count(block, pairs.__getitem__,
                                        range(8 * k + 1, 8 * k + 9))
        return reference

    def test_learning_with_workers_is_bit_identical(self):
        cnf, pairs = self._multi_component_cnf()
        serial = wmc_cnf(cnf, pairs.__getitem__, engine_cache={},
                         stats=EngineStats(), options=SolverOptions(learn=True))
        no_learn = wmc_cnf(cnf, pairs.__getitem__, engine_cache={},
                           stats=EngineStats(), options=SolverOptions(learn=False))
        assert serial == no_learn
        assert serial == self._multi_component_reference(cnf, pairs)
        assert serial == compile_cnf(cnf).evaluate(pairs.__getitem__)
        for _ in range(3):
            stats = EngineStats()
            parallel = wmc_cnf(cnf, pairs.__getitem__, engine_cache={},
                               stats=stats, options=SolverOptions(workers=2, learn=True))
            assert parallel == serial
            assert (parallel.numerator, parallel.denominator) == (
                serial.numerator, serial.denominator,
            )

    def test_worker_knobs_travel_with_the_payload(self):
        from repro.propositional.counter import shutdown_worker_pool

        # Fresh worker processes: their module-level caches may already
        # hold these components from a previous test's tasks.
        shutdown_worker_pool()
        cnf, pairs = self._multi_component_cnf()
        stats = EngineStats()
        value = wmc_cnf(cnf, pairs.__getitem__, engine_cache={}, stats=stats,
                        options=SolverOptions(workers=2, learn=True, max_learned=16))
        assert stats.parallel_tasks >= 2
        # Workers learned locally and reported it through the stats merge.
        assert stats.conflicts > 0
        assert value == wmc_cnf(cnf, pairs.__getitem__, engine_cache={},
                                stats=EngineStats())


class TestOneUIPAnalysis:
    """1-UIP derivation on hand-built implication graphs.

    The graphs assign every variable True, so an antecedent clause for
    variable ``v`` reads ``(-u1, ..., -uk, v)``.
    """

    def test_mid_level_uip_is_found(self):
        # Level 2: decision x2 implies x3; x3 implies x4 and x5; x4, x5
        # and the level-1 decision x1 falsify the conflict clause.  Both
        # implication paths funnel through x3: the 1-UIP.
        clauses = [
            (-2, 3),        # reason for x3
            (-3, 4),        # reason for x4
            (-3, 5),        # reason for x5
            (-4, -5, -1),   # conflict
        ]
        assign = {v: True for v in (1, 2, 3, 4, 5)}
        vlevel = {1: 1, 2: 2, 3: 2, 4: 2, 5: 2}
        reason = {1: None, 2: None, 3: 0, 4: 1, 5: 2}
        trail = [1, 2, 3, 4, 5]
        learned, assert_level, lbd, seen = _analyze_conflict(
            clauses, 3, assign, vlevel, reason, trail, level=2)
        assert learned == (-3, -1)
        assert assert_level == 1
        assert lbd == 2
        assert {1, 3, 4, 5} <= seen

    def test_uip_spanning_three_levels(self):
        # The classic funnel across three levels: the learned clause
        # mentions one variable per level and backjumps to level 2.
        clauses = [
            (-3, 4),         # reason for x4
            (-3, -4, 5),     # reason for x5
            (-1, -5, 6),     # reason for x6
            (-2, -6, -4),    # conflict
        ]
        assign = {v: True for v in range(1, 7)}
        vlevel = {1: 1, 2: 2, 3: 3, 4: 3, 5: 3, 6: 3}
        reason = {1: None, 2: None, 3: None, 4: 0, 5: 1, 6: 2}
        trail = [1, 2, 3, 4, 5, 6]
        learned, assert_level, lbd, _seen = _analyze_conflict(
            clauses, 3, assign, vlevel, reason, trail, level=3)
        assert learned[0] == -3  # asserting literal first
        assert set(learned) == {-3, -2, -1}
        assert assert_level == 2
        assert lbd == 3

    def test_decision_uip_when_no_dominator_exists(self):
        # Conflict directly between the decision and its implication:
        # the decision itself is the UIP and the lemma is a unit.
        clauses = [
            (-1, 2),   # reason for x2
            (-1, -2),  # conflict
        ]
        assign = {1: True, 2: True}
        vlevel = {1: 1, 2: 1}
        reason = {1: None, 2: 0}
        trail = [1, 2]
        learned, assert_level, lbd, _seen = _analyze_conflict(
            clauses, 1, assign, vlevel, reason, trail, level=1)
        assert learned == (-1,)
        assert assert_level == 0
        assert lbd == 1

    def test_level_zero_literals_are_dropped(self):
        # x9 is a level-0 unit (a lemma of the component): it must not
        # appear in the learned clause.
        clauses = [
            (-9, -1, 2),   # reason for x2 (mentions the level-0 literal)
            (-2, -1),      # conflict
        ]
        assign = {9: True, 1: True, 2: True}
        vlevel = {9: 0, 1: 1, 2: 1}
        reason = {9: None, 1: None, 2: 0}
        trail = [9, 1, 2]
        learned, assert_level, _lbd, _seen = _analyze_conflict(
            clauses, 1, assign, vlevel, reason, trail, level=1)
        assert learned == (-1,)
        assert assert_level == 0


class TestLearnedDatabase:
    def test_reduction_triggers_and_preserves_the_count(self):
        clauses = _hard_random_clauses(num_vars=28, ratio=4.3, seed=11)
        pairs = {v: WeightPair(1, 1) for v in range(1, 29)}
        reference = _engine(pairs, learn=False).run(clauses)
        assert reference == _shannon_count(clauses, pairs.__getitem__,
                                           range(1, 29))
        cnf = _cnf_from_clauses(clauses, 28)
        assert reference == compile_cnf(cnf).evaluate(lambda v: (1, 1))
        engine = _engine(pairs, learn=True, max_learned=4)
        assert engine.run(clauses) == reference
        assert engine.stats.db_reductions >= 1

    def test_learned_clauses_never_pollute_cache_keys(self):
        # A learning run and a learning-free run share one component
        # cache: the second run must resolve the top-level component by
        # pure cache hit, which only works when learned clauses stayed
        # out of the canonical keys.
        clauses = _hard_random_clauses(num_vars=18, ratio=3.5, seed=3)
        pairs = {v: WeightPair(1, 1) for v in range(1, 19)}
        weights = {v: (1, 1) for v in range(1, 19)}
        totals = {v: 2 for v in range(1, 19)}
        cache = {}
        key_cache = {}
        first = CountingEngine(weights, totals, cache=cache,
                               stats=EngineStats(), key_cache=key_cache,
                               options=SolverOptions(learn=True)).run(clauses)
        replay_stats = EngineStats()
        replay = CountingEngine(weights, totals, cache=cache,
                                stats=replay_stats, key_cache=key_cache,
                                options=SolverOptions(learn=False)).run(clauses)
        assert replay == first
        assert replay_stats.decisions == 0  # resolved by cache alone
        assert replay_stats.cache_hits >= 1


class TestKnobPlumbing:
    def test_solver_results_are_knob_independent(self):
        from repro.logic.parser import parse

        f = parse("forall x, y. (R(x) | S(x, y) | T(y))")
        default = wfomc(f, 3, options=SolverOptions(method="lineage"))
        assert default == 13009
        assert wfomc(f, 3, options=SolverOptions(method="lineage", learn=False)) == default
        assert wfomc(f, 3, options=SolverOptions(method="lineage", branching="moms")) == default
        assert wfomc(f, 3, options=SolverOptions(method="lineage", max_learned=8)) == default
        assert wfomc(f, 3, options=SolverOptions(method="lineage", restarts=1)) == default

    def test_unknown_branching_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            CountingEngine({1: (1, 1)}, {1: 2}, cache={}, stats=EngineStats(),
                           options=SolverOptions(branching="vsads"))

    def test_engine_stats_expose_cdcl_counters(self):
        stats = EngineStats()
        as_dict = stats.as_dict()
        for field in ("conflicts", "learned_clauses", "backjumps",
                      "backjump_levels", "db_reductions"):
            assert field in as_dict


class TestLubyRestarts:
    """Luby restarts: abandon decision levels, never change the count."""

    def test_luby_sequence(self):
        from repro.propositional.counter import _luby

        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]

    def test_restarts_fire_and_keep_the_count(self):
        clauses = _hard_random_clauses()
        pairs = {v: WeightPair(Fraction(v, 3), Fraction(1, 2))
                 for v in range(1, 25)}
        baseline = _engine(pairs)
        reference = baseline.run(clauses)
        restarting = _engine(pairs, restarts=1)
        assert restarting.run(clauses) == reference
        # Unit 1 restarts on every Luby step, so a conflict-rich
        # instance must actually take restarts.
        assert restarting.stats.restarts > 0
        assert baseline.stats.restarts == 0

    def test_restart_counter_travels_through_stats(self):
        assert "restarts" in EngineStats().as_dict()

    def test_off_by_default_and_zero_disables(self):
        clauses = _hard_random_clauses(seed=11)
        pairs = {v: WeightPair(1, 1) for v in range(1, 25)}
        for knobs in ({}, {"restarts": 0}, {"restarts": None}):
            engine = _engine(pairs, **knobs)
            engine.run(clauses)
            assert engine.stats.restarts == 0

    def test_restarts_with_workers_are_bit_identical(self):
        from repro.propositional.counter import shutdown_worker_pool

        shutdown_worker_pool()
        cnf, pairs = TestParallelLearningDeterminism._multi_component_cnf(
            TestParallelLearningDeterminism())
        serial = wmc_cnf(cnf, pairs.__getitem__, engine_cache={},
                         stats=EngineStats())
        stats = EngineStats()
        restarted = wmc_cnf(cnf, pairs.__getitem__, engine_cache={},
                            stats=stats, options=SolverOptions(workers=2, restarts=1))
        assert restarted == serial
        # The knob rides the worker payload: the merged worker counters
        # report the restarts taken inside the pool.
        assert stats.restarts > 0


class TestPhaseSaving:
    """Backjump phase saving: polarity memory steers branch order only."""

    def _corpus_cnf(self, seed=19, num_vars=14, ratio=4.2):
        clauses = _hard_random_clauses(num_vars=num_vars, ratio=ratio,
                                       seed=seed)
        return _cnf_from_clauses(clauses, num_vars), clauses

    def test_make_node_branches_into_the_saved_polarity_first(self):
        pairs = {v: WeightPair(1, 1) for v in (1, 2)}
        engine = _engine(pairs)
        component = ((1, 2), (1, -2))
        engine.saved_phase[1] = False
        node = engine._make_node(component, {1, 2}, None, 0)
        assert node.branches[0] == -1  # saved polarity first ...
        assert node.branches[1] == 1
        assert engine.stats.phase_hits == 1
        engine.saved_phase[1] = True
        node = engine._make_node(component, {1, 2}, None, 0)
        assert node.branches[0] == 1

    def test_unsaved_variables_fall_back_to_w_first(self):
        pairs = {v: WeightPair(1, 1) for v in (1, 2)}
        engine = _engine(pairs)
        node = engine._make_node(((1, 2), (1, -2)), {1, 2}, None, 0)
        assert node.branches == [1, -1]
        assert engine.stats.phase_hits == 0

    def test_zero_weight_polarities_stay_skipped(self):
        pairs = {1: WeightPair(1, 0), 2: WeightPair(1, 1)}
        engine = _engine(pairs)
        engine.saved_phase[1] = False  # saved phase has zero weight
        node = engine._make_node(((1, 2), (1, -2)), {1, 2}, None, 0)
        assert node.branches == [1]

    def test_decision_count_changes_while_the_value_does_not(self):
        # On this refutation-heavy seeded instance, branching into the
        # saved polarity provably shortens the search (4 decisions vs 7
        # — deterministic, like the decision-parity benchmark asserts),
        # while the counted value is bit-identical.
        cnf, clauses = self._corpus_cnf()
        pairs = [WeightPair(1, 1)] * 14
        counts = {}
        decisions = {}
        hits = {}
        for phase_saving in (True, False):
            stats = EngineStats()
            counts[phase_saving] = wmc_cnf(
                cnf, lambda v: pairs[v - 1], engine_cache={}, stats=stats,
                options=SolverOptions(phase_saving=phase_saving))
            decisions[phase_saving] = stats.decisions
            hits[phase_saving] = stats.phase_hits
        assert counts[True] == counts[False] == _wmc_reference(clauses, pairs)
        assert hits[False] == 0
        assert hits[True] > 0
        assert decisions[True] < decisions[False]

    def test_solver_results_are_phase_knob_independent(self):
        from repro.logic.parser import parse

        f = parse("forall x, y. (R(x) | S(x, y) | T(y))")
        assert (wfomc(f, 3, options=SolverOptions(method="lineage", phase_saving=False))
                == wfomc(f, 3, options=SolverOptions(method="lineage", phase_saving=True))
                == 13009)

    def test_phase_saving_with_workers_is_bit_identical(self):
        from repro.propositional.counter import shutdown_worker_pool

        clauses = _hard_random_clauses(num_vars=18, ratio=4.0, seed=11)
        cnf = _cnf_from_clauses(clauses, 18)
        weight_of = lambda v: WeightPair(1, 1)  # noqa: E731
        serial = wmc_cnf(cnf, weight_of, engine_cache={}, stats=EngineStats(),
                         options=SolverOptions(phase_saving=True))
        parallel = wmc_cnf(cnf, weight_of, engine_cache={},
                           stats=EngineStats(),
                           options=SolverOptions(workers=2, phase_saving=True))
        shutdown_worker_pool()
        assert serial == parallel
