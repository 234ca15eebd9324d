"""Tests for the watched-literal WMC engine and the solver cache layer.

The engine is validated two ways: property tests assert exact agreement
with brute-force enumeration on random CNFs and random FO sentences
(negative weights included) — for the serial watched-literal path and
the process-pool parallel path alike — and unit tests pin down the
cache behavior (canonical component sharing, incremental key memoization,
hit counting, isolation, parallel determinism).
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings

from repro.grounding.lineage import clear_grounding_caches, grounding_cache_stats
from repro.logic.vocabulary import WeightedVocabulary
from repro.options import SolverOptions
from repro.propositional.cnf import CNF
from repro.propositional.counter import (
    CountingEngine,
    EngineStats,
    engine_stats,
    reset_engine,
    wmc_cnf,
)
from repro.utils import LRUCache
from repro.weights import WeightPair
from repro.wfomc.bruteforce import wfomc_enumerate
from repro.wfomc.solver import (
    clear_solver_caches,
    solver_cache_stats,
    wfomc,
    wfomc_batch,
    wfomc_weight_sweep,
)

from .strategies import (
    cnf_clause_lists,
    fo2_nested_sentences,
    fractions,
    weighted_vocabularies,
)


def _cnf_from_clauses(clauses, num_vars):
    """A CNF whose variables 1..num_vars are all labeled by themselves."""
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


class TestEngineAgainstEnumeration:
    @settings(max_examples=120, deadline=None)
    @given(cnf_clause_lists(), fractions(), fractions(), fractions())
    def test_random_cnfs_match_enumeration(self, clauses, w1, w2, w3):
        num_vars = 5
        pairs = [
            WeightPair(w1, 1),
            WeightPair(w2, 2),
            WeightPair(1, w3),
            WeightPair(w1, w3),
            WeightPair(1, 1),
        ]
        cnf = _cnf_from_clauses(clauses, num_vars)
        fast = wmc_cnf(cnf, lambda v: pairs[v - 1])
        assert fast == _wmc_reference(clauses, pairs)

    @settings(max_examples=25, deadline=None)
    @given(fo2_nested_sentences(), weighted_vocabularies())
    def test_random_sentences_match_world_enumeration(self, sentence, wv):
        assert wfomc(sentence, 2, wv, options=SolverOptions(method="lineage")) == wfomc_enumerate(
            sentence, 2, wv
        )

    @settings(max_examples=30, deadline=None)
    @given(cnf_clause_lists(), cnf_clause_lists(), fractions(), fractions())
    def test_parallel_counts_match_serial_and_enumeration(
        self, clauses_a, clauses_b, w1, w2
    ):
        # Two variable-disjoint blocks of 5 variables each, so the
        # top-level split routinely produces several components for the
        # process pool; the parallel count must equal both the serial
        # watched-literal count and brute-force enumeration bit for bit.
        shifted = [tuple(l + 5 if l > 0 else l - 5 for l in c) for c in clauses_b]
        clauses = list(clauses_a) + shifted
        pairs = [
            WeightPair(w1, 1),
            WeightPair(1, w2),
            WeightPair(w2, w1),
            WeightPair(1, 1),
            WeightPair(w1, w2),
        ] * 2
        cnf = _cnf_from_clauses(clauses, 10)
        serial = wmc_cnf(cnf, lambda v: pairs[v - 1],
                         engine_cache={}, stats=EngineStats())
        parallel = wmc_cnf(cnf, lambda v: pairs[v - 1],
                           engine_cache={}, stats=EngineStats(), options=SolverOptions(workers=2))
        assert serial == parallel == _wmc_reference(clauses, pairs)


class TestParallelDeterminism:
    def _multi_component_cnf(self):
        # Four disjoint, structurally different components with
        # fractional weights: any nondeterminism in scheduling or merge
        # order would show up as a different Fraction.
        clauses = []
        for k in range(4):
            base = 5 * k
            clauses.append((base + 1, base + 2, -(base + 3)))
            clauses.append((-(base + 1), base + 4))
            clauses.append((base + 2 + k % 2, -(base + 5), base + 1))
            clauses.append((base + 3, base + 5))
        cnf = _cnf_from_clauses(clauses, 20)
        pairs = {
            v: WeightPair(Fraction(v, 7), Fraction(3, v + 1)) for v in range(1, 21)
        }
        return cnf, pairs

    def test_repeated_parallel_runs_bit_identical(self):
        cnf, pairs = self._multi_component_cnf()
        serial = wmc_cnf(cnf, pairs.__getitem__,
                         engine_cache={}, stats=EngineStats())
        runs = [
            wmc_cnf(cnf, pairs.__getitem__,
                    engine_cache={}, stats=EngineStats(), options=SolverOptions(workers=3))
            for _ in range(3)
        ]
        for value in runs:
            assert value == serial
            assert (value.numerator, value.denominator) == (
                serial.numerator, serial.denominator,
            )

    def test_parallel_tasks_counted_and_merged_into_cache(self):
        cnf, pairs = self._multi_component_cnf()
        cache = {}
        stats = EngineStats()
        first = wmc_cnf(cnf, pairs.__getitem__,
                        engine_cache=cache, stats=stats, options=SolverOptions(workers=2))
        assert stats.parallel_tasks >= 2
        assert len(cache) >= stats.parallel_tasks  # results merged back
        # Second run reads everything through the merged parent cache.
        again = EngineStats()
        assert wmc_cnf(cnf, pairs.__getitem__,
                       engine_cache=cache, stats=again, options=SolverOptions(workers=2)) == first
        assert again.parallel_tasks == 0
        assert again.cache_hits >= 4


class TestWatchedLiterals:
    def test_propagation_chain_forces_all_variables(self):
        # A long implication chain forced from one end: propagation must
        # assign every variable without a single decision.
        length = 40
        clauses = [(1,)] + [(-v, v + 1) for v in range(1, length)]
        weights = {v: (1, 1) for v in range(1, length + 1)}
        totals = {v: 2 for v in range(1, length + 1)}
        stats = EngineStats()
        engine = CountingEngine(weights, totals, cache={}, stats=stats)
        assert engine.run(clauses) == 1
        assert stats.propagations == length
        assert stats.decisions == 0

    def test_falsified_watch_moves_to_unwatched_literal(self):
        # Asserting 1 falsifies the watched -1 in (-1 | -2 | 3); the
        # watch must relocate to the third literal instead of forcing -2.
        clauses = [(1,), (-1, -2, 3)]
        weights = {v: (1, 1) for v in (1, 2, 3)}
        totals = {v: 2 for v in (1, 2, 3)}
        stats = EngineStats()
        engine = CountingEngine(weights, totals, cache={}, stats=stats)
        assert engine.run(clauses) == 3  # 1 is forced; (-2 | 3) has 3 models
        assert stats.watch_moves >= 1

    def test_duplicate_literals_and_tautologies(self):
        weights = {1: (1, 1), 2: (1, 1)}
        totals = {1: 2, 2: 2}
        engine = CountingEngine(weights, totals, cache={}, stats=EngineStats())
        # (1 | 1) collapses to the unit (1); (2 | -2) is a tautology.
        assert engine.run([(1, 1), (2, -2)]) == 2

    def test_key_memo_skips_renormalization_on_repeat(self):
        clauses = [(1, 2, 3), (-1, 2), (-2, -3)]
        weights = {v: (1, 1) for v in (1, 2, 3)}
        totals = {v: 2 for v in (1, 2, 3)}
        stats = EngineStats()
        engine = CountingEngine(weights, totals, cache={}, stats=stats,
                                key_cache={})
        first = engine.run(clauses)
        key_misses = stats.key_misses
        assert engine.run(clauses) == first
        # The repeated run reuses every memoized canonical key.
        assert stats.key_misses == key_misses
        assert stats.key_hits >= 1

    def test_key_memo_is_weight_independent(self):
        # Two engines with different weights share one key cache; the
        # value cache keys must still embed the weights, so the counts
        # must not collide.
        clauses = [(1, 2)]
        key_cache = {}
        a = CountingEngine({1: (2, 1), 2: (2, 1)}, {1: 3, 2: 3},
                           cache={}, stats=EngineStats(), key_cache=key_cache)
        b = CountingEngine({1: (5, 1), 2: (5, 1)}, {1: 6, 2: 6},
                           cache={}, stats=EngineStats(), key_cache=key_cache)
        assert a.run(clauses) == 8
        assert b.run(clauses) == 35

    def test_engine_stats_include_hit_rates(self):
        reset_engine()
        stats = engine_stats()
        assert stats["cache_hit_rate"] is None
        assert stats["key_hit_rate"] is None
        cnf = _cnf_from_clauses([(2 * i + 1, 2 * i + 2) for i in range(4)], 8)
        wmc_cnf(cnf, lambda _v: WeightPair(1, 1))
        stats = engine_stats()
        assert 0 < stats["cache_hit_rate"] <= 1
        assert stats["key_entries"] >= 1
        reset_engine()


class TestComponentCache:
    def _engine(self, num_vars, pair=WeightPair(1, 1)):
        weights = {v: (pair.w, pair.wbar) for v in range(1, num_vars + 1)}
        totals = {v: pair.w + pair.wbar for v in range(1, num_vars + 1)}
        return CountingEngine(weights, totals, cache={}, stats=EngineStats())

    def test_isomorphic_components_share_one_entry(self):
        # Ten variable-disjoint copies of (a | b): canonically identical,
        # so the engine solves one and reuses it nine times.
        clauses = [(2 * i + 1, 2 * i + 2) for i in range(10)]
        engine = self._engine(20)
        assert engine.run(clauses) == 3 ** 10
        assert engine.stats.cache_misses == 1
        assert engine.stats.cache_hits == 9

    def test_weights_distinguish_cache_entries(self):
        # Same clause shape, different weights: entries must not collide.
        weights = {1: (2, 1), 2: (2, 1), 3: (5, 1), 4: (5, 1)}
        totals = {v: w + wbar for v, (w, wbar) in weights.items()}
        engine = CountingEngine(weights, totals, cache={}, stats=EngineStats())
        # (1 | 2) weighs 2*2 + 2*1 + 1*2 = 8; (3 | 4) weighs 25 + 5 + 5 = 35.
        assert engine.run([(1, 2), (3, 4)]) == 8 * 35
        assert engine.stats.cache_misses == 2

    def test_repeated_run_hits_cache(self):
        clauses = [(1, 2), (-1, 3)]
        engine = self._engine(3)
        first = engine.run(clauses)
        misses = engine.stats.cache_misses
        assert engine.run(clauses) == first
        assert engine.stats.cache_misses == misses

    def test_shared_stats_observable(self):
        reset_engine()
        cnf = _cnf_from_clauses([(1, 2), (3, 4)], 4)
        assert wmc_cnf(cnf, lambda _v: WeightPair(1, 1)) == 9
        stats = engine_stats()
        assert stats["calls"] == 1
        assert stats["cache_misses"] >= 1
        reset_engine()
        assert engine_stats()["cache_entries"] == 0

    def test_negative_weight_components(self):
        # Skolem-style (1, -1) weights flow through the component cache.
        engine = CountingEngine(
            {1: (1, -1), 2: (1, -1)},
            {1: 0, 2: 0},
            cache={},
            stats=EngineStats(),
        )
        # (1 | 2): worlds TT, TF, FT weigh 1, -1, -1: total -1.
        assert engine.run([(1, 2)]) == -1


class TestSolverCaches:
    def setup_method(self):
        clear_solver_caches()
        clear_grounding_caches()

    def test_repeated_wfomc_hits_result_cache(self):
        from repro.logic.parser import parse

        f = parse("forall x, y. (R(x) | S(x, y) | T(y))")
        first = wfomc(f, 2, options=SolverOptions(method="lineage"))
        assert first == 161
        before = solver_cache_stats()["results"]["hits"]
        assert wfomc(f, 2, options=SolverOptions(method="lineage")) == 161
        assert solver_cache_stats()["results"]["hits"] == before + 1

    def test_lineage_reused_across_weight_changes(self):
        from repro.logic.parser import parse

        f = parse("forall x, y. (R(x) | S(x, y) | T(y))")
        wv1 = WeightedVocabulary.from_weights(
            {"R": (2, 1), "S": (1, 1), "T": (1, 1)}, {"R": 1, "S": 2, "T": 1}
        )
        wv2 = WeightedVocabulary.from_weights(
            {"R": (3, 1), "S": (1, 1), "T": (1, 1)}, {"R": 1, "S": 2, "T": 1}
        )
        a = wfomc(f, 2, wv1, options=SolverOptions(method="lineage"))
        b = wfomc(f, 2, wv2, options=SolverOptions(method="lineage"))
        assert a != b  # weights actually matter
        assert grounding_cache_stats()["lineage"]["hits"] >= 1

    def test_batch_matches_individual_calls(self):
        from repro.logic.parser import parse

        f = parse("forall x, y. (R(x) | S(x, y) | T(y))")
        batch = wfomc_batch(f, [1, 2, 2, 3], options=SolverOptions(method="lineage"))
        assert set(batch) == {1, 2, 3}
        for n, value in batch.items():
            assert value == wfomc(f, n, options=SolverOptions(method="lineage"))
        assert batch[2] == 161 and batch[3] == 13009

    def test_weight_sweep_both_paths_agree(self):
        from repro.logic.parser import parse

        f = parse("forall x. (P(x) | Q(x))")
        sweeps = [
            WeightedVocabulary.from_weights(
                {"P": (w, 1), "Q": (1, wq)}, {"P": 1, "Q": 1}
            )
            for w, wq in [(1, 1), (2, 1), (3, 2), (1, -1), (-2, 3)]
        ]
        direct = [wfomc(f, 2, wv, options=SolverOptions(method="lineage")) for wv in sweeps]
        assert wfomc_weight_sweep(f, 2, sweeps, via_polynomial=True) == direct
        assert wfomc_weight_sweep(f, 2, sweeps, via_polynomial=False) == direct

    def test_weight_sweep_vocabulary_order_does_not_corrupt_cache(self):
        # Regression: coefficient vectors are ordered by the vocabulary's
        # predicate iteration order, so two sweeps whose vocabularies list
        # the same predicates in different orders must not share a cache
        # entry (an order-insensitive key silently misaligned weights).
        from repro.logic.parser import parse
        from repro.logic.vocabulary import Predicate, Vocabulary

        f = parse("forall x. (R(x) | S(x, x))")
        weights = {"R": WeightPair(2, 1), "S": WeightPair(3, 1)}
        rs = Vocabulary([Predicate("R", 1), Predicate("S", 2)])
        sr = Vocabulary([Predicate("S", 2), Predicate("R", 1)])
        expected = wfomc(f, 2, WeightedVocabulary(rs, weights),
                         options=SolverOptions(method="lineage"))
        for vocab in (rs, sr):
            wv = WeightedVocabulary(vocab, weights)
            assert wfomc_weight_sweep(f, 2, [wv], via_polynomial=True) == [expected]

    def test_fo2_decomposition_reused_across_batch_sizes(self):
        from repro.logic.parser import parse

        f = parse("forall x. exists y. (R(x, y) | P(x))")
        before = solver_cache_stats()["fo2_decompositions"]
        batch = wfomc_batch(f, [1, 2, 3, 4, 5], options=SolverOptions(method="fo2"))
        after = solver_cache_stats()["fo2_decompositions"]
        # One Scott/Skolem/cell construction serves every domain size.
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] >= before["hits"] + 4
        for n, value in batch.items():
            assert value == wfomc(f, n, options=SolverOptions(method="lineage"))

    def test_fo2_structure_shared_across_weight_functions(self):
        # The weight-independent cell structure (the exponential cell /
        # 2-table enumeration) is keyed on the formula alone, so a weight
        # sweep builds it once; only the cheap weighted layer multiplies.
        from repro.logic.parser import parse

        f = parse("forall x. exists y. (R(x, y) | (P(x) & Q(y)))")
        sweeps = [
            WeightedVocabulary.from_weights(
                {"R": (w, 1), "P": (1, 1), "Q": (1, q)},
                {"R": 2, "P": 1, "Q": 1},
            )
            for w, q in [(1, 1), (2, 1), (3, 2), (1, 3)]
        ]
        for wv in sweeps:
            assert wfomc(f, 2, wv, options=SolverOptions(method="fo2")) == wfomc(
                f, 2, wv, options=SolverOptions(method="lineage"))
        stats = solver_cache_stats()
        assert stats["fo2_structures"]["misses"] == 1
        assert stats["fo2_structures"]["hits"] == len(sweeps) - 1
        assert stats["fo2_decompositions"]["misses"] == len(sweeps)

    def test_fo2_structure_not_shared_across_skolem_name_clashes(self):
        # Regression: the structure cache keys on the skolemized matrix,
        # not the formula — a vocabulary that already uses a Skolem-like
        # name shifts the fresh symbol names, and a structure cached
        # under the formula alone would assign the user's weights to the
        # cancellation symbol (silently wrong counts).
        from repro.logic.parser import parse
        from repro.logic.vocabulary import Predicate, Vocabulary

        f = parse("forall x. exists y. R(x, y)")
        plain = WeightedVocabulary.counting(f)
        clash_vocab = Vocabulary([Predicate("R", 2), Predicate("Sk", 1)])
        clash = WeightedVocabulary(
            clash_vocab, {"R": WeightPair(1, 1), "Sk": WeightPair(1, 1)}
        )
        for first, second in ((plain, clash), (clash, plain)):
            clear_solver_caches()
            for wv in (first, second):
                assert wfomc(f, 3, wv, options=SolverOptions(method="fo2")) == wfomc(
                    f, 3, wv, options=SolverOptions(method="lineage"))

    def test_fo2_memoized_recursion_matches_lineage_at_larger_n(self):
        from repro.logic.parser import parse

        f = parse("forall x, y. (R(x, y) | S(x, y) | P(x) | Q(y))")
        for n in (3, 4):
            assert (wfomc(f, n, options=SolverOptions(method="fo2"))
                    == wfomc(f, n, options=SolverOptions(method="lineage")))

    def test_weight_sweep_polynomial_is_cached(self):
        from repro.logic.parser import parse

        f = parse("forall x. (P(x) | Q(x))")
        sweeps = [
            WeightedVocabulary.from_weights(
                {"P": (w, 1), "Q": (1, 1)}, {"P": 1, "Q": 1}
            )
            for w in (1, 2)
        ]
        wfomc_weight_sweep(f, 2, sweeps, via_polynomial=True)
        misses = solver_cache_stats()["polynomials"]["misses"]
        wfomc_weight_sweep(f, 2, sweeps, via_polynomial=True)
        assert solver_cache_stats()["polynomials"]["misses"] == misses
        assert solver_cache_stats()["polynomials"]["hits"] >= 1


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_stats_and_clear(self):
        cache = LRUCache(maxsize=4)
        cache.put("x", 1)
        cache.get("x")
        cache.get("missing")
        assert cache.stats() == {
            "entries": 1, "hits": 1, "misses": 1, "hit_rate": 0.5,
        }
        cache.clear()
        assert cache.stats() == {
            "entries": 0, "hits": 0, "misses": 0, "hit_rate": None,
        }

    def test_values_is_a_point_in_time_snapshot(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.put("b", 2)
        snapshot = cache.values()
        assert sorted(snapshot) == [1, 2]
        cache.put("c", 3)
        assert sorted(snapshot) == [1, 2]  # unaffected by later puts

    def test_peek_does_not_touch_recency_or_counters(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.peek("missing") is None
        assert cache.peek("missing", default="d") == "d"
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (0, 0)
        # "a" was NOT refreshed by the peek, so it is still the LRU
        # eviction victim.
        cache.put("c", 3)
        assert "a" not in cache
        assert "b" in cache
