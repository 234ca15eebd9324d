"""The circuit-evaluation backend subsystem end to end.

Covers the :class:`~repro.compile.backends.EvalBackend` strategy layer
(resolution, the unified ``Circuit.evaluate``/``evaluate_many``
surface), the batched interpreter, the float64 path with tracked error
bounds and automatic exact fallback, per-circuit code generation with
its source validator and store persistence, the one-compilation-per-
``(formula, n)`` property of ``wfomc_batch(compile=True)``, the shared
compiled route of ``mln_query_sweep``, and the CLI ``--backend`` flag.
"""

from fractions import Fraction

import pytest

from repro.compile import compile_wfomc, clear_compile_cache, compile_stats
from repro.compile.backends import (
    FloatBackend,
    backend_stats,
    clear_backend_stats,
    get_backend,
)
from repro.compile.codegen import (
    CODEGEN_FORMAT,
    batch_source,
    compile_source,
    scalar_source,
    validate_source,
)
from repro.compile.trace import CIRCUITS_NS, compile_cnf
from repro.logic.parser import parse
from repro.logic.syntax import predicates_of
from repro.logic.vocabulary import WeightedVocabulary
from repro.options import SolverOptions
from repro.propositional.cnf import CNF
from repro.wfomc.solver import wfomc, wfomc_batch, wfomc_weight_sweep


def _instance(text="forall x, y. (R(x) | S(x, y) | T(y))", n=2, k=6):
    f = parse(text)
    arities = predicates_of(f)
    vocabularies = [
        WeightedVocabulary.from_weights(
            {name: (Fraction(j, 3), 1) if name == sorted(arities)[0]
             else (1, 1) for name in arities},
            arities)
        for j in range(1, k + 1)
    ]
    return f, n, vocabularies


def _small_circuit():
    cnf = CNF()
    for v in (1, 2, 3):
        cnf.var_for(v)
    cnf.add_clause((1, 2))
    cnf.add_clause((-2, 3))
    return compile_cnf(cnf)


class TestBackendResolution:
    def test_names_resolve(self):
        for name in ("exact", "batched", "float", "codegen"):
            assert get_backend(name).name == name

    def test_none_is_exact(self):
        assert get_backend(None).name == "exact"

    def test_instances_pass_through(self):
        backend = FloatBackend(rel_tol=1e-6)
        assert get_backend(backend) is backend

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="gpu"):
            get_backend("gpu")


class TestUnifiedSurface:
    """Circuit.evaluate/evaluate_many: one entry, every backend agrees."""

    def test_exact_backends_bit_identical(self):
        f, n, vocabularies = _instance()
        compiled = compile_wfomc(f, n, options=SolverOptions(method="lineage"))
        reference = compiled.evaluate_many(vocabularies)
        assert all(isinstance(v, Fraction) for v in reference)
        for backend in ("exact", "batched", "codegen"):
            many = compiled.evaluate_many(vocabularies, backend=backend)
            assert many == reference, backend
            assert all(
                (a.numerator, a.denominator) == (b.numerator, b.denominator)
                for a, b in zip(reference, many)), backend
            singles = [compiled.evaluate(wv, backend=backend)
                       for wv in vocabularies]
            assert singles == reference, backend

    def test_uniform_batch_broadcasts(self):
        f, n, vocabularies = _instance()
        compiled = compile_wfomc(f, n, options=SolverOptions(method="lineage"))
        same = [vocabularies[0]] * 4
        reference = compiled.evaluate(vocabularies[0])
        for backend in ("batched", "codegen"):
            assert compiled.evaluate_many(same, backend=backend) == (
                [reference] * 4), backend

    def test_empty_batch(self):
        f, n, _ = _instance()
        compiled = compile_wfomc(f, n, options=SolverOptions(method="lineage"))
        for backend in ("exact", "batched", "codegen"):
            assert compiled.evaluate_many([], backend=backend) == []


class TestFloatBackend:
    def test_value_within_tracked_bound(self):
        circuit = _small_circuit()
        weights = lambda v: (Fraction(1, 3), Fraction(2, 7))  # noqa: E731
        exact = circuit.evaluate(weights)
        value, bound = FloatBackend().evaluate_bounds(circuit, weights)
        assert abs(Fraction(value) - exact) <= Fraction(bound)

    def test_returns_float_when_bound_is_tight(self):
        circuit = _small_circuit()
        weights = lambda v: (Fraction(1, 2), 1)  # noqa: E731
        clear_backend_stats()
        got = circuit.evaluate(weights, backend="float")
        assert isinstance(got, float)
        assert got == float(circuit.evaluate(weights))
        assert backend_stats()["float_fallbacks"] == 0

    def test_catastrophic_cancellation_falls_back_to_exact(self):
        # Empty CNF over one variable: WMC = w + wbar.  With
        # w = 10**20 + 1 and wbar = -10**20 the float pass cancels to 0
        # while the exact value is 1 — the tracked bound crosses the
        # decision threshold and the backend must recompute exactly.
        cnf = CNF()
        cnf.var_for(1)
        circuit = compile_cnf(cnf)
        weights = lambda v: (Fraction(10 ** 20 + 1), Fraction(-10 ** 20))  # noqa: E731
        clear_backend_stats()
        got = circuit.evaluate(weights, backend="float")
        assert got == 1.0
        assert backend_stats()["float_fallbacks"] == 1


class TestCodegen:
    def test_sources_validate_and_execute(self):
        circuit = _small_circuit()
        src = scalar_source(circuit)
        assert validate_source(src)
        fn = compile_source(src)
        weights = lambda v: (Fraction(1, 2), 1)  # noqa: E731
        from repro.compile.backends import leaf_values

        flat = leaf_values(circuit.leaf_keys(), weights)
        assert Fraction(fn(flat)) == circuit.evaluate(weights)

    def test_validator_rejects_structural_tampering(self):
        circuit = _small_circuit()
        src = batch_source(circuit, frozenset([0]))
        assert validate_source(src, batch=True)
        assert not validate_source(
            src.replace("    return", "    import os\n    return"),
            batch=True)
        assert not validate_source(src + "\n    v9 = v0.__class__",
                                   batch=True)
        assert not validate_source(src + '\n    v9 = "x"', batch=True)
        # The conditional tail only compares _s names against 0/1.
        assert not validate_source(
            src + "\n    v9 = v0 if _s1 == 2 else v0", batch=True)

    def test_grammar_sound_sources_fail_closed_without_builtins(self):
        # Names pass the charset, but exec sees empty __builtins__ and
        # only F/zip — a smuggled call has nothing to reach.
        evil = "def _circuit_eval(L):\n    v0 = eval(L)\n    return v0"
        assert validate_source(evil)
        with pytest.raises(NameError):
            compile_source(evil)([1])

    def test_store_round_trip_and_tamper_rejection(self, tmp_path):
        from repro.cache import open_store

        store = open_store(str(tmp_path))
        circuit = _small_circuit()
        weights = lambda v: (Fraction(1, 2), 1)  # noqa: E731
        exact = circuit.evaluate(weights)
        clear_backend_stats()
        assert circuit.evaluate(weights, backend="codegen",
                                store=store) == exact
        assert backend_stats()["codegen_store_hits"] == 0
        # A fresh circuit object (empty runtime cache) warm-loads the
        # persisted source instead of regenerating.
        fresh = type(circuit)(circuit.rows, circuit.root)
        assert fresh.evaluate(weights, backend="codegen",
                              store=store) == exact
        assert backend_stats()["codegen_store_hits"] == 1
        # Tamper the stored payload: the validator must reject it and
        # the backend must regenerate, still returning the exact value.
        key = ("codegen", CODEGEN_FORMAT, "scalar", circuit.root,
               circuit.rows)
        assert store.get(CIRCUITS_NS, key) is not None
        store.put(CIRCUITS_NS, key,
                  ("codegen-src", CODEGEN_FORMAT,
                   "def _circuit_eval(L):\n    v0 = L.__class__\n    return v0"))
        clear_backend_stats()
        tampered = type(circuit)(circuit.rows, circuit.root)
        assert tampered.evaluate(weights, backend="codegen",
                                 store=store) == exact
        assert backend_stats()["codegen_store_hits"] == 0

    def test_node_limit_falls_back_to_interpreters(self, monkeypatch):
        import repro.compile.backends as backends

        monkeypatch.setattr(backends, "CODEGEN_NODE_LIMIT", 1)
        f, n, vocabularies = _instance()
        compiled = compile_wfomc(f, n, options=SolverOptions(method="lineage"))
        reference = compiled.evaluate_many(vocabularies)
        clear_backend_stats()
        assert compiled.evaluate_many(vocabularies,
                                      backend="codegen") == reference
        stats = backend_stats()
        assert stats["codegen_batches"] == 0
        assert stats["batched_batches"] == 1


class TestSolverIntegration:
    def test_batch_compiles_once_per_size(self):
        f, _n, vocabularies = _instance()
        clear_compile_cache()
        before = compile_stats()["compiled"]
        results = wfomc_batch(f, [2, 3], vocabularies[0],
                              options=SolverOptions(backend="codegen"))
        compiled_count = compile_stats()["compiled"] - before
        assert compiled_count == 2  # one circuit per distinct n, reused
        direct = {n: wfomc(f, n, vocabularies[0]) for n in (2, 3)}
        assert results == direct

    def test_weight_sweep_backends_match_direct(self):
        f, n, vocabularies = _instance()
        direct = wfomc_weight_sweep(f, n, vocabularies,
                                    via_polynomial=False)
        for backend in ("batched", "codegen"):
            got = wfomc_weight_sweep(
                f, n, vocabularies,
                options=SolverOptions(backend=backend))
            assert got == direct, backend

    def test_float_backend_sweep_is_close(self):
        f, n, vocabularies = _instance()
        direct = wfomc_weight_sweep(f, n, vocabularies,
                                    via_polynomial=False)
        got = wfomc_weight_sweep(f, n, vocabularies,
                                 options=SolverOptions(backend="float"))
        for exact, approx in zip(direct, got):
            assert isinstance(approx, float)
            if exact == 0:
                assert approx == 0.0
            else:
                assert abs(Fraction(approx) - exact) <= (
                    abs(exact) * Fraction(1, 10 ** 8))

    def test_mln_query_sweep_compiled_route_matches_loop(self):
        from repro.mln import MLN, mln_query_sweep

        mlns = [MLN([(Fraction(w, 2), parse("S(x, y)")),
                     (Fraction(3), parse("P(x)"))])
                for w in (5, 7, 9)]
        query = parse("exists x. P(x)")
        plain = mln_query_sweep(mlns, query, 2)
        for backend in (None, "batched", "codegen"):
            opts = SolverOptions(compile=True, backend=backend)
            assert mln_query_sweep(mlns, query, 2, options=opts) == plain

    def test_mln_query_sweep_pole_falls_back(self):
        from repro.mln import MLN, mln_query_sweep

        # A weight-1 soft constraint sits on the pole of the frozen
        # reduction template; the sweep must fall back to the per-MLN
        # loop and still be exact.
        mlns = [MLN([(Fraction(w), parse("P(x)"))]) for w in (1, 2)]
        query = parse("exists x. P(x)")
        plain = mln_query_sweep(mlns, query, 2)
        compiled = mln_query_sweep(mlns, query, 2,
                                   options=SolverOptions(compile=True))
        assert compiled == plain


class TestCLI:
    def test_sweep_backend_flag_matches_interpreter(self, capsys):
        from repro.cli import main

        argv = ["sweep", "forall x, y. (R(x) | S(x, y))", "3",
                "--vary", "R", "--values", "1/2,1,2"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        for backend in ("batched", "codegen"):
            assert main(argv + ["--backend", backend]) == 0
            assert capsys.readouterr().out == plain

    def test_probability_float_backend(self, capsys):
        from repro.cli import main

        assert main(["probability", "exists x. P(x)", "3",
                     "--backend", "float"]) == 0
        out = capsys.readouterr().out
        assert "0.875" in out
