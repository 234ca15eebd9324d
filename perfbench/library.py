"""The three library workloads: ``grounded_cold``, ``fo2_lifted`` and
``compiled_sweep``.

Each is a closed loop with one client. One op is one pass over the
workload's fixed instance list. The untraced op calls the public entry
points (``wfomc``, ``wfomc_weight_sweep``) exactly as a user would. The
traced op replays the same route through each layer's public functions,
with a span around every call, and must return bit-identical answers.
"""

from __future__ import annotations

import statistics
import time

import repro.compile
from repro import SolverOptions, parse, wfomc, wfomc_weight_sweep
from repro.compile import compile_wfomc
from repro.compile.backends import clear_backend_stats
from repro.compile.wfomc import CompiledWFOMC, clear_compile_cache
from repro.grounding.lineage import ground_atom_weights, lineage
from repro.logic.scott import scott_normalize, skolemize_scott
from repro.propositional import engine_stats, reset_engine, wmc_cnf
from repro.propositional.counter import cnf_for_formula
from repro.wfomc import wfomc_fo2
from repro.wfomc.solver import clear_solver_caches

from instances import (fo2_instances, grounded_instances, seeded_rng,
                       sweep_shapes, weighted)
from harness import p50

#: The compiled sweep's options: the batched backend is the serving
#: fast path (one staged pass over the circuit for all k vectors).
SWEEP_OPTIONS = SolverOptions(compile=True, backend="batched")
#: Backends compared on the compiled circuits in the traced run.
BACKENDS = ("exact", "batched", "codegen", "float")
#: Engine counters reported per op (from ``engine_stats()``).
ENGINE_COUNTERS = ("decisions", "propagations", "conflicts",
                   "learned_clauses")


def clear_all():
    """Reset every cache through the program's public clear functions."""
    clear_solver_caches()
    reset_engine()
    clear_compile_cache()
    clear_backend_stats()


class LibraryWorkload:
    """Closed-loop library workload; subclasses define the op."""

    name = None

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.tiny = tiny

    def setup(self):
        """Program-side set-up: everything an op needs ready. Timed in a
        fresh interpreter by the set-up probes."""
        raise NotImplementedError

    def oracles(self):
        """Benchmark-side expected answers (not timed)."""

    def op(self, checker, host):
        """One untraced pass; returns the seconds spent on each instance
        class at reference host speed, ``{"low": s, "high": s}``, and
        ``"raw"``, their unscaled sum. Each call is scaled by the host
        speed measured around it."""
        raise NotImplementedError

    def traced_op(self, spans, checker):
        """One traced pass; returns ``(root span id, layer counters)``."""
        raise NotImplementedError

    def traced_extras(self, checker, host):
        """Per-layer measurements made once per traced run."""
        return {}


class ColdInstances(LibraryWorkload):
    """Sentences counted from text with every cache cleared per op."""

    make_instances = None

    def setup(self):
        self.instances = type(self).make_instances(
            seeded_rng(self.seed, self.name), self.tiny)
        self.last = {}

    def op(self, checker, host):
        clear_all()
        times = {"low": 0.0, "high": 0.0, "raw": 0.0}
        for inst in self.instances:
            start = time.perf_counter()
            formula = parse(inst.text)
            result = wfomc(formula, inst.n,
                           inst.weighted_vocabulary(formula))
            _add(times, inst.cls, time.perf_counter() - start, host)
            checker.check(inst.label, result, inst.expected)
            self.last[inst.label] = result
        return times


class GroundedCold(ColdInstances):
    """FO3 sentences that route to lineage grounding and the CDCL engine."""

    name = "grounded_cold"
    make_instances = staticmethod(grounded_instances)

    def traced_op(self, spans, checker):
        clear_all()
        counters = dict.fromkeys(("grounding.ground_atoms",
                                  "propositional.cnf_vars",
                                  "propositional.cnf_clauses"), 0)
        options = SolverOptions()
        with spans.span("op") as root:
            for inst in self.instances:
                with spans.span("logic.parse"):
                    formula = parse(inst.text)
                    wv = inst.weighted_vocabulary(formula)
                with spans.span("grounding.lineage"):
                    prop = lineage(formula, inst.n)
                with spans.span("grounding.atom_weights"):
                    weight_of, universe = ground_atom_weights(wv, inst.n)
                with spans.span("propositional.cnf"):
                    cnf = cnf_for_formula(prop, universe)
                with spans.span("propositional.counter"):
                    result = wmc_cnf(cnf, weight_of, options=options)
                counters["grounding.ground_atoms"] += len(universe)
                counters["propositional.cnf_vars"] += cnf.num_vars
                counters["propositional.cnf_clauses"] += len(cnf.clauses)
                _check_replay(checker, inst.label, result,
                              self.last.get(inst.label), inst.expected)
        return root, counters


class FO2Lifted(ColdInstances):
    """FO2 sentences at large domain sizes: lifted, never grounded."""

    name = "fo2_lifted"
    make_instances = staticmethod(fo2_instances)

    def traced_op(self, spans, checker):
        clear_all()
        with spans.span("op") as root:
            for inst in self.instances:
                with spans.span("logic.parse"):
                    formula = parse(inst.text)
                    wv = inst.weighted_vocabulary(formula)
                # wfomc_fo2 runs Scott normalization itself; timing it
                # once outside gives the scott share of the fo2 span.
                with spans.span("logic.scott"):
                    sentences, wv1 = scott_normalize(formula, wv)
                    skolemize_scott(sentences, wv1)
                with spans.span("wfomc.fo2"):
                    result = wfomc_fo2(formula, inst.n, wv)
                _check_replay(checker, inst.label, result,
                              self.last.get(inst.label), inst.expected)
        return root, {}


class CompiledSweep(LibraryWorkload):
    """Seeded weight sweeps over two circuits compiled during set-up."""

    name = "compiled_sweep"

    def setup(self):
        self.shapes = []
        for shape in sweep_shapes(seeded_rng(self.seed, "sweep"), self.tiny):
            formula = parse(shape.text)
            wvs = [weighted(formula, w) for w in shape.weight_sets]
            compiled = compile_wfomc(formula, shape.n, wvs[0].vocabulary)
            self.shapes.append((shape, formula, wvs, compiled))
        self.last = {}

    def oracles(self):
        # The direct, uncompiled solver at the same weights.
        self.expected = {}
        for shape, formula, wvs, _compiled in self.shapes:
            self.expected[shape.label] = [wfomc(formula, shape.n, wv)
                                          for wv in wvs]

    def op(self, checker, host):
        times = {"low": 0.0, "high": 0.0, "raw": 0.0}
        for shape, formula, wvs, _compiled in self.shapes:
            start = time.perf_counter()
            results = wfomc_weight_sweep(formula, shape.n, wvs,
                                         options=SWEEP_OPTIONS)
            _add(times, shape.cls, time.perf_counter() - start, host)
            _check_list(checker, shape.label, results,
                        self.expected[shape.label])
            self.last[shape.label] = results
        return times

    def traced_op(self, spans, checker):
        reset_engine()
        original_many = CompiledWFOMC.evaluate_many
        original_compile = repro.compile.compile_wfomc
        CompiledWFOMC.evaluate_many = spans.wrap("compile.evaluate_many",
                                                 original_many)
        repro.compile.compile_wfomc = spans.wrap("compile.lookup",
                                                 original_compile)
        try:
            with spans.span("op") as root:
                for shape, formula, wvs, _compiled in self.shapes:
                    with spans.span("wfomc.solver.sweep"):
                        results = wfomc_weight_sweep(formula, shape.n, wvs,
                                                     options=SWEEP_OPTIONS)
                    for i, (got, want) in enumerate(
                            zip(results, self.expected[shape.label])):
                        _check_replay(checker, "{}[{}]".format(shape.label, i),
                                      got, self.last[shape.label][i], want)
        finally:
            CompiledWFOMC.evaluate_many = original_many
            repro.compile.compile_wfomc = original_compile
        return root, {}

    def traced_extras(self, checker, host):
        """Cold compile time, circuit sizes, and every backend on the
        same circuits and weight vectors (medians of several passes,
        each scaled to reference host speed)."""
        extras = {"compile.circuit_nodes": 0, "compile.circuit_edges": 0}
        compile_runs = []
        for _ in range(3):
            clear_all()
            host.restart()
            start = time.perf_counter()
            for shape, formula, wvs, _compiled in self.shapes:
                compile_wfomc(formula, shape.n, wvs[0].vocabulary)
            compile_runs.append((time.perf_counter() - start) * host.scale())
        extras["compile.compile_wfomc_s"] = statistics.median(compile_runs)
        for _shape, _formula, _wvs, compiled in self.shapes:
            stats = compiled.stats()
            extras["compile.circuit_nodes"] += stats["nodes"]
            extras["compile.circuit_edges"] += stats["edges"]
        for backend in BACKENDS:
            runs = []
            for _ in range(4):
                host.restart()
                start = time.perf_counter()
                for shape, _formula, wvs, compiled in self.shapes:
                    got = compiled.evaluate_many(wvs, backend=backend)
                    _check_backend(checker, backend, shape.label, got,
                                   self.expected[shape.label])
                runs.append((time.perf_counter() - start) * host.scale())
            # The first codegen pass generates and compiles source.
            extras["compile.backends.{}_ms".format(backend)] = (
                statistics.median(runs[1:]) * 1000.0)
        return extras


def _add(times, cls, seconds, host):
    times[cls] += seconds * host.scale()
    times["raw"] += seconds


def _check_list(checker, label, got, expected):
    if len(got) != len(expected):
        checker.record(label, False, "{} answers for {} weight sets".format(
            len(got), len(expected)))
        return
    for i, (g, e) in enumerate(zip(got, expected)):
        checker.check("{}[{}]".format(label, i), g, e)


def _check_replay(checker, label, got, untraced, expected):
    """A traced answer must equal both its oracle and, bit for bit, the
    untraced answer to the same input."""
    checker.check(label, got, expected)
    if untraced is not None:
        checker.record(label + " (replay)",
                       type(got) is type(untraced) and got == untraced,
                       "traced {!r} != untraced {!r}".format(got, untraced))


def _check_backend(checker, backend, label, got, expected):
    if backend != "float":
        _check_list(checker, "{}:{}".format(backend, label), got, expected)
        return
    for i, (g, e) in enumerate(zip(got, expected)):
        checker.record("float:{}[{}]".format(label, i),
                       abs(float(g) - float(e)) <= 1e-9 * abs(float(e)),
                       "{!r} vs {!r}".format(g, e))


WORKLOADS = {cls.name: cls for cls in (GroundedCold, FO2Lifted,
                                       CompiledSweep)}


def run_untraced(workload, seconds, checker, host):
    """The closed loop with tracing off: end-to-end metrics at reference
    host speed, and the raw op times."""
    workload.op(checker, host)  # warm-up: lazy imports, first touches
    ops, lows, highs, raw = [], [], [], []
    deadline = time.perf_counter() + seconds
    host.restart()
    while True:
        times = workload.op(checker, host)
        ops.append(times["low"] + times["high"])
        lows.append(times["low"])
        highs.append(times["high"])
        raw.append(times["raw"])
        if time.perf_counter() >= deadline:
            break
    return ops, lows, highs, raw


def run_traced(workload, seconds, spans, checker, host):
    """Alternate untraced and traced ops; per-layer metrics are medians
    over the traced ops, each op's times scaled to reference host
    speed."""
    started = time.perf_counter()
    extras = workload.traced_extras(checker, host)
    deadline = started + seconds
    untraced, per_op = [], []
    workload.op(checker, host)
    host.restart()
    while True:
        times = workload.op(checker, host)
        untraced.append(times["low"] + times["high"])
        host.restart()
        root, counters = workload.traced_op(spans, checker)
        scale = host.scale()
        stats = engine_stats()
        layers = spans.self_times(root)
        total = spans.duration(root)
        row = {"op": total * scale, "attributed": sum(layers.values()) / total}
        row.update((name, value * scale) for name, value in layers.items())
        row.update(counters)
        for name in ENGINE_COUNTERS:
            row["propositional.counter." + name] = stats[name]
        row["propositional.counter.cache_hit_rate"] = _rate(
            stats["cache_hits"], stats["cache_misses"])
        row["propositional.counter.key_hit_rate"] = _rate(
            stats["key_hits"], stats["key_misses"])
        per_op.append(row)
        if time.perf_counter() >= deadline:
            break
    return layer_metrics(per_op, untraced, extras)


def _rate(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def _median_of(rows, key, scale=1.0):
    return p50([row.get(key, 0.0) for row in rows]) * scale


def layer_metrics(rows, untraced, extras):
    """Map the per-op rows onto the per-layer metric names."""
    ms = 1000.0
    fo2_self = p50([row.get("wfomc.fo2", 0.0) - row.get("logic.scott", 0.0)
                    for row in rows]) * ms
    metrics = {
        "logic.parse_ms": _median_of(rows, "logic.parse", ms),
        "logic.scott_ms": _median_of(rows, "logic.scott", ms),
        "grounding.lineage_ms": _median_of(rows, "grounding.lineage", ms),
        "grounding.atom_weights_ms": _median_of(
            rows, "grounding.atom_weights", ms),
        "grounding.ground_atoms": _median_of(rows, "grounding.ground_atoms"),
        "propositional.cnf_ms": _median_of(rows, "propositional.cnf", ms),
        "propositional.cnf_vars": _median_of(rows, "propositional.cnf_vars"),
        "propositional.cnf_clauses": _median_of(
            rows, "propositional.cnf_clauses"),
        "propositional.counter_ms": _median_of(
            rows, "propositional.counter", ms),
        "wfomc.fo2_ms": fo2_self,
        "compile.evaluate_many_ms": _median_of(
            rows, "compile.evaluate_many", ms),
        "compile.lookup_ms": _median_of(rows, "compile.lookup", ms),
        "wfomc.solver.sweep_overhead_ms": _median_of(
            rows, "wfomc.solver.sweep", ms),
        "attributed_frac": _median_of(rows, "attributed"),
        "trace_overhead_frac": (p50([row["op"] for row in rows])
                                / p50(untraced)),
        "traced_ops": len(rows),
    }
    for name in ENGINE_COUNTERS + ("cache_hit_rate", "key_hit_rate"):
        key = "propositional.counter." + name
        metrics[key] = _median_of(rows, key)
    metrics.update(extras)
    return metrics
