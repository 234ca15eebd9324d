"""Tests for :mod:`repro.obs`: spans, histograms, structured logs.

Covers the tracing primitives (nesting, cross-thread carry, ring-buffer
bound, Chrome export validity), the log-scale histogram (quantile
ordering, concurrent recording), the JSON log formatter, the CLI
surfaces (``repro trace``, ``--trace``, ``--json``), and the
``engine_stats`` reset-vs-concurrent-read regression.
"""

import io
import json
import logging
import threading

import pytest

from repro.obs import (
    Histogram,
    JsonFormatter,
    configure_logging,
    disable_tracing,
    enable_tracing,
    export_trace,
    get_logger,
    new_request_id,
    slog,
    span,
    trace_events,
    tracing_enabled,
)
from repro.obs.trace import TraceRecorder, carry


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with the global recorder detached."""
    disable_tracing()
    yield
    disable_tracing()


class TestSpans:
    def test_off_by_default_records_nothing(self):
        assert not tracing_enabled()
        with span("noop", cat="test", k=1):
            pass
        assert trace_events() == []

    def test_spans_record_and_nest(self):
        recorder = enable_tracing()
        with span("outer", cat="test"):
            with span("inner", cat="test", k=2):
                pass
        events = {name: (span_id, parent_id)
                  for name, _, _, _, _, span_id, parent_id, _
                  in recorder.snapshot()}
        assert set(events) == {"outer", "inner"}
        inner_parent = events["inner"][1]
        assert inner_parent == events["outer"][0]
        assert events["outer"][1] == 0

    def test_wmc_cnf_span_counts_auxiliaries(self):
        from repro.propositional.counter import wmc_formula
        from repro.propositional.formula import pand, por, pvar

        recorder = enable_tracing()
        a, b, c = (pvar(label) for label in "abc")
        # a | (b & c): the nested conjunction is the one Tseitin variable.
        assert wmc_formula(por(a, pand(b, c)), lambda _label: (1, 1)) == 5
        (args,) = [row[7] for row in recorder.snapshot() if row[0] == "wmc_cnf"]
        assert (args["vars"], args["aux"]) == (4, 1)

    def test_exception_annotates_and_propagates(self):
        recorder = enable_tracing()
        with pytest.raises(ValueError):
            with span("boom", cat="test"):
                raise ValueError("x")
        (name, _, _, _, _, _, _, args), = recorder.snapshot()
        assert name == "boom" and args["error"] == "ValueError"

    def test_carry_propagates_parent_across_threads(self):
        recorder = enable_tracing()
        done = threading.Event()

        def work():
            with span("child", cat="test"):
                pass
            done.set()

        with span("parent", cat="test"):
            t = threading.Thread(target=carry(work))
            t.start()
            done.wait(10)
            t.join(10)
        by_name = {row[0]: row for row in recorder.snapshot()}
        child, parent = by_name["child"], by_name["parent"]
        assert child[6] == parent[5]  # child's parent_id == parent's id
        assert child[4] != parent[4]  # distinct thread ids

    def test_ring_buffer_bounds_and_counts_drops(self):
        recorder = TraceRecorder(capacity=8)
        for i in range(20):
            recorder.record("e{}".format(i), "t", 0, 1, 0, i + 1, 0, {})
        assert len(recorder) == 8
        assert recorder.dropped == 12
        names = [row[0] for row in recorder.snapshot()]
        assert names == ["e{}".format(i) for i in range(12, 20)]

    def test_export_is_valid_chrome_trace_json(self):
        recorder = enable_tracing()
        with span("a", cat="solver", n=3):
            with span("b", cat="engine"):
                pass
        buf = io.StringIO()
        count = export_trace(buf, recorder=disable_tracing())
        doc = json.loads(buf.getvalue())
        assert doc["displayTimeUnit"] == "ms"
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert count == len(xs) + len(metas) and len(xs) == 2
        for event in xs:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert {"span_id", "parent_id"} <= set(event["args"])
        assert any(e["name"] == "process_name" for e in metas)

    def test_enable_is_idempotent_disable_detaches(self):
        first = enable_tracing()
        assert enable_tracing() is first
        assert disable_tracing() is first
        assert disable_tracing() is None
        assert not tracing_enabled()


class TestHistogram:
    def test_quantiles_ordered_and_clamped(self):
        hist = Histogram()
        for ms in (1, 2, 3, 5, 8, 13, 100, 2000):
            hist.record(ms / 1000.0)
        snap = hist.snapshot()
        assert snap["count"] == 8
        assert snap["min"] == pytest.approx(0.001)
        assert snap["max"] == pytest.approx(2.0)
        assert snap["min"] <= snap["p50"] <= snap["p95"] <= snap["p99"] \
            <= snap["max"]
        assert snap["sum"] == pytest.approx(2.132)

    def test_empty_and_single_observation(self):
        hist = Histogram()
        empty = hist.snapshot()
        assert empty["count"] == 0 and empty["p50"] is None
        hist.record(0.25)
        snap = hist.snapshot(buckets=True)
        assert snap["p50"] == snap["p99"] == pytest.approx(0.25)
        assert sum(c for _, c in snap["buckets"]) == 1

    def test_negative_and_submicro_clamp_to_first_bucket(self):
        hist = Histogram()
        hist.record(-1.0)
        hist.record(1e-9)
        snap = hist.snapshot(buckets=True)
        assert snap["count"] == 2 and len(snap["buckets"]) == 1
        assert snap["buckets"][0][0] == pytest.approx(1e-6)

    def test_concurrent_recording_loses_nothing(self):
        hist = Histogram()
        per_thread = 2000

        def work():
            for _ in range(per_thread):
                hist.record(0.001)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        snap = hist.snapshot()
        assert snap["count"] == 8 * per_thread
        assert snap["sum"] == pytest.approx(8 * per_thread * 0.001)


class TestSlog:
    def test_json_lines_with_fields(self):
        stream = io.StringIO()
        handler = configure_logging(stream=stream)
        try:
            slog(get_logger("test"), logging.INFO, "request",
                 id="abc", status=200, ms=1.5)
        finally:
            get_logger().removeHandler(handler)
        record = json.loads(stream.getvalue())
        assert record["event"] == "request"
        assert record["logger"] == "repro.test"
        assert (record["id"], record["status"], record["ms"]) \
            == ("abc", 200, 1.5)
        assert record["level"] == "info"

    def test_configure_is_idempotent(self):
        stream = io.StringIO()
        configure_logging(stream=stream)
        handler = configure_logging(stream=stream)
        root = get_logger()
        try:
            managed = [h for h in root.handlers
                       if getattr(h, "_repro_slog_handler", False)]
            assert len(managed) == 1
        finally:
            root.removeHandler(handler)

    def test_exception_fields(self):
        formatter = JsonFormatter()
        try:
            raise KeyError("missing")
        except KeyError:
            import sys

            record = logging.LogRecord("repro", logging.ERROR, __file__, 1,
                                       "fail", None, sys.exc_info())
        doc = json.loads(formatter.format(record))
        assert doc["exc_type"] == "KeyError" and "missing" in doc["exc"]

    def test_request_ids_are_distinct_hex(self):
        ids = {new_request_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)


class TestEngineStatsConsistency:
    """Regression: ``engine_stats`` vs a concurrent ``reset_engine``."""

    def test_reset_vs_concurrent_read_never_tears(self):
        from repro import wfomc, parse
        from repro.propositional.counter import engine_stats, reset_engine

        # Populate the shared caches so a torn read has something to tear.
        wfomc(parse("forall x, y. (R(x) | S(x, y))"), 3)
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                stats = engine_stats()
                # Under the stats lock a reset is atomic: a snapshot
                # taken mid-reset must never mix cleared counters with
                # surviving cache sizes.
                cleared = stats["decisions"] == 0 \
                    and stats["cache_hits"] == 0
                if cleared and stats["cache_entries"] > 0:
                    torn.append(dict(stats))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            from repro.logic import parse as _parse
            from repro import wfomc as _wfomc

            for round_no in range(25):
                _wfomc(_parse("forall x, y. (R(x) | S(x, y))"),
                       3 + round_no % 2)
                reset_engine()
        finally:
            stop.set()
            for t in threads:
                t.join(30)
        assert torn == []

    def test_reset_clears_every_reported_counter(self):
        from repro import wfomc, parse
        from repro.propositional.counter import engine_stats, reset_engine

        wfomc(parse("forall x, y. (R(x) | S(x, y))"), 3)
        reset_engine()
        stats = engine_stats()
        assert stats["cache_entries"] == 0
        assert stats["key_entries"] == 0
        assert stats["cnf_cache"]["entries"] == 0


class TestCLITracing:
    def test_repro_trace_emits_layered_chrome_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        code = main([
            "trace", "-o", str(out), "sweep",
            "forall x, y. (R(x) | S(x, y))", "3",
            "--vary", "R", "--values", "1/2,1,2",
            "--compile", "--method", "lineage",
            "--persist", "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        cats = {e["cat"] for e in xs}
        # The acceptance criterion: the span tree covers the solver,
        # compile, engine, and cache layers of one traced run.
        assert {"solver", "compile", "engine", "cache"} <= cats
        ids = {e["args"]["span_id"] for e in xs}
        for event in xs:
            parent = event["args"]["parent_id"]
            assert parent == 0 or parent in ids
        assert not tracing_enabled()

    def test_trace_flag_on_counting_command(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "flag.json"
        assert main(["count", "forall x. exists y. R(x, y)", "3",
                     "--trace", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert any(e["cat"] == "solver" for e in doc["traceEvents"]
                   if e["ph"] == "X")
        assert not tracing_enabled()

    def test_trace_without_command_is_input_error(self):
        from repro.cli import main

        assert main(["trace"]) == 3

    def test_stats_json_document(self, capsys):
        from repro.cli import main

        assert main(["stats", "forall x, y. (R(x) | S(x, y))", "3",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"result", "engine", "solver_caches", "compile"} <= set(doc)
        assert doc["result"].isdigit()
        assert "decisions" in doc["engine"]

    def test_cache_stats_json(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        assert main(["count", "forall x, y. (R(x) | S(x, y))", "3",
                     "--persist", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir,
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "entries" in doc and "cumulative" in doc
        # And the no-store-file shape is JSON too.
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path / "empty"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"] == 0 and doc["exists"] is False
