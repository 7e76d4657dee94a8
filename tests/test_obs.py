"""Observability layer: sinks, metrics, runtime flags, tracer, reports."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.obs.metrics import (
    Counter,
    CounterGroup,
    Histogram,
    MetricsRegistry,
)
from repro.obs.runtime import (
    current_tracer,
    refresh_from_env,
    set_tracer,
    trace_to,
    tracing_enabled,
)
from repro.obs.sinks import (
    CallbackSink,
    JsonlSink,
    NullSink,
    RingBufferSink,
    resolve_sink,
)
from repro.obs.trace import Tracer
from repro.visual.executors import close_render_pools
from repro.visual.request import RenderOptions, RenderRequest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def trace_env(monkeypatch):
    """Set REPRO_TRACE/REPRO_TRACE_OUT for a test, restoring after."""

    def apply(value=None, out=None):
        if value is None:
            monkeypatch.delenv("REPRO_TRACE", raising=False)
        else:
            monkeypatch.setenv("REPRO_TRACE", value)
        if out is None:
            monkeypatch.delenv("REPRO_TRACE_OUT", raising=False)
        else:
            monkeypatch.setenv("REPRO_TRACE_OUT", str(out))
        return refresh_from_env()

    yield apply
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_TRACE_OUT", raising=False)
    refresh_from_env()


def small_points(n=400, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 2))


class TestSinks:
    def test_ring_buffer_bounded(self):
        sink = RingBufferSink(capacity=4)
        for i in range(10):
            sink.emit({"event": "x", "i": i})
        events = sink.events()
        assert len(events) == 4
        assert [e["i"] for e in events] == [6, 7, 8, 9]

    def test_ring_buffer_drain(self):
        sink = RingBufferSink()
        sink.emit({"event": "x"})
        assert len(sink.drain()) == 1
        assert len(sink) == 0

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"event": "a", "value": 1})
            sink.emit({"event": "b", "value": 2.5})
        lines = path.read_text().strip().splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["a", "b"]

    def test_callback_sink(self):
        seen = []
        sink = CallbackSink(seen.append)
        sink.emit({"event": "cb"})
        assert seen == [{"event": "cb"}]

    def test_null_sink_swallows(self):
        NullSink().emit({"event": "x"})

    def test_resolve_sink(self, tmp_path):
        assert resolve_sink(None) is None
        sink = RingBufferSink()
        assert resolve_sink(sink) is sink
        assert isinstance(resolve_sink(lambda e: None), CallbackSink)
        resolved = resolve_sink(tmp_path / "t.jsonl")
        assert isinstance(resolved, JsonlSink)
        resolved.close()


class TestMetrics:
    def test_counter(self):
        counter = Counter("hits")
        counter.add(3)
        counter.merge(Counter("hits", 4))
        assert counter.value == 7

    def test_histogram_observe_and_percentile(self):
        hist = Histogram("depth", bounds=(1, 2, 4, 8))
        for value in (0, 1, 3, 3, 7, 100):
            hist.observe(value)
        assert hist.count == 6
        assert hist.percentile(0.5) <= 4
        assert hist.mean == pytest.approx((0 + 1 + 3 + 3 + 7 + 100) / 6)

    def test_histogram_observe_array_matches_scalar(self):
        values = np.array([0.0, 1.0, 2.5, 9.0, 100.0, 7.0, 7.0])
        scalar = Histogram("a", bounds=(1, 4, 16))
        vector = Histogram("a", bounds=(1, 4, 16))
        for value in values:
            scalar.observe(float(value))
        vector.observe_array(values)
        assert scalar.counts == vector.counts
        assert scalar.count == vector.count
        assert scalar.total == pytest.approx(vector.total)

    def test_histogram_merge_requires_same_bounds(self):
        a = Histogram("x", bounds=(1, 2))
        b = Histogram("x", bounds=(1, 3))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_registry_merge_and_absorb(self):
        first = MetricsRegistry()
        first.counter("a").add(1)
        first.histogram("h").observe(2)
        second = MetricsRegistry()
        second.counter("a").add(2)
        second.histogram("h").observe(4)
        first.merge(second)
        snapshot = first.as_dict()
        assert snapshot["counters"]["a"] == 3
        assert snapshot["histograms"]["h"]["count"] == 2

    def test_counter_group_merge_and_reset(self):
        class Stats(CounterGroup):
            a: int
            b: int

            __slots__ = ("a", "b")
            _fields = __slots__

        left = Stats()
        left.a += 2
        right = Stats()
        right.a += 1
        right.b += 5
        left.merge(right)
        assert left.as_dict() == {"a": 3, "b": 5}
        left.reset()
        assert left.as_dict() == {"a": 0, "b": 0}


class TestRuntime:
    def test_off_by_default(self, trace_env):
        trace_env(None)
        assert current_tracer() is None
        assert not tracing_enabled()

    def test_env_enables_summary_tracer(self, trace_env):
        trace_env("1")
        tracer = current_tracer()
        assert tracer is not None
        assert tracer.steps is False
        assert current_tracer() is tracer  # cached

    def test_env_steps_level(self, trace_env):
        trace_env("steps")
        tracer = current_tracer()
        assert tracer is not None and tracer.steps is True

    def test_env_out_writes_jsonl(self, trace_env, tmp_path):
        out = tmp_path / "ambient.jsonl"
        trace_env("1", out=out)
        tracer = current_tracer()
        tracer.emit("snapshot", pixels=1)
        tracer.sink.close()
        assert out.exists()

    def test_set_tracer_none_masks_env(self, trace_env):
        trace_env("1")
        set_tracer(None)
        assert current_tracer() is None
        refresh_from_env()
        assert current_tracer() is not None

    def test_trace_to_restores_previous(self, trace_env):
        trace_env(None)
        with trace_to() as tracer:
            assert current_tracer() is tracer
            with trace_to() as inner:
                assert current_tracer() is inner
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_trace_to_path_closes_sink(self, tmp_path, trace_env):
        trace_env(None)
        path = tmp_path / "scoped.jsonl"
        with trace_to(path) as tracer:
            tracer.emit("snapshot", pixels=1)
        data = path.read_text()
        assert "snapshot" in data


class TestTracer:
    def test_query_event_and_counters(self):
        tracer = Tracer()
        with tracer.method_scope("quad"):
            tracer.query(
                engine="scalar",
                op="eps",
                bound="B",
                rule="eps-relative",
                iterations=3,
                node_evaluations=4,
                leaf_evaluations=1,
                point_evaluations=32,
                root_gap=1.0,
                lb=0.9,
                ub=1.0,
            )
        (event,) = tracer.events()
        assert event["method"] == "quad"
        assert event["rule"] == "eps-relative"
        counters = tracer.summary()["counters"]
        assert counters["rules.eps-relative"] == 1
        assert counters["engine.scalar_queries"] == 1

    def test_batch_query_event(self):
        tracer = Tracer()
        tracer.batch_query(
            engine="batch",
            op="tau",
            bound="B",
            rows=4,
            pops=7,
            depths=np.array([1.0, 2.0, 2.0, 3.0]),
            rules={"tau-hot": 3, "tau-cold": 1},
            root_gap_mean=1.0,
            final_gap_mean=0.25,
        )
        (event,) = tracer.events()
        assert event["rows"] == 4
        assert event["depth_mean"] == pytest.approx(2.0)
        assert tracer.summary()["counters"]["engine.batch_queries"] == 4

    def test_render_utilisation(self):
        tracer = Tracer()
        tracer.render(
            op="eps", pixels=100, tiles=4, workers=2, seconds=1.0, worker_busy=[0.9, 0.7]
        )
        (event,) = tracer.events()
        assert event["utilisation"] == pytest.approx(0.8)


class TestReport:
    def make_events(self):
        tracer = Tracer(steps=True)
        with tracer.method_scope("quad"):
            tracer.query(
                engine="scalar",
                op="eps",
                bound="B",
                rule="eps-relative",
                iterations=5,
                node_evaluations=6,
                leaf_evaluations=2,
                point_evaluations=64,
                root_gap=1.0,
                lb=0.99,
                ub=1.0,
            )
            tracer.batch_query(
                engine="batch",
                op="eps",
                bound="B",
                rows=10,
                pops=12,
                depths=np.full(10, 3.0),
                rules={"eps-relative": 10},
                root_gap_mean=2.0,
                final_gap_mean=0.5,
            )
            tracer.tile(index=0, rows=10, seconds=0.25, worker=1, op="eps")
            tracer.render(op="eps", pixels=10, tiles=1, workers=1, seconds=0.3)
        return tracer.events()

    def test_summarize_events(self):
        from repro.obs.report import summarize_events

        summary = summarize_events(self.make_events())
        assert summary["events"] == 4
        scalar = summary["queries"]["quad/scalar/eps"]
        assert scalar["pixels"] == 1
        assert scalar["depth_mean"] == pytest.approx(5.0)
        batch = summary["queries"]["quad/batch/eps"]
        assert batch["pixels"] == 10
        assert batch["depth_p50"] == pytest.approx(3.0)
        assert batch["gap_reduction"] == pytest.approx(4.0)
        assert summary["tiles"]["count"] == 1
        assert len(summary["renders"]) == 1

    def test_batch_only_summary_is_strict_json(self):
        """A batch-only trace must summarise to finite numbers.

        Regression: with no scalar ``query`` events the group had no
        per-pixel depths and emitted ``depth_p50 = NaN``, which
        ``json.dumps`` renders as a literal ``NaN`` — invalid JSON in
        ``BENCH_engine.json`` and any ``--trace-out`` summary.
        """
        import json

        from repro.obs.report import summarize_events

        events = [e for e in self.make_events() if e["event"] != "query"]
        summary = summarize_events(events)
        batch = summary["queries"]["quad/batch/eps"]
        assert batch["depth_p50"] == pytest.approx(3.0)
        json.dumps(summary, allow_nan=False)

    def test_format_summary_tables(self):
        from repro.obs.report import format_summary, summarize_events

        text = format_summary(summarize_events(self.make_events()))
        assert "refinement depth and bound tightness" in text
        assert "quad" in text
        assert "eps-relative" in text

    def test_read_jsonl_rejects_bad_line(self, tmp_path):
        from repro.obs.report import read_jsonl

        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "a"}\nnot-json\n')
        with pytest.raises(ValueError, match="invalid JSON"):
            read_jsonl(path)


class TestEngineIntegration:
    def test_scalar_query_traced(self, trace_env):
        trace_env(None)
        from repro.methods.registry import create_method

        method = create_method("quad", leaf_size=32).fit(small_points())
        with trace_to(steps=True) as tracer:
            method.query_eps(np.zeros(2), 1e-9)
            method.query_tau(np.zeros(2), 1e-12)
        events = tracer.events()
        queries = [e for e in events if e["event"] == "query"]
        assert [q["op"] for q in queries] == ["eps", "tau"]
        assert all(q["method"] == "quad" for q in queries)
        assert queries[0]["rule"] in ("eps-relative", "eps-atol", "exhausted")
        assert queries[1]["rule"] in ("tau-hot", "tau-cold", "exhausted")
        assert any(e["event"] == "step" for e in events)

    def test_batch_query_traced(self, trace_env):
        trace_env(None)
        from repro.methods.registry import create_method

        points = small_points()
        method = create_method("quad", leaf_size=32, engine="batch").fit(points)
        with trace_to(steps=True) as tracer:
            method.batch_eps(points[:20], 1e-9)
            method.batch_tau(points[:20], 1e-12)
        events = tracer.events()
        batches = [e for e in events if e["event"] == "batch_query"]
        assert [b["op"] for b in batches] == ["eps", "tau"]
        assert batches[0]["rows"] == 20
        assert sum(batches[0]["rules"].values()) == 20
        assert any(e["event"] == "batch_step" for e in events)

    def test_untraced_results_identical(self, trace_env):
        trace_env(None)
        from repro.methods.registry import create_method

        points = small_points()
        plain = create_method("quad", leaf_size=32, engine="batch").fit(points)
        baseline = plain.batch_eps(points[:10], 0.01)
        traced = create_method("quad", leaf_size=32, engine="batch").fit(points)
        with trace_to():
            shadowed = traced.batch_eps(points[:10], 0.01)
        np.testing.assert_array_equal(baseline, shadowed)


class TestRendererIntegration:
    def test_render_trace_param_writes_jsonl(self, tmp_path, trace_env):
        trace_env(None)
        from repro.obs.report import summarize_jsonl
        from repro.visual.kdv import KDVRenderer

        path = tmp_path / "render.jsonl"
        renderer = KDVRenderer(small_points(), resolution=(12, 10), leaf_size=64)
        renderer.render(
            RenderRequest.for_eps(
                0.05, "quad", options=RenderOptions(tile_size=8, trace=path)
            )
        )
        summary = summarize_jsonl(path)
        assert summary["tiles"]["count"] > 0
        assert "quad/batch/eps" in summary["queries"]
        assert summary["renders"][0]["op"] == "eps"

    def test_worker_render_records_busy(self, trace_env):
        trace_env(None)
        from repro.visual.kdv import KDVRenderer

        renderer = KDVRenderer(small_points(), resolution=(12, 10), leaf_size=64)
        options = RenderOptions(tile_size=8, workers=2)
        try:
            with trace_to() as tracer:
                renderer.render(RenderRequest.for_tau(1e-9, "quad", options=options))
        finally:
            close_render_pools()
        renders = [e for e in tracer.events() if e["event"] == "render"]
        assert renders and renders[0]["workers"] == 2
        # One entry per pool worker, 0.0 for one that ran no tile.
        assert len(renders[0]["worker_busy"]) == 2
        assert all(busy >= 0.0 for busy in renders[0]["worker_busy"])

    def test_progressive_snapshot_events(self, trace_env):
        trace_env(None)
        from repro.visual.progressive import ProgressiveRenderer

        progressive = ProgressiveRenderer(
            small_points(), resolution=(6, 5), method="quad", eps=0.1
        )
        with trace_to() as tracer:
            progressive.run(snapshot_pixels=[4, 8])
        events = tracer.events()
        snapshots = [e for e in events if e["event"] == "snapshot"]
        assert [s["label"] for s in snapshots] == [4, 8]
        assert events[-1]["event"] == "render"
        assert events[-1]["op"] == "progressive"


class TestExperimentIntegration:
    def test_trace_metadata_off(self, trace_env):
        trace_env(None)
        from repro.experiments.common import trace_metadata

        assert trace_metadata() is None

    def test_trace_metadata_attached(self, trace_env):
        trace_env(None)
        from repro.experiments.runner import run_experiment

        with trace_to():
            result = run_experiment("ablation_tightness", scale="smoke")
        assert "trace" in result.metadata
        assert "counters" in result.metadata["trace"]


class TestTools:
    def test_trace_report_cli(self, tmp_path, trace_env):
        trace_env(None)
        from repro.visual.kdv import KDVRenderer

        path = tmp_path / "cli.jsonl"
        renderer = KDVRenderer(small_points(), resolution=(10, 8), leaf_size=64)
        renderer.render(
            RenderRequest.for_eps(
                0.05, "quad", options=RenderOptions(tile_size=8, trace=path)
            )
        )
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "trace_report.py"), str(path)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "refinement depth and bound tightness" in proc.stdout

    def test_trace_report_missing_file(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "trace_report.py"),
                str(tmp_path / "absent.jsonl"),
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 2
