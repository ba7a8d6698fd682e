"""Unit tests for repro.obs.metrics: registry, schema, engine adapter."""

from repro.core.scheduler import rotation_schedule
from repro.obs import METRICS_SCHEMA, MetricsRegistry, engine_metrics, render_metrics
from repro.qa.runner import config_model
from repro.suite import get_benchmark


class TestMetricsRegistry:
    def test_counters_and_extras(self):
        reg = MetricsRegistry("test.source", mode="unit")
        reg.inc("a")
        reg.inc("a", 2)
        reg.set_counter("b", 7)
        reg.inc_extra("x", 4)
        reg.set_extra("y", 0)
        snap = reg.as_dict()
        assert snap["schema"] == METRICS_SCHEMA
        assert snap["source"] == "test.source"
        assert snap["mode"] == "unit"
        assert snap["counters"] == {"a": 3, "b": 7}
        assert snap["extras"] == {"x": 4, "y": 0}

    def test_gauges(self):
        reg = MetricsRegistry("g")
        reg.gauge("ratio", 0.5)
        reg.gauge("ratio", 0.75)
        assert reg.as_dict()["gauges"] == {"ratio": 0.75}

    def test_timer_accumulates(self):
        reg = MetricsRegistry("t")
        with reg.timer("cell"):
            pass
        reg.observe("cell", 0.25)
        t = reg.as_dict()["timers"]["cell"]
        assert t["count"] == 2
        assert t["total_s"] >= 0.25
        assert t["min_s"] <= t["max_s"]
        assert t["max_s"] >= 0.25

    def test_merge(self):
        a = MetricsRegistry("a")
        b = MetricsRegistry("b")
        a.inc("n", 1)
        b.inc("n", 2)
        b.observe("w", 0.1)
        a.merge(b)
        snap = a.as_dict()
        assert snap["counters"]["n"] == 3
        assert snap["timers"]["w"]["count"] == 1

    def test_render_metrics_text(self):
        reg = MetricsRegistry("r", backend="flat")
        reg.inc("rotations", 5)
        reg.observe("cell", 0.5)
        text = render_metrics(reg.as_dict())
        assert "rotations" in text and "cell" in text


class TestEngineMetrics:
    def test_engine_snapshot_schema(self):
        graph = get_benchmark("biquad")
        model = config_model("2A2M")
        result = rotation_schedule(graph, model, heuristic="h2", backend="flat")
        snap = result.engine_metrics
        assert snap is not None
        assert snap["schema"] == METRICS_SCHEMA
        assert snap["source"] == "repro.core.flat.engine"
        assert snap["backend"] == "flat"
        assert snap["counters"] == result.engine_stats
        assert snap["counters"]["rotations"] > 0
        # flat-only extras: chain tip, wrap search, transition memos and
        # struct views
        extras = snap["extras"]
        assert set(extras) == {
            "chain_tip_reuses", "wrap_interval_collapses",
            "rotation_memo_hits", "rotation_memo_misses", "wrap_memo_hits",
            "initial_memo_hits", "struct_view_builds", "struct_view_derives",
        }
        # h2 revisits transitions: the memos must answer some of them, and
        # every miss either derives or builds a struct view
        assert extras["rotation_memo_hits"] > 0
        assert extras["wrap_memo_hits"] > 0
        assert extras["rotation_memo_hits"] + extras["rotation_memo_misses"] == (
            snap["counters"]["rotations"]
        )
        assert extras["struct_view_derives"] == snap["counters"]["view_derives"]
        assert extras["struct_view_builds"] == snap["counters"]["view_builds"]

    def test_naive_backend_has_no_metrics(self):
        graph = get_benchmark("diffeq")
        model = config_model("2A2M")
        result = rotation_schedule(graph, model, heuristic="h1", backend="naive")
        assert result.engine_metrics is None

    def test_adapter_shapes_raw_stats(self):
        snap = engine_metrics({"a": 1}, "flat", "src.x", extras={"e": 2})
        assert snap["counters"] == {"a": 1}
        assert snap["extras"] == {"e": 2}
        assert snap["backend"] == "flat"


class TestFuzzRunnerMetrics:
    def test_fuzz_report_carries_metrics(self, tmp_path):
        from repro.qa.runner import run_fuzz, smoke_cases

        cases = smoke_cases()[:4]
        report = run_fuzz(cases, out_dir=str(tmp_path), shrink=False)
        snap = report.metrics
        assert snap is not None
        assert snap["schema"] == METRICS_SCHEMA
        assert snap["source"] == "repro.qa.runner"
        assert snap["counters"]["cells"] == report.cells
        cell = snap["timers"]["cell"]
        assert cell["count"] == report.cells
        assert cell["total_s"] >= 0
