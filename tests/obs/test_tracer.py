"""Unit tests for repro.obs.tracer: spans, activation, overhead."""

import time

import pytest

from repro.core.scheduler import rotation_schedule
from repro.obs import NULL, NullTracer, Tracer, activate, current, deactivate, tracing
from repro.obs import tracer as tracer_mod
from repro.qa.runner import config_model
from repro.suite import get_benchmark


class TestTracer:
    def test_nesting_and_fields(self):
        tr = Tracer()
        tr.begin("outer", k=1)
        tr.begin("inner")
        tr.end()
        tr.end()
        assert tr.open_spans == 0
        outer, inner = tr.events[0], tr.events[1]
        assert outer.name == "outer" and outer.parent == -1 and outer.depth == 0
        assert inner.name == "inner" and inner.parent == 0 and inner.depth == 1
        assert outer.attrs == {"k": 1}
        assert inner.dur_ns >= 0 and outer.dur_ns >= inner.dur_ns

    def test_span_context_manager(self):
        tr = Tracer()
        with tr.span("a", n=2):
            with tr.span("b"):
                pass
        assert [e.name for e in tr.events] == ["a", "b"]
        assert tr.events[1].parent == 0

    def test_span_closes_on_exception(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("boom"):
                raise ValueError("x")
        assert tr.open_spans == 0
        assert tr.events[0].dur_ns >= 0

    def test_end_without_begin_raises(self):
        tr = Tracer()
        with pytest.raises(Exception):
            tr.end()

    def test_t0_offsets_relative_to_first_span(self):
        tr = Tracer()
        tr.begin("first")
        tr.end()
        tr.begin("second")
        tr.end()
        assert tr.events[0].t0_ns == 0
        assert tr.events[1].t0_ns >= tr.events[0].dur_ns

    def test_shape_is_timing_free(self):
        def run():
            tr = Tracer()
            with tr.span("a", n=1):
                time.sleep(0.001)
                with tr.span("b"):
                    pass
            return tr.shape()

        assert run() == run()


class TestNullTracer:
    def test_is_disabled_noop(self):
        nt = NullTracer()
        assert nt.enabled is False
        nt.begin("x", a=1)
        nt.end()
        with nt.span("y"):
            pass
        assert nt.open_spans == 0

    def test_null_span_is_shared_singleton(self):
        assert NULL.span("a") is NULL.span("b")


class TestActivation:
    def test_default_is_null(self):
        assert current() is NULL
        assert tracer_mod.active is NULL

    def test_activate_deactivate(self):
        tr = Tracer()
        assert activate(tr) is tr
        try:
            assert current() is tr
        finally:
            deactivate()
        assert current() is NULL

    def test_tracing_context_restores_previous(self):
        with tracing(meta={"k": "v"}) as tr:
            assert current() is tr
            assert tr.meta == {"k": "v"}
        assert current() is NULL

    def test_tracing_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with tracing():
                raise RuntimeError("x")
        assert current() is NULL


class TestTracedRuns:
    @pytest.mark.parametrize("backend", ["flat", "naive"])
    def test_traced_run_bit_identical_to_untraced(self, backend):
        graph = get_benchmark("biquad")
        model = config_model("2A2M")
        plain = rotation_schedule(graph, model, heuristic="h2", backend=backend)
        with tracing() as tr:
            traced = rotation_schedule(graph, model, heuristic="h2", backend=backend)
        assert tr.events, "tracer captured no spans"
        assert tr.open_spans == 0
        assert traced.length == plain.length
        assert traced.schedule.start_map == plain.schedule.start_map
        assert traced.retiming == plain.retiming
        assert traced.rotations_performed == plain.rotations_performed

    def test_trace_shape_deterministic_across_runs(self):
        graph = get_benchmark("diffeq")
        model = config_model("2A2M")

        def shape():
            with tracing() as tr:
                rotation_schedule(graph, model, heuristic="h1", backend="flat")
            return tr.shape()

        assert shape() == shape()

    def test_expected_span_names_present(self):
        graph = get_benchmark("biquad")
        model = config_model("2A2M")
        with tracing() as tr:
            rotation_schedule(graph, model, heuristic="h2", backend="flat")
        names = {e.name for e in tr.events}
        for expected in (
            "solve",
            "phase",
            "schedule.initial",
            "rotate.down",
            "flat.build",
            "flat.derive",
            "kernel.list_schedule",
            "kernel.wrap_period",
        ):
            assert expected in names, f"missing span {expected!r}"


class TestDisabledOverhead:
    def test_disabled_tracer_overhead_small(self):
        """With tracing off, a guarded site costs ~an attribute load.

        Micro-benchmark the guard pattern itself rather than a full solve
        (which would be dominated by scheduling noise): the guarded loop
        must stay within 3x of the bare loop — generous, but catches an
        accidentally-enabled tracer or allocation on the disabled path.
        """
        active = tracer_mod.active
        assert active.enabled is False

        n = 200_000

        def bare():
            acc = 0
            for i in range(n):
                acc += i
            return acc

        def guarded():
            acc = 0
            for i in range(n):
                tr = tracer_mod.active
                if tr.enabled:
                    tr.begin("x")
                acc += i
                if tr.enabled:
                    tr.end()
            return acc

        def best_of(fn, repeats=5):
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - t0)
            return best

        bare_s = best_of(bare)
        guarded_s = best_of(guarded)
        assert guarded_s < bare_s * 3.0, (
            f"disabled-tracer guard too slow: {guarded_s:.4f}s vs bare {bare_s:.4f}s"
        )
