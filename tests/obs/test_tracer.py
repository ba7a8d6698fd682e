"""Unit tests for repro.obs.tracer: spans, activation, overhead."""

import asyncio
import pickle
import time

import pytest

from repro.core.scheduler import rotation_schedule
from repro.obs import (
    NULL, NullTracer, Trace, Tracer, activate, current, deactivate, tracing, validate_trace,
)
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

    def test_annotate_sets_attributes_of_the_innermost_open_span(self):
        tr = Tracer()
        with tr.span("outer", k=1):
            with tr.span("inner"):
                pass
            tr.annotate(warm="seeded")
        assert [ev.attrs for ev in tr.events] == [{"k": 1, "warm": "seeded"}, {}]
        with pytest.raises(IndexError):
            tr.annotate(late=True)

    def test_concurrent_tasks_keep_their_own_parents(self):
        tr = Tracer()

        async def request(name):
            with tr.span(name):
                await asyncio.sleep(0)
                with tr.span(name + ".inner"):
                    await asyncio.sleep(0)

        async def main():
            await asyncio.gather(request("a"), request("b"))

        asyncio.run(main())
        assert tr.open_spans == 0
        by_name = {e.name: e for e in tr.events}
        assert by_name["a"].parent == by_name["b"].parent == -1
        assert by_name["a.inner"].parent == by_name["a"].index
        assert by_name["b.inner"].parent == by_name["b"].index

    def test_two_tracers_never_cross_link(self):
        outer, inner = Tracer(), Tracer()
        outer.begin("o1")
        inner.begin("i1")
        outer.begin("o2")
        outer.end()  # closes o2
        outer.end()  # closes o1, under inner's open i1
        inner.begin("i2")
        inner.end()
        inner.end()
        assert outer.open_spans == inner.open_spans == 0
        assert [(e.name, e.parent, e.depth) for e in outer.events] == [("o1", -1, 0), ("o2", 0, 1)]
        assert [(e.name, e.parent, e.depth) for e in inner.events] == [("i1", -1, 0), ("i2", 0, 1)]

    def test_graft_renumbers_and_rebases_under_the_open_span(self):
        ticks = iter(range(10, 1000, 10))
        clock = lambda: next(ticks)  # noqa: E731 - one clock shared by both tracers
        parent, child = Tracer(clock=clock), Tracer(clock=clock)
        parent.begin("root")  # 10
        with parent.span("before"):  # 20..30
            pass
        with child.span("lane", bench="x"):  # 40..70
            with child.span("solve"):  # 50..60
                pass
        with child.span("lane"):  # 80..90
            pass
        parent.graft(child)
        parent.end()  # 100
        got = [(e.index, e.name, e.parent, e.depth, e.t0_ns, e.dur_ns) for e in parent.events]
        assert got == [
            (0, "root", -1, 0, 0, 90),
            (1, "before", 0, 1, 10, 10),
            (2, "lane", 0, 1, 30, 30),
            (3, "solve", 2, 2, 40, 10),
            (4, "lane", 0, 1, 70, 10),
        ]
        assert parent.events[2].attrs == {"bench": "x"}
        assert validate_trace(Trace.from_tracer(parent)) == []

    def test_graft_without_an_open_span_adds_roots(self):
        parent, child = Tracer(), Tracer()
        parent.graft(child)  # nothing recorded: a no-op
        assert parent.events == []
        with child.span("a"):
            with child.span("b"):
                pass
        parent.graft(child)
        parent.graft(child)
        assert [(e.index, e.parent, e.depth) for e in parent.events] == [
            (0, -1, 0), (1, 0, 1), (2, -1, 0), (3, 2, 1),
        ]

    def test_pickled_spans_keep_every_field_and_graft_alike(self):
        """A span pickles as its constructor args; a lane tracer sent back
        through pickle grafts to the same tree as the original."""
        lane = Tracer()
        with lane.span("lane", bench="x"):
            with lane.span("solve", cells=2):
                pass
        lane.begin("open")  # still open: dur_ns stays -1
        clone = pickle.loads(pickle.dumps(lane))
        fields = lambda ev: (  # noqa: E731
            ev.index, ev.parent, ev.depth, ev.name, ev.t0_ns, ev.dur_ns, ev.attrs,
        )
        assert [fields(e) for e in clone.events] == [fields(e) for e in lane.events]
        assert clone.events[-1].dur_ns == -1
        lane.end()

        def grafted(child):
            parent = Tracer()
            with parent.span("explore"):
                parent.graft(child)
            return parent.shape()

        sent = pickle.loads(pickle.dumps(lane))
        assert grafted(sent) == grafted(lane)

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
        nt.annotate(b=2)
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
