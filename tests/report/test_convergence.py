"""Unit tests for convergence tracking and the step chart."""

import xml.etree.ElementTree as ET

import pytest

from repro.schedule import ResourceModel
from repro.report.convergence import (
    ConvergenceCurve,
    RecordingTracker,
    convergence_svg,
    heuristic_sweep,
    phase_size_sweep,
)
from repro.core import RotationState
from repro.suite import diffeq


class TestRecordingTracker:
    def test_history_grows_per_offer(self):
        st = RotationState.initial(diffeq(), ResourceModel.unit_time(1, 1))
        tracker = RecordingTracker()
        tracker.offer(st)
        tracker.offer(st.down_rotate(1))
        assert tracker.history == [8, 7]

    def test_history_is_monotone_nonincreasing(self):
        st = RotationState.initial(diffeq(), ResourceModel.unit_time(1, 1))
        tracker = RecordingTracker()
        tracker.offer(st)
        for _ in range(6):
            st = st.down_rotate(1)
            tracker.offer(st)
        assert all(a >= b for a, b in zip(tracker.history, tracker.history[1:]))


class TestSweeps:
    def test_phase_size_sweep(self):
        curves = phase_size_sweep(
            diffeq(), ResourceModel.unit_time(1, 1), sizes=[1, 2, 3], beta=12
        )
        assert [c.label for c in curves] == ["size 1", "size 2", "size 3"]
        assert all(c.final == 6 for c in curves)  # all sizes converge here

    def test_rotations_to_target(self):
        curves = phase_size_sweep(
            diffeq(), ResourceModel.unit_time(1, 1), sizes=[1], beta=12
        )
        steps = curves[0].rotations_to(6)
        assert steps is not None and steps >= 2  # two rotations needed
        assert curves[0].rotations_to(5) is None  # below the optimum

    def test_heuristic_sweep(self):
        curves = heuristic_sweep(diffeq(), ResourceModel.unit_time(1, 1), beta=8)
        labels = {c.label for c in curves}
        assert labels == {"H1", "H2"}
        assert all(c.final == 6 for c in curves)


def _literal_sweep(graph, model, beta=None, priority="descendants"):
    """The sweep's former copy of both heuristic loops, kept verbatim as
    the reference: a fresh engine per re-seed, no shared memos."""
    from repro.core.phases import rotation_phase

    curves = []
    for name in ("h1", "h2"):
        tracker = RecordingTracker()
        initial = RotationState.initial(graph, model, priority)
        tracker.offer(initial)
        b = beta if beta is not None else max(8, 2 * graph.num_nodes)
        sigma = max(1, initial.length - 1)
        if name == "h1":
            for size in range(1, sigma + 1):
                rotation_phase(initial, size, b, tracker)
        else:
            state = initial
            for size in range(sigma, 0, -1):
                state = rotation_phase(state, size, b, tracker)
                state = RotationState.initial(graph, model, priority, retiming=state.retiming)
                tracker.offer(state)
        curves.append(ConvergenceCurve(name.upper(), tuple(tracker.history)))
    return curves


class TestSweepIsTheScheduler:
    """heuristic_sweep runs HEURISTICS itself: same curves as the old
    copied loops, one engine per heuristic."""

    @pytest.mark.parametrize("bench", ["diffeq", "biquad", "allpole", "elliptic", "lattice"])
    def test_curves_equal_the_literal_loops(self, bench):
        from repro.suite import get_benchmark

        graph = get_benchmark(bench)
        model = ResourceModel.adders_mults(2, 1)
        assert heuristic_sweep(graph, model) == _literal_sweep(graph, model)

    def test_one_engine_per_heuristic(self, monkeypatch):
        from repro.core.flat.engine import FlatEngine

        built = []
        init = FlatEngine.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FlatEngine, "__init__", counting)
        heuristic_sweep(diffeq(), ResourceModel.adders_mults(2, 1))
        assert len(built) == 2


def _fresh_engine_sizes(graph, model, sizes, beta=40):
    """The size sweep's former loop, kept as the reference: a fresh
    initial state (and engine) per size."""
    from repro.core.phases import rotation_phase

    curves = []
    for size in sizes:
        initial = RotationState.initial(graph, model)
        tracker = RecordingTracker()
        tracker.offer(initial)
        rotation_phase(initial, size, beta, tracker)
        curves.append(ConvergenceCurve(f"size {size}", tuple(tracker.history)))
    return curves


class TestSizeSweepSharesOneEngine:
    def test_one_engine_for_all_sizes(self, monkeypatch):
        from repro.core.flat.engine import FlatEngine

        built = []
        init = FlatEngine.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FlatEngine, "__init__", counting)
        phase_size_sweep(diffeq(), ResourceModel.adders_mults(2, 1), sizes=[1, 2, 3, 4])
        assert len(built) == 1

    @pytest.mark.parametrize("bench", ["diffeq", "biquad", "elliptic"])
    def test_curves_equal_fresh_engines(self, bench):
        from repro.suite import get_benchmark

        graph = get_benchmark(bench)
        model = ResourceModel.adders_mults(2, 1)
        sizes = [1, 2, 3, 4]
        assert phase_size_sweep(graph, model, sizes) == _fresh_engine_sizes(graph, model, sizes)


class TestSvgChart:
    def test_well_formed(self):
        curves = [ConvergenceCurve("demo", (8, 7, 7, 6))]
        svg = convergence_svg(curves, title="demo run")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "polyline" in svg
        assert "demo run" in svg

    def test_legend_shows_final_values(self):
        svg = convergence_svg([ConvergenceCurve("size 2", (8, 6))])
        assert "size 2 (-&gt; 6)" in svg or "size 2 (-> 6)" in svg

    def test_multiple_series_colored(self):
        svg = convergence_svg(
            [ConvergenceCurve("a", (8, 7)), ConvergenceCurve("b", (8, 6))]
        )
        assert svg.count("<polyline") == 2
        assert "#4e79a7" in svg and "#f28e2b" in svg
