"""Per-benchmark lanes: worker-count invariance (report and spans), lane
purity, dispatch order, and failures that end in an ExploreError with no
worker left."""

import multiprocessing
import os

import pytest

from repro.explore import CellSolver, CellSpec, build_grid, explore
from repro.explore import explorer
from repro.explore.bounds import clear_caches
from repro.explore.space import ExploreError
from repro.obs import Trace, tracing, validate_trace


def three_lane_grid():
    return build_grid(["diffeq", "biquad"], ["1A1M", "2A1M", "2A2M"], clocks=[40, 100]) + (
        build_grid(["diffeq"], ["1A1M", "2A1M"], clocks=[50], unfolds=[2])
        + build_grid(["allpole"], ["2A1M", "2A2M"], clocks=[100])
    )


def _shape(report):
    return {
        "counters": report.counters,
        "outcomes": [(o.spec, o.point, o.length, o.registers, o.source) for o in report.outcomes],
        "pruned": [p.as_json() for p in report.pruned],
        "frontiers": report.frontiers,
    }


def _explore_spans(tracer):
    """The explorer's own spans below the ``explore`` root, without timings."""
    return [(e.name, e.attrs) for e in tracer.events if e.name.startswith("explore.")]


def _traced_explore(grid, workers=1):
    with tracing() as tr:
        report = explore(grid, mode="explore", workers=workers, round_size=4)
    return report, tr


@pytest.fixture(scope="module")
def by_workers():
    """Traced runs: tracing never steers, so the reports are the untraced ones."""
    grid = three_lane_grid()
    reports, tracers = {}, {}
    for workers in (1, 2, 3):
        clear_caches()
        reports[workers], tracers[workers] = _traced_explore(grid, workers)
    return grid, reports, tracers


class TestWorkerCountInvariance:
    def test_workers_do_not_change_the_report(self, by_workers):
        _grid, reports, tracers = by_workers
        assert _shape(reports[2]) == _shape(reports[1])
        assert _shape(reports[3]) == _shape(reports[1])
        assert _explore_spans(tracers[2]) == _explore_spans(tracers[1])
        assert _explore_spans(tracers[3]) == _explore_spans(tracers[1])
        assert reports[1].counters["rounds"] > 3  # more than one round per lane

    def test_each_lane_equals_its_own_explore(self, by_workers):
        grid, reports, tracers = by_workers
        full = _shape(reports[2])
        benches = list(dict.fromkeys(spec.bench for spec in grid))
        spans, pruned = [], []
        for bench in benches:
            alone, tr = _traced_explore([s for s in grid if s.bench == bench])
            mine = _shape(alone)
            assert mine["outcomes"] == [o for o in full["outcomes"] if o[0].bench == bench]
            assert mine["frontiers"] == {bench: full["frontiers"][bench]}
            spans += _explore_spans(tr)
            pruned += mine["pruned"]
        # pruned cells and spans concatenate in first-seen lane order
        assert _explore_spans(tracers[2]) == spans
        assert full["pruned"] == pruned

    def test_forked_lanes_send_their_spans_back(self, by_workers):
        _grid, _reports, tracers = by_workers
        trace = Trace.from_tracer(tracers[2])
        assert validate_trace(trace) == []
        assert len(trace.events) == len(tracers[1].events)
        root = trace.events[0]
        assert (root.name, root.parent) == ("explore", -1)
        lanes = [e for e in trace.events if e.name == "explore.lane"]
        assert len(lanes) == 3 and all(e.parent == root.index for e in lanes)
        # the core's spans nest under the explorer's solves
        solves = {e.index for e in trace.events if e.name == "explore.solve"}
        assert any(e.parent in solves and not e.name.startswith("explore") for e in trace.events)

    def test_outcomes_in_grid_order(self, by_workers):
        grid, reports, _tracers = by_workers
        solved = [o.spec for o in reports[2].outcomes]
        assert solved == [s for s in grid if s in set(solved)]


class TestDispatch:
    def test_lanes_go_out_largest_first(self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        benches = []
        submit = ProcessPoolExecutor.submit

        def recording(self, fn, items, *args, **kwargs):
            benches.append(items[0][1].bench)
            return submit(self, fn, items, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", recording)
        grid = (
            build_grid(["allpole"], ["2A2M"], clocks=[100])
            + build_grid(["diffeq"], ["1A1M", "2A1M"], clocks=[100])
            + build_grid(["biquad"], ["1A1M", "2A1M"], clocks=[100])
        )
        explore(grid, mode="explore", workers=2)
        # two-cell lanes before the one-cell lane; first seen breaks the tie
        assert benches == ["diffeq", "biquad", "allpole"]

    @pytest.mark.parametrize("case", ["one-worker", "one-lane", "exhaustive"])
    def test_inline_unless_two_workers_and_two_lanes(self, monkeypatch, case):
        def no_processes(*_args, **_kwargs):
            raise AssertionError("lanes forked")

        monkeypatch.setattr(explorer, "_run_lanes", no_processes)
        two_lanes = build_grid(["diffeq", "biquad"], ["1A1M"], clocks=[100])
        if case == "one-worker":
            explore(two_lanes, workers=1)
        elif case == "one-lane":
            explore(build_grid(["diffeq"], ["1A1M", "2A1M"], clocks=[100]), workers=2)
        else:
            explore(two_lanes, mode="exhaustive", workers=2)

    def test_round_size_must_be_positive(self):
        with pytest.raises(ExploreError):
            explore(build_grid(["diffeq"], ["1A1M"]), round_size=0)


class TestFailSafe:
    GOOD = build_grid(["diffeq"], ["1A1M"], clocks=[100])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lane_error_names_the_cell(self, workers):
        bad = CellSpec("no-such-bench", 1, 1)
        with pytest.raises(ExploreError, match="no-such-bench@1A1M"):
            explore(self.GOOD + [bad], mode="explore", workers=workers)
        assert multiprocessing.active_children() == []

    def test_solver_error_names_the_cell(self, monkeypatch):
        def broken(self, spec):
            raise RuntimeError("solver blew up")

        monkeypatch.setattr(CellSolver, "solve", broken)
        grid = self.GOOD + build_grid(["biquad"], ["1A1M"], clocks=[100])
        with pytest.raises(ExploreError, match=r"cell \w+@1A1M/100ns/h2: RuntimeError"):
            explore(grid, mode="explore", workers=2)
        assert multiprocessing.active_children() == []

    def test_killed_worker_raises_instead_of_hanging(self, monkeypatch):
        parent = os.getpid()
        solve = CellSolver.solve

        def dies_in_a_worker(self, spec):
            if os.getpid() != parent and spec.bench == "biquad":
                os._exit(3)
            return solve(self, spec)

        monkeypatch.setattr(CellSolver, "solve", dies_in_a_worker)
        grid = self.GOOD + build_grid(["biquad"], ["1A1M"], clocks=[100])
        with pytest.raises(ExploreError, match="worker died"):
            explore(grid, mode="explore", workers=2)
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_good_run(self):
        grid = self.GOOD + build_grid(["biquad"], ["1A1M"], clocks=[100])
        report = explore(grid, mode="explore", workers=2)
        assert report.counters["solved"] == 2
        assert multiprocessing.active_children() == []
