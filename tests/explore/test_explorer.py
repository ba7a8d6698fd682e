"""The feedback loop: frontier equality, accounting, pruning soundness."""

import pytest

from repro.explore import (
    CellSolver,
    build_grid,
    dominates,
    explore,
)
from repro.explore.bounds import clear_caches
from repro.explore.explorer import COUNTER_KEYS
from repro.explore.space import ExploreError


def small_grid():
    return build_grid(
        ["diffeq", "biquad"], ["1A1M", "2A1M", "2A2M"], clocks=[40, 100]
    )


@pytest.fixture(scope="module")
def reports():
    """One explore + one exhaustive run of the same grid, shared across
    the module's assertions (both are deterministic)."""
    clear_caches()
    grid = small_grid()
    # round_size below the grid size forces multiple prune/rank rounds
    explored = explore(grid, mode="explore", round_size=4)
    exhaustive = explore(grid, mode="exhaustive")
    return grid, explored, exhaustive


class TestFrontierEquality:
    def test_explore_reaches_exhaustive_frontier(self, reports):
        _grid, explored, exhaustive = reports
        assert sorted(explored.frontiers) == sorted(exhaustive.frontiers)
        for bench in explored.frontiers:
            assert explored.frontier_points(bench) == exhaustive.frontier_points(bench)

    def test_explore_solves_fewer_cells(self, reports):
        grid, explored, exhaustive = reports
        assert exhaustive.counters["solved"] == len(grid)
        assert explored.counters["solved"] < len(grid)
        assert explored.pruned


class TestAccounting:
    def test_every_cell_solved_or_pruned(self, reports):
        grid, explored, _ = reports
        c = explored.counters
        assert c["cells_total"] == len(grid)
        assert (
            c["solved"] + c["pruned_bound"] + c["pruned_dominated"]
            == c["cells_total"]
        )
        assert len(explored.outcomes) + len(explored.pruned) == len(grid)

    def test_counters_cover_the_schema(self, reports):
        _grid, explored, _ = reports
        assert set(explored.counters) == set(COUNTER_KEYS)
        assert explored.counters["rounds"] >= 2  # round_size forced >1
        assert explored.counters["frontier_size"] == sum(
            len(pts) for pts in explored.frontiers.values()
        )

    def test_events_mirror_outcomes_and_prunes(self, reports):
        _grid, explored, _ = reports
        kinds = [e["event"] for e in explored.events]
        assert kinds.count("solved") == explored.counters["solved"]
        assert kinds.count("pruned") == len(explored.pruned)
        assert kinds[-1] == "summary"


class TestPruningSoundness:
    def test_resolving_pruned_cells_never_beats_the_frontier(self, reports):
        """The property the frontier design is built around: cold-solve
        every pruned cell and check its true outcome (a) never dominates
        any reported frontier point (registers included) and (b) is still
        covered by the blocker that licensed the prune."""
        _grid, explored, _ = reports
        solver = CellSolver(backend="flat")
        for pruned in explored.pruned:
            outcome = solver.solve_cold(pruned.spec)
            front = explored.frontier_points(pruned.spec.bench)
            for point in front:
                assert not dominates(outcome.point, point), (
                    f"pruned {pruned.spec.label()} achieved {outcome.point.render()} "
                    f"dominating frontier {point.render()}"
                )
            blocker = pruned.blocker
            assert (
                blocker.period_ns <= outcome.point.period_ns
                and blocker.cost <= outcome.point.cost
            ), f"blocker no longer covers {pruned.spec.label()}"

    def test_pruned_points_never_below_their_bound(self, reports):
        _grid, explored, _ = reports
        solver = CellSolver(backend="flat")
        for pruned in explored.pruned[:4]:
            outcome = solver.solve_cold(pruned.spec)
            assert outcome.point.period_ns >= pruned.lb_point.period_ns
            assert outcome.point.cost == pruned.lb_point.cost
            assert outcome.point.registers >= pruned.lb_point.registers


class TestModes:
    def test_duplicate_cells_rejected(self):
        cells = build_grid(["diffeq"], ["1A1M"])
        with pytest.raises(ExploreError):
            explore(cells + cells)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ExploreError):
            explore(build_grid(["diffeq"], ["1A1M"]), mode="greedy")

    def test_workers_two_matches_inline(self):
        grid = build_grid(["diffeq", "biquad"], ["1A1M", "2A1M"], clocks=[40, 100])
        solo = explore(grid, mode="explore", workers=1, backend="flat")
        duo = explore(grid, mode="explore", workers=2, backend="flat")
        for bench in solo.frontiers:
            assert solo.frontier_points(bench) == duo.frontier_points(bench)
        # each benchmark lane is solved whole by one worker, so the counters
        # match exactly (tests/explore/test_lanes.py checks the full report)
        assert solo.counters == duo.counters
