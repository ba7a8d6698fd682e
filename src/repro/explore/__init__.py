"""``repro.explore`` — Pareto design-space exploration.

The five-axis design space of the paper's experiments — resource config
x clock period x unfolding factor x heuristic x rotation size — explored
either exhaustively (the fixed grids today's benchmarks sweep) or with
the feedback-guided explorer: bound-based pruning against the running
Pareto frontier, solve-key memoization across clock cells that share a
latency model, warm :class:`~repro.core.session.MutableSchedulingSession`
chains across neighboring resource configs, and per-benchmark lanes
that run on forked worker processes when asked.  See
``docs/exploration.md``.
"""

from repro._exports import export as _export

__all__ = _export(__name__, {
    ".space": (
        "ADD_NS MULT_NS CellSpec Point build_grid cell_cost cell_graph cell_model "
        "family_key objective_point solve_key"
    ),
    ".bounds": "CellBound cell_bound register_lower_bound",
    ".frontier": "ParetoFrontier dominates strictly_dominates",
    ".runner": "CellOutcome CellSolver ServeCellSolver run_grid",
    ".explorer": "ExploreReport PrunedCell explore",
})
