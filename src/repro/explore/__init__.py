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

from repro.explore.space import (
    ADD_NS,
    MULT_NS,
    CellSpec,
    Point,
    build_grid,
    cell_cost,
    cell_graph,
    cell_model,
    family_key,
    objective_point,
    solve_key,
)
from repro.explore.bounds import CellBound, cell_bound, register_lower_bound
from repro.explore.frontier import ParetoFrontier, dominates, strictly_dominates
from repro.explore.runner import CellOutcome, CellSolver, ServeCellSolver, run_grid
from repro.explore.explorer import ExploreReport, PrunedCell, explore
from repro.explore.trace import (
    EXPLORE_TRACE_SCHEMA,
    is_explore_trace,
    read_explore_trace,
    render_explore_trace,
    write_explore_trace,
)

__all__ = [
    "ADD_NS",
    "MULT_NS",
    "CellSpec",
    "Point",
    "build_grid",
    "cell_cost",
    "cell_graph",
    "cell_model",
    "family_key",
    "objective_point",
    "solve_key",
    "CellBound",
    "cell_bound",
    "register_lower_bound",
    "ParetoFrontier",
    "dominates",
    "strictly_dominates",
    "CellOutcome",
    "CellSolver",
    "ServeCellSolver",
    "run_grid",
    "ExploreReport",
    "PrunedCell",
    "explore",
    "EXPLORE_TRACE_SCHEMA",
    "is_explore_trace",
    "read_explore_trace",
    "render_explore_trace",
    "write_explore_trace",
]
