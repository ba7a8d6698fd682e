"""Per-cell lower bounds: the pruning side of the explorer.

A cell can be skipped without solving when an already-achieved point is
at least as good as *everything the cell could possibly produce*.  That
needs a componentwise lower bound on the cell's objective point:

* **period** — ``combined_lower_bound`` (iteration bound + per-class
  resource bounds) of the cell's unfolded graph under its latency model,
  scaled to nanoseconds per original iteration;
* **cost** — exact (a pure function of the configuration);
* **registers** — the cycle bound below.

**Register lower bound.**  For any simple cycle ``C`` with total delay
``d(C)`` and total execution time ``t(C)``, every legal wrapped schedule
of period ``P`` keeps at least ``d(C) - floor(t(C) / P)`` values of the
cycle live on average: summing each cycle edge's lifetime span
``start(v) - finish(u) + dr(e) * P`` around the cycle telescopes the
start/finish terms to ``-t(C)`` and the retimed delays to the
retiming-invariant ``d(C)``, giving total span ``P * d(C) - t(C)``; the
maximum live count is at least the average ``d(C) - t(C)/P``, and it is
an integer.  The bound grows with ``P`` (slower schedules hold values
longer), so evaluating it at the *period lower bound* — the smallest
achievable ``P`` — keeps it valid for every period the cell can reach.
Vertex-disjoint cycles occupy disjoint registers, so the bounds of any
vertex-disjoint set of cycles add up.  The set comes from peeling, with
no enumeration: a cycle with ``d(C) - floor(t(C)/P) > 0``, i.e.
``P * d(C) > t(C)``, is a negative cycle under the integer edge weights
``t(src) - P * d(e)``; Bellman–Ford (the iteration bound's own
``_beating_cycle``) finds one among the nodes still alive, its term is
added, its nodes are dropped, and the search repeats until none is left.

All bound math is solver-free and memoized per process — probing a cell
costs microseconds against the milliseconds-to-seconds of solving it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Optional, Tuple

from repro.dfg.graph import DFG, Timing
from repro.dfg.iteration_bound import _beating_cycle, _columns, critical_cycle
from repro.dfg.unfold import fold_node
from repro.bounds.lower_bounds import combined_lower_bound
from repro.explore.space import CellSpec, Point, cell_cost, cell_graph, cell_model
from repro.suite.registry import get_benchmark


@dataclass(frozen=True)
class CellBound:
    """Solver-free lower bounds of one cell."""

    lb_cycles: int
    lb_point: Point
    #: Folded node names of the critical cycle under the cell's timing —
    #: the feedback ranking's overlap signal.
    critical_nodes: FrozenSet[str]

    @property
    def lb_period_ns(self) -> Fraction:
        return self.lb_point.period_ns


def register_lower_bound(graph: DFG, timing: Timing, period: int) -> int:
    """Cycle-peeling lower bound on the steady-state register requirement
    of *any* legal wrapped schedule of ``graph`` at period ``period``."""
    if period <= 0:
        return 0
    _, esrc, edst, edelay, _ = _columns(graph)
    times = [graph.time(v, timing) for v in graph.nodes]
    alive = range(len(esrc))  # edges whose endpoints are both still alive
    total = 0
    while True:
        cycle = _beating_cycle(
            len(times),
            [esrc[k] for k in alive],
            [edst[k] for k in alive],
            [times[esrc[k]] - period * edelay[k] for k in alive],
        )
        if cycle is None:
            return total
        cycle = [alive[k] for k in cycle]
        total += sum(edelay[k] for k in cycle) - sum(times[esrc[k]] for k in cycle) // period
        dropped = {esrc[k] for k in cycle}
        alive = [k for k in alive if esrc[k] not in dropped and edst[k] not in dropped]


# -- per-process memos --------------------------------------------------
_GRAPH_CACHE: Dict[Tuple[str, int], DFG] = {}
_BOUND_CACHE: Dict[Tuple, CellBound] = {}


def bound_graph(spec: CellSpec, base: Optional[DFG] = None) -> DFG:
    """The (unfolded) graph of a cell, cached per (bench, unfold)."""
    key = (spec.bench, spec.unfold)
    got = _GRAPH_CACHE.get(key)
    if got is None:
        if base is None:
            base = get_benchmark(spec.bench)
        got = _GRAPH_CACHE[key] = cell_graph(spec, base)
    return got


def _folded(nodes: Tuple) -> FrozenSet[str]:
    """Node names with unfolding copies collapsed, so critical-cycle
    overlap compares across unfolding factors."""
    out = set()
    for v in nodes:
        if isinstance(v, tuple) and len(v) == 2 and isinstance(v[1], int):
            v = fold_node(v)[0]
        out.add(str(v))
    return frozenset(out)


def cell_bound(spec: CellSpec, base: Optional[DFG] = None) -> CellBound:
    """The full solver-free bound of one cell (memoized per process)."""
    cache_key = (
        spec.bench, spec.unfold, spec.add_latency, spec.mult_latency,
        spec.adders, spec.mults, spec.pipelined, spec.clock_ns,
    )
    got = _BOUND_CACHE.get(cache_key)
    if got is not None:
        return got
    graph = bound_graph(spec, base)
    model = cell_model(spec)
    timing = model.timing()
    lb_cycles = combined_lower_bound(graph, model, timing).combined
    bound = CellBound(
        lb_cycles=lb_cycles,
        lb_point=Point(
            period_ns=Fraction(lb_cycles * spec.clock_ns, spec.unfold),
            cost=cell_cost(spec),
            registers=Fraction(register_lower_bound(graph, timing, lb_cycles), spec.unfold),
        ),
        critical_nodes=_folded(tuple(critical_cycle(graph, timing)[1])),
    )
    _BOUND_CACHE[cache_key] = bound
    return bound


def overlap(a: FrozenSet[str], b: FrozenSet[str]) -> Fraction:
    """Jaccard overlap of two critical-cycle node sets."""
    if not a or not b:
        return Fraction(0)
    union = len(a | b)
    return Fraction(len(a & b), union) if union else Fraction(0)


def clear_caches() -> None:
    """Drop the per-process memos (tests that mutate suite graphs)."""
    _GRAPH_CACHE.clear()
    _BOUND_CACHE.clear()
