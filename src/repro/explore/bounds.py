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
Vertex-disjoint cycles occupy
disjoint registers, so a greedy disjoint packing sums their bounds.

All bound math is solver-free and memoized per process — probing a cell
costs microseconds against the milliseconds-to-seconds of solving it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.dfg.graph import DFG, Timing
from repro.dfg.iteration_bound import critical_cycle, cycle_delays
from repro.dfg.unfold import fold_node
from repro.bounds.lower_bounds import combined_lower_bound
from repro.explore.space import CellSpec, Point, cell_cost, cell_graph, cell_model

#: The explorer's own cutoff: above this node count only the critical
#: cycle feeds the register bound (the period bound never enumerates).
ENUMERATE_LIMIT = 60


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


def _cycle_terms(graph: DFG, timing: Timing) -> List[Tuple[Tuple[str, ...], int, int]]:
    """``(nodes, d(C), t(C))`` for the cycles the register bound sums over
    (cycles and ``d(C)`` come enumerated once per graph; ``t(C)`` is summed here)."""
    cycles = cycle_delays(graph)
    if graph.num_nodes > ENUMERATE_LIMIT:
        _, critical = critical_cycle(graph, timing)
        cycles = [(nodes, d) for nodes, d in cycles if nodes == critical][:1]
    return [
        (tuple(nodes), d, sum(graph.time(v, timing) for v in nodes))
        for nodes, d in cycles
    ]


def register_lower_bound(graph: DFG, timing: Timing, period: int) -> int:
    """Cycle-packing lower bound on the steady-state register requirement
    of *any* legal wrapped schedule of ``graph`` at period ``period``."""
    if period <= 0:
        return 0
    scored = []
    for nodes, d, t in _cycle_terms(graph, timing):
        bound = d - (t // period)
        if bound > 0:
            scored.append((bound, nodes))
    # Greedy vertex-disjoint packing, strongest cycles first (canonical
    # tie-break on the node tuple keeps the bound deterministic).
    scored.sort(key=lambda item: (-item[0], item[1]))
    taken: set = set()
    total = 0
    for bound, nodes in scored:
        if taken.isdisjoint(nodes):
            total += bound
            taken.update(nodes)
    return total


# -- per-process memos --------------------------------------------------
_GRAPH_CACHE: Dict[Tuple[str, int], DFG] = {}
_BOUND_CACHE: Dict[Tuple, CellBound] = {}
_REG_CACHE: Dict[Tuple, int] = {}
_CRIT_CACHE: Dict[Tuple, FrozenSet[str]] = {}


def bound_graph(spec: CellSpec, base: Optional[DFG] = None) -> DFG:
    """The (unfolded) graph of a cell, cached per (bench, unfold)."""
    key = (spec.bench, spec.unfold)
    got = _GRAPH_CACHE.get(key)
    if got is None:
        if base is None:
            from repro.suite.registry import get_benchmark

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
    reg_key = (spec.bench, spec.unfold, spec.add_latency, spec.mult_latency, lb_cycles)
    reg_lb = _REG_CACHE.get(reg_key)
    if reg_lb is None:
        reg_lb = _REG_CACHE[reg_key] = register_lower_bound(graph, timing, lb_cycles)
    crit_key = (spec.bench, spec.unfold, spec.add_latency, spec.mult_latency)
    crit = _CRIT_CACHE.get(crit_key)
    if crit is None:
        _, nodes = critical_cycle(graph, timing)
        crit = _CRIT_CACHE[crit_key] = _folded(tuple(nodes))
    bound = CellBound(
        lb_cycles=lb_cycles,
        lb_point=Point(
            period_ns=Fraction(lb_cycles * spec.clock_ns, spec.unfold),
            cost=cell_cost(spec),
            registers=Fraction(reg_lb, spec.unfold),
        ),
        critical_nodes=crit,
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
    _REG_CACHE.clear()
    _CRIT_CACHE.clear()
