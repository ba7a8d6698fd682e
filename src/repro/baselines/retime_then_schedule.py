"""Baseline: retime-for-minimum-period, then list-schedule (Cathedral-II
style).

The paper (Section 7) describes Goossens/Vandewalle/De Man's flow: retime
the DFG to meet an estimated schedule length *without* resource
constraints, then schedule the retimed loop under resources; iterate on
the estimate.  The weakness the paper calls out — a retiming chosen
blindly to resource needs — is exactly what this baseline exhibits next to
rotation scheduling.

The retiming engine is Leiserson–Saxe's FEAS algorithm (adapted to this
library's sign convention, where ``dr(e) = d(e) + r(u) - r(v)``): binary
search the clock period ``c``; for each candidate run |V| - 1 relaxation
rounds where every node whose combinational arrival time exceeds ``c``
gets a delay pushed onto its inputs (``r(v) -= 1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.dfg.graph import DFG, NodeId, Timing
from repro.dfg.retiming import Retiming
from repro.dfg.analysis import critical_path_length, topological_order, retimed_delay
from repro.dfg.iteration_bound import iteration_bound_ceil
from repro.schedule.resources import ResourceModel
from repro.schedule.schedule import Schedule
from repro.schedule.list_scheduler import full_schedule
from repro.core.wrapping import WrappedSchedule, wrap
from repro.errors import RetimingError


@dataclass(frozen=True)
class RetimeScheduleResult:
    """Outcome of retime-then-schedule."""

    graph: DFG
    model: ResourceModel
    retiming: Retiming
    clock_period: int
    schedule: Schedule
    wrapped: WrappedSchedule

    @property
    def length(self) -> int:
        return self.wrapped.period

    @property
    def depth(self) -> int:
        return self.wrapped.retiming.depth(self.graph)


def _arrival_times(graph: DFG, timing: Optional[Timing], r: Retiming) -> Dict[NodeId, int]:
    """Combinational arrival time of every node in ``Gr`` (inclusive)."""
    arrival: Dict[NodeId, int] = {}
    for v in topological_order(graph, r):
        best = 0
        for e in graph.in_edges(v):
            if retimed_delay(e, r) == 0:
                best = max(best, arrival[e.src])
        arrival[v] = best + graph.time(v, timing)
    return arrival


def feas_retiming(
    graph: DFG,
    period: int,
    timing: Optional[Timing] = None,
    initial: Optional[Retiming] = None,
) -> Optional[Retiming]:
    """FEAS: a legal retiming with CP <= ``period``, or None if impossible."""
    r = initial if initial is not None else Retiming.zero()
    for _ in range(max(1, graph.num_nodes - 1)):
        try:
            arrival = _arrival_times(graph, timing, r)
        except Exception:  # zero-delay cycle introduced: infeasible direction
            return None
        late = [v for v in graph.nodes if arrival[v] > period]
        if not late:
            return r.normalized(graph)
        r = r + Retiming({v: -1 for v in late})
        if not r.is_legal(graph):
            return None
    arrival = _arrival_times(graph, timing, r)
    if all(arrival[v] <= period for v in graph.nodes):
        return r.normalized(graph)
    return None


def min_period_retiming(graph: DFG, timing: Optional[Timing] = None) -> Retiming:
    """Binary search over periods with FEAS — minimal-CP retiming."""
    hi = critical_path_length(graph, timing)
    lo = max(
        iteration_bound_ceil(graph, timing),
        max(graph.time(v, timing) for v in graph.nodes),
    )
    best: Optional[Retiming] = feas_retiming(graph, hi, timing)
    if best is None:  # pragma: no cover - the identity retiming meets CP
        raise RetimingError("FEAS failed at the original critical path")
    best_period = hi
    while lo < best_period:
        mid = (lo + best_period) // 2
        r = feas_retiming(graph, mid, timing)
        if r is not None:
            best, best_period = r, mid
        else:
            lo = mid + 1
    return best


def retime_then_schedule(
    graph: DFG,
    model: ResourceModel,
    priority="descendants",
) -> RetimeScheduleResult:
    """Retime for minimum clock period (resource-blind), then list-schedule
    the retimed DAG under resources and wrap the result."""
    timing = model.timing()
    r = min_period_retiming(graph, timing)
    sched = full_schedule(graph, model, r, priority).normalized()
    wrapped = wrap(sched, r)
    return RetimeScheduleResult(
        graph=graph,
        model=model,
        retiming=r,
        clock_period=critical_path_length(graph, timing, r),
        schedule=sched,
        wrapped=wrapped,
    )
