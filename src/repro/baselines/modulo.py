"""Baseline: iterative modulo scheduling (Rau-style software pipelining).

Stands in for the VLIW software-pipelining comparators the paper cites
(Lam's Warp scheduler, Ebcioglu & Nakatani).  The algorithm:

1. ``MII = max(ResMII, RecMII)`` — resource and recurrence minimum
   initiation intervals;
2. for each candidate ``II`` from MII upward, try to place all operations
   into a modulo reservation table (MRT): operations are prioritized by
   *height* (longest latency path to any sink through edges weighted
   ``t(u) - II * d(e)``); each op scans ``II`` consecutive start slots from
   its precedence-earliest start; when no slot is free the op is placed
   anyway and the conflicting ops are *evicted* and rescheduled, within a
   global budget;
3. the first ``II`` whose placement converges wins.

Start times are unbounded integers: ``s(v)`` encodes the iteration skew
directly and legality is ``s(u) + t(u) <= s(v) + II * d(e)`` plus the MRT
(checked by :mod:`repro.schedule.verify`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dfg.graph import DFG, NodeId
from repro.dfg.retiming import Retiming
from repro.schedule.resources import ResourceModel
from repro.schedule.schedule import Schedule
from repro.schedule.verify import (
    is_legal_modulo_schedule,
    realizing_retiming,
)
from repro.bounds.lower_bounds import resource_bound
from repro.dfg.iteration_bound import iteration_bound
from repro.errors import SchedulingError


@dataclass(frozen=True)
class ModuloResult:
    """Outcome of iterative modulo scheduling."""

    graph: DFG
    model: ResourceModel
    ii: int
    start: Dict[NodeId, int]
    mii: int
    attempts: int

    @property
    def length(self) -> int:
        """Initiation interval — comparable to RS's wrapped length."""
        return self.ii

    def kernel_schedule(self) -> Tuple[Schedule, Retiming, int]:
        """Fold the flat schedule into a kernel: starts mod II plus the
        realizing retiming (for simulation and depth accounting)."""
        folded = {v: s % self.ii for v, s in self.start.items()}
        sched = Schedule(self.graph, self.model, folded)
        r = realizing_retiming(sched, self.ii)
        return sched, r, self.ii

    @property
    def depth(self) -> int:
        _, r, _ = self.kernel_schedule()
        return r.depth(self.graph)


def min_initiation_interval(graph: DFG, model: ResourceModel) -> int:
    """``max(ResMII, RecMII)``."""
    res_mii = max(resource_bound(graph, model).values(), default=1)
    ib = iteration_bound(graph, model.timing())
    rec_mii = -(-ib.numerator // ib.denominator)
    return max(1, res_mii, rec_mii)


def _heights(graph: DFG, model: ResourceModel, ii: int) -> Dict[NodeId, int]:
    """Longest path to any sink with edge weight ``t(u) - II * d(e)``.

    Computed by |V| rounds of relaxation (values are bounded because no
    cycle is positive once ``II >= RecMII``).
    """
    h: Dict[NodeId, int] = {v: model.latency(graph.op(v)) for v in graph.nodes}
    for _ in range(graph.num_nodes):
        changed = False
        for e in graph.edges:
            cand = h[e.dst] + model.latency(graph.op(e.src)) - ii * e.delay
            if cand > h[e.src]:
                h[e.src] = cand
                changed = True
        if not changed:
            break
    return h


class _MRT:
    """Modulo reservation table for one candidate II."""

    def __init__(self, model: ResourceModel, ii: int):
        self.model = model
        self.ii = ii
        self.rows: Dict[Tuple[str, int], List[NodeId]] = {}

    def conflicts(self, op: str, start: int) -> List[NodeId]:
        unit = self.model.unit_for_op(op)
        out: List[NodeId] = []
        for off in self.model.busy_offsets(op):
            row = self.rows.get((unit.name, (start + off) % self.ii), [])
            if len(row) >= unit.count:
                out.extend(row)
        return out

    def place(self, node: NodeId, op: str, start: int) -> None:
        unit = self.model.unit_for_op(op)
        for off in self.model.busy_offsets(op):
            self.rows.setdefault((unit.name, (start + off) % self.ii), []).append(node)

    def remove(self, node: NodeId, op: str, start: int) -> None:
        unit = self.model.unit_for_op(op)
        for off in self.model.busy_offsets(op):
            self.rows[(unit.name, (start + off) % self.ii)].remove(node)


def _try_ii(
    graph: DFG,
    model: ResourceModel,
    ii: int,
    budget: int,
) -> Optional[Dict[NodeId, int]]:
    """One iterative-modulo-scheduling attempt at a fixed II."""
    heights = _heights(graph, model, ii)
    order_key = {v: (-heights[v], i) for i, v in enumerate(graph.nodes)}
    start: Dict[NodeId, int] = {}
    last_tried: Dict[NodeId, int] = {}
    mrt = _MRT(model, ii)
    worklist = sorted(graph.nodes, key=lambda v: order_key[v])
    ops_left = budget

    while worklist:
        if ops_left <= 0:
            return None
        ops_left -= 1
        v = worklist.pop(0)
        op = graph.op(v)
        # precedence-earliest start from currently placed predecessors
        est = 0
        for e in graph.in_edges(v):
            if e.src in start:
                est = max(est, start[e.src] + model.latency(graph.op(e.src)) - ii * e.delay)
        lo = max(est, last_tried.get(v, -1) + 1)
        chosen = None
        for s in range(lo, lo + ii):
            if not mrt.conflicts(op, s):
                chosen = s
                break
        if chosen is None:
            chosen = max(est, last_tried.get(v, est) + 1)  # force placement
        last_tried[v] = chosen

        evicted = set(mrt.conflicts(op, chosen))
        # successors whose precedence the new placement breaks must move too
        for e in graph.out_edges(v):
            w = e.dst
            if w in start and w != v:
                if chosen + model.latency(op) > start[w] + ii * e.delay:
                    evicted.add(w)
        for w in evicted:
            if w in start:
                mrt.remove(w, graph.op(w), start.pop(w))
                worklist.append(w)
        mrt.place(v, op, chosen)
        start[v] = chosen
        worklist.sort(key=lambda u: order_key[u])
    return start


def modulo_schedule(
    graph: DFG,
    model: ResourceModel,
    max_ii: Optional[int] = None,
    budget_ratio: int = 12,
) -> ModuloResult:
    """Iterative modulo scheduling.

    Args:
        graph: cyclic DFG.
        model: resource model.
        max_ii: stop trying past this II (default: non-pipelined list
            schedule length — that fallback is always achievable: when
            the iterative search fails up to it, the list schedule itself
            is returned at ``II = max_ii``).
        budget_ratio: per-II placement budget of ``budget_ratio * |V|``.
    """
    mii = min_initiation_interval(graph, model)
    fallback: Optional[Dict[NodeId, int]] = None
    if max_ii is None:
        from repro.schedule.list_scheduler import full_schedule

        listed = full_schedule(graph, model)
        max_ii = max(mii, listed.length)
        # One iteration finishes within its list length, so iterations
        # issued max_ii >= length apart never overlap: legal as it stands.
        fallback = listed.start_map
    attempts = 0
    for ii in range(mii, max_ii + 1):
        attempts += 1
        start = _try_ii(graph, model, ii, budget_ratio * graph.num_nodes)
        if start is None:
            continue
        lo = min(start.values())
        start = {v: s - lo for v, s in start.items()}
        if not is_legal_modulo_schedule(graph, model, start, ii):
            raise SchedulingError(
                f"modulo scheduler produced an illegal schedule at II={ii}"
            )  # pragma: no cover - internal consistency
        return ModuloResult(graph, model, ii, start, mii, attempts)
    if fallback is not None and is_legal_modulo_schedule(graph, model, fallback, max_ii):
        return ModuloResult(graph, model, max_ii, fallback, mii, attempts)
    raise SchedulingError(f"no modulo schedule found up to II={max_ii}")
