"""Conditional data-flow graphs: resource sharing across exclusive branches.

The paper's Section 8 points to "extensions to more complicated models,
such as conditionals [20]" (Siddhiwala & Chao, *Scheduling conditional
data-flow graphs with resource sharing*).  The model implemented here:

* a node may carry a **guard** — a conjunction of branch literals
  ``(condition_id, polarity)`` stored in the node's ``guard`` attribute;
* two operations are **mutually exclusive** when their guards contain the
  same condition with opposite polarities — only one of them executes in
  any iteration, so they may share a functional-unit instance in the same
  control step;
* the conditional list scheduler is the ordinary one with an
  exclusivity-aware occupancy grid, and the rotation recipe applies
  unchanged (:class:`ConditionalRotationState`).  Greedy list scheduling
  is not monotone (a looser constraint can lengthen its result), so the
  scheduler also runs the sharing-blind pass and keeps the shorter
  schedule: guarding a graph never lengthens its schedule.

Guards compose: ``(("c", True), ("d", False))`` is the then-branch of
``c`` intersected with the else-branch of ``d``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.dfg.graph import DFG, NodeId
from repro.dfg.retiming import Retiming
from repro.dfg.analysis import (
    is_down_rotatable,
    zero_delay_predecessors,
    zero_delay_successors,
)
from repro.schedule.resources import ResourceModel
from repro.schedule.priorities import get_priority
from repro.errors import GraphError, RotationError, SchedulingError

Guard = Tuple[Tuple[str, bool], ...]


def guard_of(graph: DFG, node: NodeId) -> Guard:
    """The node's guard (empty = unconditional)."""
    raw = graph.attrs(node).get("guard", ())
    return tuple(raw)


def set_guard(graph: DFG, node: NodeId, literals: Iterable[Tuple[str, bool]]) -> None:
    """Attach a guard to a node; rejects self-contradictory guards."""
    guard = tuple(literals)
    by_cond: Dict[str, Set[bool]] = {}
    for cond, polarity in guard:
        by_cond.setdefault(cond, set()).add(polarity)
    for cond, polarities in by_cond.items():
        if len(polarities) > 1:
            raise GraphError(f"node {node!r}: contradictory guard on {cond!r}")
    graph.attrs(node)["guard"] = guard


def are_exclusive(graph: DFG, u: NodeId, v: NodeId) -> bool:
    """True when ``u`` and ``v`` can never execute in the same iteration."""
    gu, gv = dict(guard_of(graph, u)), dict(guard_of(graph, v))
    return any(cond in gv and gv[cond] != pol for cond, pol in gu.items())


class ExclusiveOccupancyGrid:
    """Occupancy grid where mutually exclusive ops may share an instance.

    With ``share=False`` no two ops share a slot (the ordinary grid).
    """

    def __init__(self, graph: DFG, model: ResourceModel, share: bool = True):
        self.graph = graph
        self.model = model
        self.share = share
        # (unit, cs, instance) -> nodes currently holding the slot
        self._slots: Dict[Tuple[str, int, int], List[NodeId]] = {}

    def find_instance(self, node: NodeId, cs: int) -> Optional[int]:
        op = self.graph.op(node)
        unit = self.model.unit_for_op(op)
        offsets = list(self.model.busy_offsets(op))
        for k in range(unit.count):
            ok = True
            for off in offsets:
                occupants = self._slots.get((unit.name, cs + off, k), [])
                if any(
                    not (self.share and are_exclusive(self.graph, node, w))
                    for w in occupants
                ):
                    ok = False
                    break
            if ok:
                return k
        return None

    def occupy(self, node: NodeId, cs: int, instance: int) -> None:
        op = self.graph.op(node)
        unit = self.model.unit_for_op(op)
        for off in self.model.busy_offsets(op):
            self._slots.setdefault((unit.name, cs + off, instance), []).append(node)


@dataclass(frozen=True)
class ConditionalSchedule:
    """A start-time map whose resource legality accounts for exclusivity."""

    graph: DFG
    model: ResourceModel
    start: Dict[NodeId, int]
    instance: Dict[NodeId, int]

    @property
    def length(self) -> int:
        lo = min(self.start.values())
        hi = max(
            self.start[v] + self.model.latency(self.graph.op(v))
            for v in self.graph.nodes
        )
        return hi - lo

    @property
    def first_cs(self) -> int:
        return min(self.start.values())

    def violations(self, r: Optional[Retiming] = None) -> List[str]:
        out = []
        for e in self.graph.edges:
            dr = e.delay if r is None else r.dr(e)
            if dr == 0:
                finish = self.start[e.src] + self.model.latency(self.graph.op(e.src))
                if finish > self.start[e.dst]:
                    out.append(f"{e.src}->{e.dst}: too early")
        slots: Dict[Tuple[str, int, int], List[NodeId]] = {}
        for v in self.graph.nodes:
            op = self.graph.op(v)
            unit = self.model.unit_for_op(op)
            for off in self.model.busy_offsets(op):
                slots.setdefault(
                    (unit.name, self.start[v] + off, self.instance[v]), []
                ).append(v)
        for key, nodes in slots.items():
            for i, u in enumerate(nodes):
                for v in nodes[i + 1 :]:
                    if not are_exclusive(self.graph, u, v):
                        out.append(f"{u} and {v} share {key[0]}[{key[2]}] at CS {key[1]}")
        return out


def conditional_full_schedule(
    graph: DFG,
    model: ResourceModel,
    r: Optional[Retiming] = None,
    priority="descendants",
    fixed: Optional[Mapping[NodeId, Tuple[int, int]]] = None,
    floor_cs: int = 0,
) -> ConditionalSchedule:
    """Exclusivity-aware list scheduling (full, or partial via ``fixed``).

    ``fixed`` maps frozen nodes to ``(cs, instance)`` placements.  When
    any node is guarded, the sharing-blind schedule is computed as well
    and the shorter of the two is returned (the sharing one on a tie).
    """
    prio = get_priority(priority)(graph, model.timing(), r)
    sched = _list_schedule(graph, model, r, prio, fixed, floor_cs, share=True)
    if any(guard_of(graph, v) for v in graph.nodes):
        blind = _list_schedule(graph, model, r, prio, fixed, floor_cs, share=False)
        if blind.length < sched.length:
            return blind
    return sched


def _list_schedule(
    graph: DFG,
    model: ResourceModel,
    r: Optional[Retiming],
    prio: Mapping[NodeId, Tuple],
    fixed: Optional[Mapping[NodeId, Tuple[int, int]]],
    floor_cs: int,
    share: bool,
) -> ConditionalSchedule:
    node_index = {v: i for i, v in enumerate(graph.nodes)}
    grid = ExclusiveOccupancyGrid(graph, model, share)
    start: Dict[NodeId, int] = {}
    instance: Dict[NodeId, int] = {}
    for v, (cs, k) in (fixed or {}).items():
        grid.occupy(v, cs, k)
        start[v] = cs
        instance[v] = k

    todo = [v for v in graph.nodes if v not in start]
    pending = {
        v: sum(1 for u in zero_delay_predecessors(graph, v, r) if u not in start)
        for v in todo
    }
    ready = {v for v in todo if pending[v] == 0}
    unplaced = set(todo)
    cs = floor_cs
    guard_limit = floor_cs + sum(
        model.latency(graph.op(v)) for v in graph.nodes
    ) + 8 * (graph.num_nodes + 2)
    while unplaced:
        candidates = sorted(
            (
                v
                for v in ready
                if max(
                    [
                        start[u] + model.latency(graph.op(u))
                        for u in zero_delay_predecessors(graph, v, r)
                    ],
                    default=floor_cs,
                )
                <= cs
            ),
            key=lambda v: (tuple(-x for x in prio[v]), node_index[v]),
        )
        for v in candidates:
            k = grid.find_instance(v, cs)
            if k is None:
                continue
            grid.occupy(v, cs, k)
            start[v] = cs
            instance[v] = k
            ready.discard(v)
            unplaced.discard(v)
            for w in zero_delay_successors(graph, v, r):
                if w in unplaced:
                    pending[w] -= 1
                    if pending[w] == 0:
                        ready.add(w)
        cs += 1
        if cs > guard_limit:  # pragma: no cover - defensive
            raise SchedulingError("conditional scheduler failed to converge")
    return ConditionalSchedule(graph, model, start, instance)


@dataclass(frozen=True)
class ConditionalRotationState:
    """Rotation over conditional schedules (same three-step recipe)."""

    graph: DFG
    model: ResourceModel
    retiming: Retiming
    schedule: ConditionalSchedule
    priority: object = "descendants"

    @classmethod
    def initial(cls, graph: DFG, model: ResourceModel, priority="descendants"):
        sched = conditional_full_schedule(graph, model, priority=priority)
        return cls(graph, model, Retiming.zero(), sched, priority)

    @property
    def length(self) -> int:
        return self.schedule.length

    def down_rotate(self, size: int) -> "ConditionalRotationState":
        if size < 1 or size >= self.length:
            raise RotationError(f"illegal rotation size {size} for length {self.length}")
        lo = self.schedule.first_cs
        moved = [v for v in self.graph.nodes if self.schedule.start[v] - lo < size]
        if not is_down_rotatable(self.graph, moved, self.retiming):
            raise RotationError(f"prefix {moved!r} not rotatable")  # pragma: no cover
        new_r = self.retiming + Retiming.of_set(moved)
        fixed = {
            v: (self.schedule.start[v] - lo - size, self.schedule.instance[v])
            for v in self.graph.nodes
            if v not in moved
        }
        sched = conditional_full_schedule(
            self.graph, self.model, new_r, self.priority, fixed=fixed, floor_cs=0
        )
        return ConditionalRotationState(self.graph, self.model, new_r, sched, self.priority)
