"""Resource-constrained list scheduling: ``FullSchedule`` / ``PartialSchedule``.

This is the DAG-scheduling subroutine the rotation technique plugs into
(paper Section 3.1).  Both entry points schedule against the zero-delay DAG
of the *retimed* graph ``Gr`` — computed on the fly from the original graph
and a retiming, never materialized.

* :func:`full_schedule` schedules every node (the paper's ``FullSchedule``).
* :func:`partial_schedule` reschedules only a set ``X`` while leaving the
  existing assignment of ``V - X`` untouched (the paper's
  ``PartialSchedule(G, s, X)``), filling resource holes at or after a floor
  control step.

The list policy is the classic one: walk control steps in increasing order;
at each step, among ready operations (all zero-delay predecessors finished)
pick by descending priority (paper default: descendant count) and assign a
free unit instance, honouring multi-cycle occupancy and pipelined units.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.dfg.graph import DFG, NodeId
from repro.dfg.retiming import Retiming
from repro.dfg.analysis import zero_delay_predecessors, zero_delay_successors, topological_order
from repro.schedule.resources import ResourceModel
from repro.schedule.schedule import Schedule
from repro.schedule.priorities import get_priority
from repro.errors import SchedulingError
from repro.obs import tracer as _obs


class OccupancyGrid:
    """Tracks which unit instances are busy at which control steps.

    Grids are reusable across rotations: :meth:`release` frees the slots of
    a rescheduled node and :meth:`shift` moves the whole grid by a control-
    step offset in O(1) (the rotation engine's "shift the remaining
    schedule up" step), so a rotation pays only for the slots it actually
    touches instead of reseeding from the entire schedule.
    """

    def __init__(self, model: ResourceModel):
        self._model = model
        self._busy: Dict[Tuple[str, int], Set[int]] = {}
        # Logical CS -> stored key offset; shift() adjusts it instead of
        # rewriting every key.
        self._offset = 0
        # op -> (unit name, instance count, busy offsets) — resolved once.
        self._opinfo: Dict[str, Tuple[str, int, Tuple[int, ...]]] = {}

    def _info(self, op: str) -> Tuple[str, int, Tuple[int, ...]]:
        info = self._opinfo.get(op)
        if info is None:
            unit = self._model.unit_for_op(op)
            info = (unit.name, unit.count, tuple(self._model.busy_offsets(op)))
            self._opinfo[op] = info
        return info

    @classmethod
    def from_schedule(
        cls,
        schedule: Schedule,
        exclude: Iterable[NodeId] = (),
    ) -> "OccupancyGrid":
        """Seed a grid from an existing schedule, skipping ``exclude`` nodes.

        Uses the schedule's recorded unit assignments when present;
        otherwise packs nodes into instances greedily (which must succeed
        for any resource-feasible schedule).
        """
        grid = cls(schedule.model)
        skip = set(exclude)
        for v in schedule.graph.nodes:
            if v in skip:
                continue
            op = schedule.graph.op(v)
            cs = schedule.start(v)
            inst = schedule.unit_index(v)
            if inst is None:
                inst = grid.find_instance(op, cs)
                if inst is None:
                    raise SchedulingError(
                        f"cannot seed occupancy: no free {op} unit at CS {cs} for {v!r}"
                    )
            grid.occupy(op, cs, inst)
        return grid

    def shift(self, delta: int) -> None:
        """Move every occupied slot by ``delta`` control steps, in O(1)."""
        self._offset += delta

    def find_instance(self, op: str, cs: int) -> Optional[int]:
        """Lowest unit instance free across all busy offsets, or None."""
        name, count, offsets = self._info(op)
        base = cs - self._offset
        busy = self._busy
        if len(offsets) == 1:
            slot = busy.get((name, base + offsets[0]), ())
            for inst in range(count):
                if inst not in slot:
                    return inst
            return None
        for inst in range(count):
            if all(inst not in busy.get((name, base + off), ()) for off in offsets):
                return inst
        return None

    def occupy(self, op: str, cs: int, inst: int) -> None:
        name, _count, offsets = self._info(op)
        base = cs - self._offset
        for off in offsets:
            slot = self._busy.setdefault((name, base + off), set())
            if inst in slot:
                raise SchedulingError(
                    f"instance {inst} of {name} double-booked at CS {cs + off}"
                )
            slot.add(inst)

    def release(self, op: str, cs: int, inst: int) -> None:
        """Free the slots a node held; a no-op for never-occupied slots."""
        name, _count, offsets = self._info(op)
        base = cs - self._offset
        for off in offsets:
            slot = self._busy.get((name, base + off))
            if slot is not None:
                slot.discard(inst)


def _earliest_start(
    graph: DFG,
    model: ResourceModel,
    node: NodeId,
    start: Mapping[NodeId, int],
    r: Optional[Retiming],
    floor_cs: int,
) -> int:
    """Earliest CS satisfying zero-delay precedences of already-placed preds."""
    est = floor_cs
    for u in zero_delay_predecessors(graph, node, r):
        est = max(est, start[u] + model.latency(graph.op(u)))
    return est


def _list_schedule(
    graph: DFG,
    model: ResourceModel,
    fixed_start: Dict[NodeId, int],
    fixed_units: Dict[NodeId, int],
    todo: List[NodeId],
    r: Optional[Retiming],
    priority,
    floor_cs: int,
) -> Schedule:
    """Core list scheduler: place ``todo`` nodes given fixed placements.

    Recomputes everything per call — the priority table from scratch and
    zero-delay neighbourhoods by scanning incident edges — which is the
    paper-faithful, cache-free path the flat engine is pinned against.
    """
    tr = _obs.active
    if tr.enabled:
        tr.begin("list_schedule", todo=len(todo))
        try:
            return _list_schedule_inner(
                graph, model, fixed_start, fixed_units, todo, r, priority, floor_cs,
            )
        finally:
            tr.end()
    return _list_schedule_inner(
        graph, model, fixed_start, fixed_units, todo, r, priority, floor_cs,
    )


def _list_schedule_inner(
    graph: DFG,
    model: ResourceModel,
    fixed_start: Dict[NodeId, int],
    fixed_units: Dict[NodeId, int],
    todo: List[NodeId],
    r: Optional[Retiming],
    priority,
    floor_cs: int,
) -> Schedule:
    prio = get_priority(priority)(graph, model.timing(), r)
    node_index = {v: i for i, v in enumerate(graph.nodes)}

    def zero_delay_preds(node: NodeId) -> List[NodeId]:
        return zero_delay_predecessors(graph, node, r)

    # Sort keys are loop-invariant; resolve them once instead of per sort.
    sort_key = {
        v: (tuple(-x for x in prio[v]), node_index[v]) for v in todo
    }.__getitem__

    grid = OccupancyGrid(model)
    for v, cs in fixed_start.items():
        inst = fixed_units.get(v)
        if inst is None:
            inst = grid.find_instance(graph.op(v), cs)
            if inst is None:
                raise SchedulingError(
                    f"fixed placement infeasible: no {graph.op(v)} unit at CS {cs} for {v!r}"
                )
        grid.occupy(graph.op(v), cs, inst)

    start: Dict[NodeId, int] = dict(fixed_start)
    units: Dict[NodeId, int] = dict(fixed_units)
    todo_set = set(todo)
    latency = model.latency
    op_of = graph.op
    # unresolved zero-delay predecessor counts within todo
    pending: Dict[NodeId, int] = {}
    for v in todo_set:
        preds = zero_delay_preds(v)
        for u in preds:
            if u not in start and u not in todo_set:
                raise SchedulingError(
                    f"node {v!r} depends on unplaced node {u!r} outside the reschedule set"
                )
        pending[v] = sum(1 for u in preds if u in todo_set and u not in start)

    ready: Set[NodeId] = {v for v in todo_set if pending[v] == 0}
    # A node's earliest start is fixed the moment it becomes ready (all its
    # zero-delay predecessors are placed by then), so compute it once at
    # ready-entry instead of re-deriving it for every candidate at every CS.
    est: Dict[NodeId, int] = {}
    for v in ready:
        e = floor_cs
        for u in zero_delay_preds(v):
            f = start[u] + latency(op_of(u))
            if f > e:
                e = f
        est[v] = e
    unplaced = set(todo_set)
    cs = floor_cs
    guard = 0
    max_guard = (len(todo) + graph.num_nodes + 2) * (
        max((u.latency for u in model.units), default=1) + 1
    ) + sum(latency(op_of(v)) for v in todo) + floor_cs + 64

    while unplaced:
        placed_any = False
        # candidates ready by precedence whose earliest start has arrived
        candidates = [v for v in ready if est[v] <= cs]
        candidates.sort(key=sort_key)
        for v in candidates:
            op = op_of(v)
            inst = grid.find_instance(op, cs)
            if inst is None:
                continue
            grid.occupy(op, cs, inst)
            start[v] = cs
            units[v] = inst
            ready.discard(v)
            unplaced.discard(v)
            placed_any = True
            for w in zero_delay_successors(graph, v, r):
                if w in unplaced:
                    pending[w] -= 1
                    if pending[w] == 0:
                        ready.add(w)
                        e = floor_cs
                        for u in zero_delay_preds(w):
                            f = start[u] + latency(op_of(u))
                            if f > e:
                                e = f
                        est[w] = e
        cs += 1
        guard += 1
        if guard > max_guard and not placed_any:
            raise SchedulingError(
                f"list scheduler failed to converge (placed {len(todo) - len(unplaced)}"
                f"/{len(todo)} nodes)"
            )  # pragma: no cover - defensive

    return Schedule(graph, model, start, units)


def full_schedule(
    graph: DFG,
    model: ResourceModel,
    r: Optional[Retiming] = None,
    priority="descendants",
    start_cs: int = 0,
) -> Schedule:
    """Schedule the whole zero-delay DAG of ``Gr`` (paper ``FullSchedule``).

    Args:
        graph: the DFG.
        model: functional-unit model (latencies, counts, pipelining).
        r: retiming whose DAG to schedule; None means the original graph.
        priority: list priority — name from
            :data:`repro.schedule.priorities.PRIORITIES` or a callable.
        start_cs: control step of the first row (0 by default).
    """
    topological_order(graph, r)  # raises on zero-delay cycles up front
    return _list_schedule(graph, model, {}, {}, list(graph.nodes), r, priority, start_cs)


def partial_schedule(
    graph: DFG,
    model: ResourceModel,
    base: Schedule,
    reschedule: Iterable[NodeId],
    r: Optional[Retiming] = None,
    priority="descendants",
    floor_cs: Optional[int] = None,
) -> Schedule:
    """Reschedule only ``reschedule`` nodes; never move the others.

    This is the paper's ``PartialSchedule(G, s, X)``: the existing schedule
    ``base`` supplies placements for ``V - X``; the nodes of ``X`` are list-
    scheduled into free unit instances at control steps >= ``floor_cs``
    (default: the first control step of the remaining schedule), possibly
    extending the schedule at the end.
    """
    moved = list(dict.fromkeys(reschedule))
    moved_set = set(moved)
    for v in moved:
        if v not in graph:
            raise SchedulingError(f"reschedule node {v!r} not in graph")
    fixed_start = {v: base.start(v) for v in graph.nodes if v not in moved_set}
    fixed_units = {
        v: base.unit_index(v)
        for v in graph.nodes
        if v not in moved_set and base.unit_index(v) is not None
    }
    if floor_cs is None:
        floor_cs = min(fixed_start.values()) if fixed_start else base.first_cs
    return _list_schedule(graph, model, fixed_start, fixed_units, moved, r, priority, floor_cs)
