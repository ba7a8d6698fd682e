"""The rotation transformation (paper Section 3.1) and its state object.

``RotationState`` bundles what a sequence of rotations needs: the original
DFG (never modified), the resource model, the accumulated rotation function
``R`` (a retiming), and the current schedule.  ``down_rotate(i)`` implements
the paper's ``DownRotate(G, s, i)``:

1. ``X`` := nodes starting in the first ``i`` control steps — always a
   down-rotatable set by Property 1 (every path into a schedule prefix from
   outside must carry a delay);
2. ``R`` := ``R (+) X`` — the implicit retiming;
3. deallocate ``X``, shift the remaining schedule up by ``i``;
4. ``PartialSchedule`` the nodes of ``X`` against the zero-delay DAG of
   ``G_R`` — they fill resource holes from the top of the remaining
   schedule or extend it at the end.

States are immutable: each rotation returns a fresh state, so heuristics
can keep several candidate schedules (the paper's set ``Q``) without
copying anything by hand.

By default a state carries a :class:`~repro.core.flat.engine.FlatEngine`
that accelerates rotations with integer kernels, occupancy deltas and
transition memos; the engine is pure acceleration — pass ``engine=False`` to
:meth:`RotationState.initial` for the recompute-everything path, which the
parity suite pins bit for bit against the engine.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.dfg.graph import DFG, NodeId
from repro.dfg.retiming import Retiming
from repro.dfg.analysis import (
    is_down_rotatable,
    is_up_rotatable,
    zero_delay_successors,
)
from repro.schedule.resources import ResourceModel
from repro.schedule.schedule import Schedule
from repro.schedule.list_scheduler import OccupancyGrid, full_schedule, partial_schedule
from repro.core.engine import make_engine
from repro.core.wrapping import WrappedSchedule, wrap
from repro.errors import RotationError
from repro.obs import tracer as _obs


@dataclass(frozen=True)
class RotationStep:
    """Record of one rotation, for traces and ablation studies."""

    direction: str  # "down" | "up"
    size: int
    rotated: Tuple[NodeId, ...]
    length_before: int
    length_after: int


@dataclass(frozen=True)
class RotationState:
    """Immutable snapshot of a rotation sequence.

    Attributes:
        graph: the original DFG (shared, never modified).
        model: resource model.
        retiming: accumulated rotation function ``R``.
        schedule: current static schedule, normalized to start at CS 0;
            it is a legal DAG schedule of ``G_R``.
        priority: list-scheduling priority used for rescheduling.
        trace: rotation steps performed so far.
        engine: optional engine (see :func:`~repro.core.engine.make_engine`)
            accelerating rotations on this state (excluded from equality
            and pickling).
        engine_token: engine-internal tag of the occupancy grid matching
            this schedule; ``None`` means the next rotation reseeds.
    """

    graph: DFG
    model: ResourceModel
    retiming: Retiming
    schedule: Schedule
    priority: object = "descendants"
    trace: Tuple[RotationStep, ...] = ()
    engine: Optional[Any] = field(default=None, compare=False, repr=False)
    engine_token: Optional[int] = field(default=None, compare=False, repr=False)

    # ------------------------------------------------------------------
    @classmethod
    def initial(
        cls,
        graph: DFG,
        model: ResourceModel,
        priority="descendants",
        retiming: Optional[Retiming] = None,
        engine=None,
    ) -> "RotationState":
        """Start from ``FullSchedule(G_r)`` (list scheduling, paper default).

        Args:
            engine: ``None`` (default) attaches a fresh engine for the
                default backend (see :func:`repro.core.engine.make_engine`);
                an existing engine instance shares its caches (heuristics
                reuse one across re-seedings); ``False`` selects the
                cache-free naive path.
        """
        r = retiming if retiming is not None else Retiming.zero()
        if engine is None:
            engine = make_engine(None, graph, model, priority)
        tr = _obs.active
        traced = tr.enabled
        if traced:
            tr.begin("schedule.initial")
        try:
            if engine is not False:
                if not (
                    engine.graph is graph
                    and engine.model is model
                    and engine.priority == priority
                ):
                    raise RotationError(
                        "engine was built for a different (graph, model, priority)"
                    )
                return engine.initial_state(r)
            sched = full_schedule(graph, model, r, priority).normalized()
            return cls(graph, model, r, sched, priority)
        finally:
            if traced:
                tr.end()

    # ------------------------------------------------------------------
    def __getstate__(self):
        # Engines hold process-local caches; states pickle without them
        # (worker processes rebuild their own).
        state = dict(self.__dict__)
        state["engine"] = None
        state["engine_token"] = None
        return state

    def __setstate__(self, state):
        for k, v in state.items():
            object.__setattr__(self, k, v)

    def fingerprint(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Cheap identity key: normalized start times and rotation counts in
        node order.  Two states compare equal under this key exactly when
        they have the same normalized schedule and the same retiming (the
        key :class:`repro.core.phases.BestTracker` dedups on)."""
        fp = self.__dict__.get("_fp")
        if fp is None:
            eng = self.engine
            fp_state = getattr(eng, "fp_state", None)
            if fp_state is not None and eng.compatible_with(self):
                fp = fp_state(self)
            else:
                sched = self.schedule
                lo = sched.first_cs
                r = self.retiming
                fp = (
                    tuple(sched.start(v) - lo for v in self.graph.nodes),
                    tuple(r[v] for v in self.graph.nodes),
                )
            object.__setattr__(self, "_fp", fp)
        return fp

    def wrapped(self) -> "WrappedSchedule":
        """This state's wrapped schedule (:func:`repro.core.wrapping.wrap`),
        cached on the state and served by the attached engine's flat period
        search when one is available — bit-identical either way."""
        w = self.__dict__.get("_wrapped")
        if w is None:
            eng = self.engine
            wrap_state = getattr(eng, "wrap_state", None)
            if wrap_state is not None and eng.compatible_with(self):
                w = wrap_state(self)
            else:
                w = wrap(self.schedule, self.retiming)
            object.__setattr__(self, "_wrapped", w)
        return w

    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Span of the current schedule (tails included)."""
        return self.schedule.length

    def rotated_prefix(self, size: int) -> List[NodeId]:
        """Nodes whose *start* lies in the first ``size`` control steps."""
        first = self.schedule.first_cs
        return self.schedule.nodes_starting_in(first, first + size - 1)

    # ------------------------------------------------------------------
    def down_rotate(self, size: int) -> "RotationState":
        """One down-rotation of ``size`` control steps.

        Raises:
            RotationError: if ``size`` is not in ``[1, length - 1]`` or the
                prefix turns out not to be rotatable (never happens for a
                legal schedule; kept as an internal consistency check).
        """
        if size < 1:
            raise RotationError(f"rotation size must be >= 1, got {size}")
        if size >= self.length:
            raise RotationError(
                f"rotation of size {size} is illegal on a schedule of length {self.length}"
            )
        tr = _obs.active
        if tr.enabled:
            tr.begin("rotate.down", size=size)
            try:
                return self._down_rotate(size)
            finally:
                tr.end()
        return self._down_rotate(size)

    def _down_rotate(self, size: int) -> "RotationState":
        if self.engine is not None and self.engine.compatible_with(self):
            return self.engine.down_rotate(self, size)
        sched = self.schedule.normalized()
        moved = self.rotated_prefix(size)
        if not is_down_rotatable(self.graph, moved, self.retiming):
            raise RotationError(
                f"schedule prefix {moved!r} is not down-rotatable — "
                "the current schedule is not a legal DAG schedule of G_R"
            )  # pragma: no cover - guarded by construction
        new_r = self.retiming + Retiming.of_set(moved)

        if moved:
            shifted = sched.shifted(-size) if size else sched
            # Remaining nodes now occupy [0, k-1-size]; rotated nodes are
            # rescheduled from the top of that window (paper: "pushed up to
            # their earliest possible control steps").
            new_sched = partial_schedule(
                self.graph,
                self.model,
                shifted,
                moved,
                new_r,
                self.priority,
                floor_cs=0,
            ).normalized()
        else:
            # Empty prefix (multi-cycle tails only in the first steps can't
            # happen since starts define the prefix; an empty prefix means
            # the first `size` steps held only tails of earlier iterations,
            # which cannot occur on a normalized schedule).
            new_sched = sched.shifted(-size).normalized()

        step = RotationStep("down", size, tuple(moved), sched.length, new_sched.length)
        return RotationState(
            self.graph,
            self.model,
            new_r,
            new_sched,
            self.priority,
            self.trace + (step,),
            engine=self.engine,
        )

    # ------------------------------------------------------------------
    def up_rotate(self, size: int) -> "RotationState":
        """One up-rotation of ``size`` control steps (paper Section 2 mirror).

        The nodes starting in the *last* ``size`` control steps are rotated
        up (their ``R`` decreases by one) and rescheduled as late as
        possible before the remaining schedule, extending it at the front
        when needed.
        """
        if size < 1:
            raise RotationError(f"rotation size must be >= 1, got {size}")
        if size >= self.length:
            raise RotationError(
                f"rotation of size {size} is illegal on a schedule of length {self.length}"
            )
        tr = _obs.active
        if tr.enabled:
            tr.begin("rotate.up", size=size)
            try:
                return self._up_rotate(size)
            finally:
                tr.end()
        return self._up_rotate(size)

    def _up_rotate(self, size: int) -> "RotationState":
        eng = self.engine
        if eng is not None and eng.compatible_with(self):
            up = getattr(eng, "up_rotate", None)
            if up is not None:
                return up(self, size)
        sched = self.schedule.normalized()
        last = sched.last_cs
        moved = sched.nodes_starting_in(last - size + 1, last)
        if not is_up_rotatable(self.graph, moved, self.retiming):
            raise RotationError(f"suffix {moved!r} is not up-rotatable")
        new_r = self.retiming + Retiming.of_set(moved).negated()
        new_sched = _latest_fit_reschedule(
            self.graph, self.model, sched, moved, new_r
        ).normalized()
        step = RotationStep("up", size, tuple(moved), sched.length, new_sched.length)
        return RotationState(
            self.graph,
            self.model,
            new_r,
            new_sched,
            self.priority,
            self.trace + (step,),
            engine=self.engine,
        )


def _latest_fit_reschedule(
    graph: DFG,
    model: ResourceModel,
    base: Schedule,
    moved: Sequence[NodeId],
    r: Retiming,
) -> Schedule:
    """Place ``moved`` nodes as late as possible before their zero-delay
    successors (reverse topological, greedy downward probe for a free unit).
    """
    tr = _obs.active
    traced = tr.enabled
    if traced:
        tr.begin("latest_fit", moved=len(moved))
    try:
        return _latest_fit_inner(graph, model, base, moved, r)
    finally:
        if traced:
            tr.end()


def _latest_fit_inner(
    graph: DFG,
    model: ResourceModel,
    base: Schedule,
    moved: Sequence[NodeId],
    r: Retiming,
) -> Schedule:
    moved_set = set(moved)
    grid = OccupancyGrid.from_schedule(base, exclude=moved_set)
    start = {v: base.start(v) for v in graph.nodes if v not in moved_set}
    units = {
        v: base.unit_index(v)
        for v in graph.nodes
        if v not in moved_set and base.unit_index(v) is not None
    }
    ceiling = base.last_cs

    # reverse-topological order within the moved set (zero-delay DAG of G_r)
    order: List[NodeId] = []
    pending = {
        v: sum(1 for w in zero_delay_successors(graph, v, r) if w in moved_set)
        for v in moved_set
    }
    node_index = {v: i for i, v in enumerate(graph.nodes)}
    nodes_list = graph.nodes
    ready = [node_index[v] for v in moved_set if pending[v] == 0]
    heapq.heapify(ready)
    while ready:
        v = nodes_list[heapq.heappop(ready)]
        order.append(v)
        for u in graph.predecessors(v):
            if u in moved_set and pending.get(u, 0) > 0 and any(
                r.dr(e) == 0 and e.dst == v for e in graph.out_edges(u)
            ):
                pending[u] -= 1
                if pending[u] == 0:
                    heapq.heappush(ready, node_index[u])
    if len(order) != len(moved_set):
        raise RotationError("cyclic zero-delay dependences inside the rotated suffix")

    for v in order:
        lat_v = model.latency(graph.op(v))
        latest = ceiling - lat_v + 1
        for w in zero_delay_successors(graph, v, r):
            if w in start:
                latest = min(latest, start[w] - lat_v)
        cs = latest
        while True:
            inst = grid.find_instance(graph.op(v), cs)
            if inst is not None:
                grid.occupy(graph.op(v), cs, inst)
                start[v] = cs
                units[v] = inst
                break
            cs -= 1
    return Schedule(graph, model, start, units)
