"""The incremental rotation engine (paper Section 2's implementation claim).

The paper's whole implementation argument is that a rotation is a *local*
edit: ``R := R (+) X`` changes ``dr(e)`` only on edges crossing the rotated
set ``X`` — "no graphs or weights on graph edges are modified".  The naive
code paths nevertheless pay full-graph prices on every rotation: the list
scheduler recomputes the whole priority table, reseeds an occupancy grid
from the entire schedule, and every zero-delay neighbourhood query rescans
incident edges.  This module makes the bookkeeping as local as the edit:

* :class:`GraphView` — per-retiming caches: the ``dr`` map, zero-delay
  adjacency lists, a topological order, and the list-scheduling priority
  table (plus the intermediate descendant sets / heights it is derived
  from).
* :class:`ViewCache` — builds views and, crucially, *derives* the view of
  ``R (+) X`` from the view of ``R`` touching only edges incident to ``X``
  and re-deriving priority entries only for the dirty set of nodes whose
  zero-delay neighbourhood (transitively) changed.
* :class:`RotationEngine` — threads a reusable occupancy grid through a
  rotation sequence with release-based deltas and O(1) shifts, drives the
  shared list-scheduling loop through view-backed contexts, and counts
  everything (:meth:`RotationEngine.stats`).

:class:`repro.core.rotation.RotationState` keeps its immutable public API
and delegates here when an engine is attached (the default); golden parity
tests pin the engine to the naive path bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.dfg.graph import DFG, NodeId, Timing
from repro.dfg.retiming import Retiming
from repro.dfg.analysis import (
    height_times,
    topological_order,
    zero_delay_adjacency,
)
from repro.schedule.resources import ResourceModel
from repro.schedule.schedule import Schedule
from repro.schedule.list_scheduler import (
    OccupancyGrid,
    SchedulingContext,
    _list_schedule,
)
from repro.schedule.priorities import get_priority
from repro.errors import RotationError, SchedulingError
from repro.obs import tracer as _obs
from repro.obs.metrics import engine_metrics

#: Priority names the view cache maintains incrementally.  ``mobility`` is
#: structure-determined (it only reads zero-delay topology), so unchanged
#: structure shares the old table, but a change forces a full rebuild.
_INCREMENTAL_PRIORITIES = {"descendants", "height", "combined"}
_STRUCTURAL_PRIORITIES = {"descendants", "height", "combined", "mobility"}

#: Selectable acceleration backends, fastest first.  ``flat`` = integer
#: kernels + rotation transition memos over CSR snapshots
#: (repro.core.flat), ``vector`` = flat with numpy kernels for graphs past
#: the scalar threshold (repro.core.vector; needs numpy), ``views`` =
#: the dict-based incremental engine below, ``naive`` = recompute everything
#: (no engine).  ``flat`` stays the default: it has no third-party imports.
BACKENDS = ("flat", "vector", "views", "naive")


def make_engine(backend, graph, model, priority="descendants", max_views: int = 4096):
    """Resolve a backend name to an engine instance (or ``False`` for naive).

    ``None`` selects the default (``flat``).  The flat and vector backends
    require a named structural priority — callable priorities fall back to
    the dict engine, which routes them through :func:`get_priority`
    unchanged.  ``vector`` raises :class:`~repro.errors.ReproError` with an
    install hint when numpy is missing; the other backends never touch it.
    All four backends are pinned bit-identical by the golden parity suite.
    """
    if backend is None:
        backend = "flat"
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}")
    if backend == "naive":
        return False
    if backend == "flat" and priority in _STRUCTURAL_PRIORITIES:
        from repro.core.flat.engine import FlatEngine

        return FlatEngine(graph, model, priority, max_views)
    if backend == "vector":
        if priority in _STRUCTURAL_PRIORITIES:
            from repro.core.vector._compat import require_numpy

            require_numpy()  # clear ReproError (install hint) before importing
            from repro.core.vector.engine import VectorEngine

            return VectorEngine(graph, model, priority, max_views)
        # Callable priorities take the same dict-engine fallback as flat.
    return RotationEngine(graph, model, priority, max_views)


@dataclass
class EngineStats:
    """Instrumentation counters, all monotonically increasing."""

    rotations: int = 0
    initial_schedules: int = 0
    view_hits: int = 0
    view_derives: int = 0
    view_builds: int = 0
    view_evictions: int = 0
    dirty_priority_nodes: int = 0
    priority_entries_reused: int = 0
    priority_full_rebuilds: int = 0
    edges_rescanned: int = 0
    grid_delta_rotations: int = 0
    grid_reseeds: int = 0
    grid_released_slots: int = 0


class GraphView:
    """Cached analyses of one retimed graph ``G_R`` (immutable once built)."""

    __slots__ = ("r", "dr", "zsucc", "zpred", "order", "prio", "reach", "heights")

    def __init__(self, r, dr, zsucc, zpred, order, prio, reach, heights):
        self.r: Retiming = r
        self.dr: Dict[int, int] = dr
        self.zsucc: Dict[NodeId, List[NodeId]] = zsucc
        self.zpred: Dict[NodeId, List[NodeId]] = zpred
        # A topological order of the zero-delay DAG; None on views derived
        # with structural changes (the derivation only needs a children-
        # first walk of the dirty set, not a global order).
        self.order: Optional[List[NodeId]] = order
        self.prio: Dict[NodeId, Tuple] = prio
        # Intermediates the incremental update rebuilds dirty entries from;
        # None when the priority is not maintained incrementally.  Reach
        # sets are node bitmasks (bit i = i-th node in graph order) so the
        # dirty recompute is a few machine-word ORs per node.
        self.reach: Optional[Dict[NodeId, int]] = reach
        self.heights: Optional[Dict[NodeId, int]] = heights


class ViewCache:
    """Retiming-keyed :class:`GraphView` store with incremental derivation.

    Standalone-usable: the chained rotation driver shares it purely as a
    priority/adjacency cache, without the occupancy machinery.
    """

    def __init__(
        self,
        graph: DFG,
        timing: Optional[Timing],
        priority="descendants",
        stats: Optional[EngineStats] = None,
        max_views: int = 4096,
    ):
        self.graph = graph
        self.timing = timing
        self.priority = priority
        self.stats = stats if stats is not None else EngineStats()
        self.max_views = max_views
        self._views: Dict[Retiming, GraphView] = {}
        self._kind = priority if priority in _STRUCTURAL_PRIORITIES else None
        self._time: Dict[NodeId, int] = {
            v: graph.time(v, timing) for v in graph.nodes
        }
        self._bit: Dict[NodeId, int] = {v: 1 << i for i, v in enumerate(graph.nodes)}

    # ------------------------------------------------------------------
    def get(self, r: Retiming) -> GraphView:
        """The view of ``G_r``, built from scratch on a miss."""
        view = self._views.get(r)
        if view is not None:
            self.stats.view_hits += 1
            return view
        view = self._build(r)
        self._store(r, view)
        return view

    def advance(self, old_r: Retiming, moved: Dict[NodeId, int], new_r: Retiming) -> GraphView:
        """The view of ``new_r = old_r (+) moved``, derived incrementally.

        Falls back to a full build when neither retiming is cached.
        """
        view = self._views.get(new_r)
        if view is not None:
            self.stats.view_hits += 1
            return view
        base = self._views.get(old_r)
        if base is None:
            view = self._build(new_r)
        else:
            view = self._derive(base, moved, new_r)
            self.stats.view_derives += 1
        self._store(new_r, view)
        return view

    def priority_table(self, r: Retiming) -> Dict[NodeId, Tuple]:
        """Priority table of ``G_r`` (the chained driver's entry point)."""
        return self.get(r).prio

    def apply_delta(self) -> None:
        """Resynchronize with an in-place graph mutation: every cached view
        read the old structure, so drop them all and refresh the node-keyed
        time/bitmask columns (node set or timing may have changed)."""
        self._views.clear()
        graph = self.graph
        self._time = {v: graph.time(v, self.timing) for v in graph.nodes}
        self._bit = {v: 1 << i for i, v in enumerate(graph.nodes)}

    # ------------------------------------------------------------------
    def _store(self, r: Retiming, view: GraphView) -> None:
        if len(self._views) >= self.max_views:
            # Simple wholesale eviction: correctness never depends on the
            # cache, and real rotation runs stay far below the cap.
            self._views.clear()
            self.stats.view_evictions += 1
        self._views[r] = view

    def _priority_from(
        self,
        reach: Optional[Dict[NodeId, int]],
        heights: Optional[Dict[NodeId, int]],
        node: NodeId,
    ) -> Tuple:
        if self.priority == "descendants":
            return (reach[node].bit_count(),)
        if self.priority == "height":
            return (heights[node],)
        return (heights[node], reach[node].bit_count())  # combined

    def _build(self, r: Retiming) -> GraphView:
        tr = _obs.active
        if tr.enabled:
            tr.begin("views.build")
            try:
                return self._build_inner(r)
            finally:
                tr.end()
        return self._build_inner(r)

    def _build_inner(self, r: Retiming) -> GraphView:
        graph = self.graph
        self.stats.view_builds += 1
        self.stats.edges_rescanned += graph.num_edges
        dr = {e.eid: r.dr(e) for e in graph.edges}
        zsucc, zpred = zero_delay_adjacency(graph, dr_map=dr)
        order = topological_order(graph, r, adj=zsucc)
        reach = heights = None
        if self.priority in ("descendants", "combined"):
            # Same recurrence as analysis.descendant_reach, on bitmasks.
            bit = self._bit
            reach = {}
            for v in reversed(order):
                acc = 0
                for w in zsucc[v]:
                    acc |= bit[w] | reach[w]
                reach[v] = acc
        if self.priority in ("height", "combined"):
            heights = height_times(graph, self.timing, r, adj=zsucc, order=order)
        if self.priority in _INCREMENTAL_PRIORITIES:
            prio = {v: self._priority_from(reach, heights, v) for v in graph.nodes}
        else:
            prio = get_priority(self.priority)(graph, self.timing, r)
            self.stats.priority_full_rebuilds += 1
        return GraphView(r, dr, zsucc, zpred, order, prio, reach, heights)

    def _derive(self, base: GraphView, moved: Dict[NodeId, int], new_r: Retiming) -> GraphView:
        """Derive ``G_{new_r}`` from ``G_{base.r}`` in O(edges incident to X)
        plus a dirty-set priority recompute."""
        tr = _obs.active
        if tr.enabled:
            tr.begin("views.derive", moved=len(moved))
            try:
                return self._derive_inner(base, moved, new_r)
            finally:
                tr.end()
        return self._derive_inner(base, moved, new_r)

    def _derive_inner(
        self, base: GraphView, moved: Dict[NodeId, int], new_r: Retiming
    ) -> GraphView:
        graph = self.graph
        dr = dict(base.dr)
        changed_src: Set[NodeId] = set()
        changed_dst: Set[NodeId] = set()
        seen_eids: Set[int] = set()
        scanned = 0
        for v in moved:
            for e in graph.out_edges(v):
                if e.eid in seen_eids:
                    continue
                seen_eids.add(e.eid)
                scanned += 1
                nd = e.delay + new_r[e.src] - new_r[e.dst]
                old = dr[e.eid]
                if nd == old:
                    continue
                dr[e.eid] = nd
                if (old == 0) != (nd == 0):
                    changed_src.add(e.src)
                    changed_dst.add(e.dst)
            for e in graph.in_edges(v):
                if e.eid in seen_eids:
                    continue
                seen_eids.add(e.eid)
                scanned += 1
                nd = e.delay + new_r[e.src] - new_r[e.dst]
                old = dr[e.eid]
                if nd == old:
                    continue
                dr[e.eid] = nd
                if (old == 0) != (nd == 0):
                    changed_src.add(e.src)
                    changed_dst.add(e.dst)
        self.stats.edges_rescanned += scanned

        if not changed_src and not changed_dst:
            # The zero-delay DAG is untouched: adjacency, order and every
            # structure-determined priority carry over verbatim.
            if self._kind is not None:
                self.stats.priority_entries_reused += graph.num_nodes
                return GraphView(
                    new_r, dr, base.zsucc, base.zpred, base.order,
                    base.prio, base.reach, base.heights,
                )
            prio = get_priority(self.priority)(graph, self.timing, new_r)
            self.stats.priority_full_rebuilds += 1
            return GraphView(new_r, dr, base.zsucc, base.zpred, base.order, prio, None, None)

        zsucc = dict(base.zsucc)
        zpred = dict(base.zpred)
        for u in changed_src:
            lst, seen = [], set()
            for e in graph.out_edges(u):
                if dr[e.eid] == 0 and e.dst not in seen:
                    seen.add(e.dst)
                    lst.append(e.dst)
            zsucc[u] = lst
        for v in changed_dst:
            lst, seen = [], set()
            for e in graph.in_edges(v):
                if dr[e.eid] == 0 and e.src not in seen:
                    seen.add(e.src)
                    lst.append(e.src)
            zpred[v] = lst

        if self.priority not in _INCREMENTAL_PRIORITIES:
            prio = get_priority(self.priority)(graph, self.timing, new_r)
            self.stats.priority_full_rebuilds += 1
            return GraphView(new_r, dr, zsucc, zpred, None, prio, None, None)

        # Dirty set: nodes whose zero-delay successor list changed, plus all
        # their zero-delay ancestors in either the old or the new DAG (they
        # may gain or lose descendants / height).
        dirty: Set[NodeId] = set(changed_src)
        stack = list(changed_src)
        while stack:
            n = stack.pop()
            for u in base.zpred[n]:
                if u not in dirty:
                    dirty.add(u)
                    stack.append(u)
            for u in zpred[n]:
                if u not in dirty:
                    dirty.add(u)
                    stack.append(u)
        self.stats.dirty_priority_nodes += len(dirty)
        self.stats.priority_entries_reused += graph.num_nodes - len(dirty)

        # Children-first walk of the dirty set (the zero-delay DAG is
        # acyclic, so a postorder DFS restricted to dirty nodes visits every
        # dirty successor before the node that reads it) — cheaper than
        # re-deriving a global topological order each rotation.
        post: List[NodeId] = []
        visited: Set[NodeId] = set()
        for root in dirty:
            if root in visited:
                continue
            visited.add(root)
            stack = [(root, iter(zsucc[root]))]
            while stack:
                node, it = stack[-1]
                descended = False
                for w in it:
                    if w in dirty and w not in visited:
                        visited.add(w)
                        stack.append((w, iter(zsucc[w])))
                        descended = True
                        break
                if not descended:
                    post.append(node)
                    stack.pop()

        reach = heights = None
        if base.reach is not None:
            bit = self._bit
            reach = dict(base.reach)
            for v in post:
                acc = 0
                for w in zsucc[v]:
                    acc |= bit[w] | reach[w]
                reach[v] = acc
        if base.heights is not None:
            heights = dict(base.heights)
            time = self._time
            for v in post:
                best = 0
                for w in zsucc[v]:
                    if heights[w] > best:
                        best = heights[w]
                heights[v] = best + time[v]
        prio = dict(base.prio)
        for v in dirty:
            prio[v] = self._priority_from(reach, heights, v)
        return GraphView(new_r, dr, zsucc, zpred, None, prio, reach, heights)


class _ViewContext(SchedulingContext):
    """View-backed :class:`SchedulingContext`: every lookup is a dict hit."""

    def __init__(self, engine: "RotationEngine", view: GraphView):
        super().__init__(engine.graph, engine.model, view.r, engine.priority)
        self._view = view
        self._engine = engine

    def priority_table(self) -> Dict[NodeId, Tuple]:
        return self._view.prio

    def zero_delay_preds(self, node: NodeId) -> List[NodeId]:
        return self._view.zpred[node]

    def zero_delay_succs(self, node: NodeId) -> List[NodeId]:
        return self._view.zsucc[node]

    def node_index(self) -> Dict[NodeId, int]:
        return self._engine.node_index


class RotationEngine:
    """Mutable-but-checkpointable context for a rotation sequence.

    One engine serves one ``(graph, model, priority)`` triple.  It owns the
    :class:`ViewCache` and a live occupancy grid that tracks the most
    recently produced schedule (the chain tip); rotating that state pays
    only release/occupy deltas, rotating any older state reseeds the grid
    (counted in :meth:`stats`).  All produced :class:`RotationState` objects
    remain immutable — the engine is pure acceleration, enforced by the
    golden parity suite.
    """

    backend_name = "views"

    def __init__(self, graph: DFG, model: ResourceModel, priority="descendants", max_views: int = 4096):
        self.graph = graph
        self.model = model
        self.priority = priority
        self._stats = EngineStats()
        self.views = ViewCache(graph, model.timing(), priority, self._stats, max_views)
        self.node_index: Dict[NodeId, int] = {v: i for i, v in enumerate(graph.nodes)}
        self._epoch = graph.epoch
        self._grid: Optional[OccupancyGrid] = None
        self._grid_token: Optional[int] = None
        self._starts: Dict[NodeId, int] = {}
        self._units: Dict[NodeId, int] = {}
        self._next_token = 0

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Snapshot of the instrumentation counters as a plain dict."""
        return asdict(self._stats)

    def metrics(self) -> Dict[str, object]:
        """The :data:`repro.obs.metrics.METRICS_SCHEMA` snapshot: shared
        engine counters only — the views backend has no extras."""
        return engine_metrics(self.stats(), self.backend_name, "repro.core.engine")

    def compatible_with(self, state) -> bool:
        """Whether a state can be driven by this engine's caches."""
        return (
            state.graph is self.graph
            and state.model is self.model
            and state.priority == self.priority
            and self._epoch == self.graph.epoch
        )

    # -- delta resynchronization (MutableSchedulingSession path) --------
    def apply_delta(self, edits=None, model: Optional[ResourceModel] = None) -> Dict[str, int]:
        """Resynchronize the engine after in-place graph/model mutation.

        Mirror of :meth:`repro.core.flat.engine.FlatEngine.apply_delta`.
        The dict engine's caches are node-keyed rather than index-packed,
        so there is nothing to splice: the view cache refreshes its per-node
        columns and drops the retiming-keyed views, the node-index table
        rebuilds, and the occupancy chain tip is abandoned.  ``edits`` is
        accepted for interface symmetry but only its presence matters.
        """
        if model is not None:
            self.model = model
            self.views.timing = model.timing()
        self.views.apply_delta()
        self.node_index = {v: i for i, v in enumerate(self.graph.nodes)}
        self._grid = None
        self._grid_token = None
        self._starts = {}
        self._units = {}
        self._epoch = self.graph.epoch
        return {"patched": 0, "recompiled": 1}

    def repair(self, fixed_start, fixed_units, todo, r: Retiming):
        """Re-place ``todo`` against fixed placements under retiming ``r``
        (the session's post-edit repair primitive; see FlatEngine.repair)."""
        from repro.core.rotation import RotationState

        view = self.views.get(r)
        grid = self._seed_grid(fixed_start, fixed_units)
        self._stats.grid_reseeds += 1
        sched = _list_schedule(
            self.graph, self.model, dict(fixed_start), dict(fixed_units),
            list(todo), r, self.priority, 0,
            ctx=_ViewContext(self, view), grid=grid,
        )
        sched, grid = self._normalize(sched, grid)
        token = self._adopt(sched, grid)
        return RotationState(
            self.graph, self.model, r, sched, self.priority,
            engine=self, engine_token=token,
        )

    # ------------------------------------------------------------------
    def initial_state(self, retiming: Optional[Retiming] = None):
        """Engine-backed ``RotationState.initial``: FullSchedule(G_r)."""
        from repro.core.rotation import RotationState

        r = retiming if retiming is not None else Retiming.zero()
        view = self.views.get(r)  # raises ZeroDelayCycleError like full_schedule
        grid = OccupancyGrid(self.model)
        sched = _list_schedule(
            self.graph, self.model, {}, {}, list(self.graph.nodes),
            r, self.priority, 0, ctx=_ViewContext(self, view), grid=grid,
        )
        sched, grid = self._normalize(sched, grid)
        token = self._adopt(sched, grid)
        self._stats.initial_schedules += 1
        return RotationState(
            self.graph, self.model, r, sched, self.priority,
            engine=self, engine_token=token,
        )

    def down_rotate(self, state, size: int):
        """Engine-backed ``DownRotate(G, s, i)`` — behaviorally identical to
        the naive path, with delta-maintained caches."""
        from repro.core.rotation import RotationState, RotationStep

        if size < 1:
            raise RotationError(f"rotation size must be >= 1, got {size}")
        if size >= state.length:
            raise RotationError(
                f"rotation of size {size} is illegal on a schedule of length {state.length}"
            )
        sched = state.schedule.normalized()
        first = sched.first_cs
        moved = sched.nodes_starting_in(first, first + size - 1)
        moved_set = set(moved)

        view = self.views.get(state.retiming)
        graph = self.graph
        for v in moved:
            for e in graph.in_edges(v):
                if e.src not in moved_set and view.dr[e.eid] < 1:
                    raise RotationError(
                        f"schedule prefix {moved!r} is not down-rotatable — "
                        "the current schedule is not a legal DAG schedule of G_R"
                    )  # pragma: no cover - guarded by construction
        new_r = state.retiming + Retiming.of_set(moved)
        self._stats.rotations += 1

        if not moved:  # pragma: no cover - impossible on a normalized schedule
            new_sched = sched.shifted(-size).normalized()
            step = RotationStep("down", size, (), sched.length, new_sched.length)
            return RotationState(
                graph, self.model, new_r, new_sched, state.priority,
                state.trace + (step,), engine=self, engine_token=None,
            )

        new_view = self.views.advance(
            state.retiming, {v: 1 for v in moved}, new_r
        )

        op_of = graph.op
        if (
            state.engine_token is not None
            and state.engine_token == self._grid_token
            and self._grid is not None
        ):
            # Delta path: free the rotated prefix, O(1)-shift the remainder.
            grid = self._grid
            self._grid = None  # the grid now belongs to this rotation
            for v in moved:
                grid.release(op_of(v), self._starts[v], self._units[v])
            self._stats.grid_released_slots += len(moved)
            grid.shift(-size)
            fixed_start = {
                v: cs - size for v, cs in self._starts.items() if v not in moved_set
            }
            fixed_units = {
                v: inst for v, inst in self._units.items() if v not in moved_set
            }
            self._stats.grid_delta_rotations += 1
        else:
            fixed_start = {
                v: sched.start(v) - size for v in graph.nodes if v not in moved_set
            }
            fixed_units = {
                v: sched.unit_index(v)
                for v in graph.nodes
                if v not in moved_set and sched.unit_index(v) is not None
            }
            grid = self._seed_grid(fixed_start, fixed_units)
            self._stats.grid_reseeds += 1

        new_sched = _list_schedule(
            graph, self.model, fixed_start, fixed_units, moved,
            new_r, self.priority, 0, ctx=_ViewContext(self, new_view), grid=grid,
        )
        new_sched, grid = self._normalize(new_sched, grid)
        token = self._adopt(new_sched, grid)
        step = RotationStep("down", size, tuple(moved), sched.length, new_sched.length)
        return RotationState(
            graph, self.model, new_r, new_sched, state.priority,
            state.trace + (step,), engine=self, engine_token=token,
        )

    # ------------------------------------------------------------------
    def _seed_grid(self, fixed_start: Dict[NodeId, int], fixed_units: Dict[NodeId, int]) -> OccupancyGrid:
        grid = OccupancyGrid(self.model)
        op_of = self.graph.op
        for v, cs in fixed_start.items():
            inst = fixed_units.get(v)
            if inst is None:
                inst = grid.find_instance(op_of(v), cs)
                if inst is None:
                    raise SchedulingError(
                        f"fixed placement infeasible: no {op_of(v)} unit at CS {cs} for {v!r}"
                    )
            grid.occupy(op_of(v), cs, inst)
        return grid

    def _normalize(self, sched: Schedule, grid: OccupancyGrid) -> Tuple[Schedule, OccupancyGrid]:
        lo = sched.first_cs
        if lo:
            sched = sched.shifted(-lo)
            grid.shift(-lo)
        return sched, grid

    def _adopt(self, sched: Schedule, grid: OccupancyGrid) -> int:
        """Make ``sched`` the engine's live chain tip and return its token."""
        self._next_token += 1
        token = self._next_token
        self._grid = grid
        self._grid_token = token
        self._starts = sched.start_map
        self._units = sched.unit_map
        return token


def strip_funcs(graph: DFG) -> DFG:
    """A copy of ``graph`` without node callables, safe to send to worker
    processes (benchmark builders attach local closures the pickler cannot
    serialize; scheduling never reads them)."""
    g = DFG(graph.name)
    for node in graph.nodes:
        g.add_node(
            node,
            graph.op(node),
            time=graph.explicit_time(node),
            label=graph.label(node),
            **graph.attrs(node),
        )
    for e in graph.edges:
        g.add_edge(e.src, e.dst, e.delay)
    return g
