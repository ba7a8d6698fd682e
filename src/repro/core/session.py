"""MutableSchedulingSession: incremental edit/repair scheduling.

The public API so far was solve-from-scratch: every call to
:func:`repro.core.scheduler.rotation_schedule` recompiles the graph,
rebuilds every cache, and runs the full rotation heuristic.  Yet the whole
machinery underneath — local rotations, reusable occupancy grids,
interval-collapsed wrap search — is built for *small deltas*.  This
module exposes that capability as a first-class session:

    session = open_session(graph, model)
    result = session.resolve()                      # full heuristic solve
    session.set_resource_counts({"adder": 2})
    session.remove_node("M7")
    repaired = session.resolve()                    # localized repair

Edits mutate the session's private copy of the graph through the DFG's
versioned-mutation protocol (edit log + epoch, see
:mod:`repro.dfg.graph`).  ``resolve()`` then:

1. asks the backend engine to :meth:`resync` — a fresh FlatGraph and
   FlatModel compile on the flat backend;
2. restricts the previous schedule's retiming to the surviving nodes,
   anchors new nodes next to their neighbours, and legalizes the result by
   Bellman relaxation over ``r(v) <= r(u) + d(e)`` (always feasible:
   delays are nonnegative);
3. computes the invalidated set — edit endpoints, new/retimed/slowed
   nodes, nodes bound to resized units — closed under zero-delay
   descendants in the legalized ``G_R`` (kept nodes provably keep a legal
   placement: their mutual ``dr`` values are unchanged up to the uniform
   normalization shift);
4. re-places only the invalidated nodes against the kept placements via
   the shared list-scheduling primitive (engine ``repair()`` on flat,
   direct ``_list_schedule`` on naive) and wraps;
5. ends, as a full solve does, in :func:`repro.core.scheduler.finish`:
   the Section 3.2 depth reduction and the result.

The repair is a deterministic function of (edited graph, previous
schedule): both backends produce bit-identical repairs, enforced by
the ``incremental-parity`` oracle in :mod:`repro.qa.incremental`.  A
``resolve(mode="solve")`` bypasses repair and reruns the full heuristic —
bit-identical to ``rotation_schedule`` on the edited graph.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.dfg.graph import DFG, Edge, NodeId
from repro.dfg.retiming import Retiming
from repro.dfg.analysis import topological_order
from repro.schedule.resources import ResourceModel, UnitSpec
from repro.schedule.schedule import Schedule
from repro.schedule.list_scheduler import _list_schedule
from repro.schedule.verify import check_schedule
from repro.core.engine import check_config, make_engine
from repro.core.phases import HEURISTICS, BestTracker, rotation_phase
from repro.core.rotation import RotationState
from repro.core.scheduler import RotationResult, finish
from repro.errors import SchedulingError
from repro.obs import tracer as _obs

#: ``apply_edit`` protocol: the ``"edit"`` kinds a JSON edit script may use
#: (the same vocabulary as the session's direct methods).
EDIT_KINDS = (
    "add_node",
    "remove_node",
    "add_edge",
    "remove_edge",
    "set_delay",
    "set_exec_time",
    "set_resource_counts",
)


def _legalize_retiming(graph: DFG, seed_values: Dict[NodeId, int]) -> Retiming:
    """Smallest downward relaxation of ``seed_values`` legal on ``graph``.

    Bellman passes over ``r(v) <= r(u) + d(e)`` (the legality constraint
    ``dr(e) >= 0`` rewritten).  Always feasible: every cycle's delay sum is
    nonnegative, so the relaxation converges within ``|V| + 1`` passes.
    """
    values = dict(seed_values)
    edges = graph.edges
    for _ in range(graph.num_nodes + 1):
        changed = False
        for e in edges:
            bound = values[e.src] + e.delay
            if values[e.dst] > bound:
                values[e.dst] = bound
                changed = True
        if not changed:
            return Retiming(values).normalized(graph)
    raise SchedulingError(
        "retiming legalization failed to converge — negative-delay cycle?"
    )  # pragma: no cover - impossible with nonnegative edge delays


def _instance_problems(schedule: Schedule) -> List[str]:
    """Recorded unit instances out of range or double-booked (the class
    counts :func:`check_schedule` checks do not see instances)."""
    graph, model = schedule.graph, schedule.model
    held: Dict[Tuple[str, int, int], NodeId] = {}
    out: List[str] = []
    for v in graph.nodes:
        inst = schedule.unit_index(v)
        if inst is None:
            continue
        op = graph.op(v)
        unit = model.unit_for_op(op)
        if not 0 <= inst < unit.count:
            out.append(f"{v!r}: {unit.name} instance {inst} of {unit.count}")
            continue
        for off in model.busy_offsets(op):
            key = (unit.name, inst, schedule.start(v) + off)
            if key in held:
                out.append(f"{v!r} and {held[key]!r} share {unit.name} {inst} at CS {key[2]}")
            held[key] = v
    return out


class MutableSchedulingSession:
    """An editable (DFG, ResourceModel) pair with incremental re-solving.

    The session owns a private copy of the graph (pass ``copy_graph=False``
    to adopt the caller's instance — it will be mutated in place).  Edits
    are applied through the methods below or :meth:`apply_edit`;
    :meth:`resolve` returns a :class:`RotationResult` for the current
    state, repairing the previous schedule when one exists.
    """

    def __init__(
        self,
        graph: DFG,
        model: ResourceModel,
        *,
        heuristic: str = "h2",
        beta: Optional[int] = None,
        sigma: Optional[int] = None,
        priority: str = "descendants",
        cap: int = 64,
        backend: Optional[str] = None,
        copy_graph: bool = True,
    ):
        backend = check_config(heuristic, backend)
        self.graph = graph.copy() if copy_graph else graph
        self.model = model
        self.heuristic = heuristic
        self.beta = beta
        self.sigma = sigma
        self.priority = priority
        self.cap = cap
        self.backend = backend
        self._engine = make_engine(backend, self.graph, model, priority)
        self._epoch = self.graph.epoch
        self._dirty_units: Set[str] = set()
        self._model_dirty = False
        # The repair seed: the best pre-depth-reduction (schedule, retiming)
        # of the last resolve.  Depth reduction is re-applied after every
        # repair, so seeding from the reduced retiming would compound it.
        self._seed: Optional[Tuple[Schedule, Retiming]] = None
        self._result: Optional[RotationResult] = None
        self.metrics: Dict[str, int] = {
            "edits_applied": 0,
            "resolves": 0,
            "full_solves": 0,
            "repairs": 0,
            "nodes_invalidated": 0,
            "nodes_kept": 0,
            "engine_recompiles": 0,
        }

    # ------------------------------------------------------------------
    # edits
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, op: str = "op", *, time: Optional[int] = None) -> NodeId:
        """Add a computation node (scheduled on its first resolve)."""
        self.graph.add_node(node, op, time=time)
        self.metrics["edits_applied"] += 1
        return node

    def remove_node(self, node: NodeId) -> None:
        """Remove a node and all its incident edges."""
        self.graph.remove_node(node)
        self.metrics["edits_applied"] += 1

    def add_edge(self, src: NodeId, dst: NodeId, delay: int = 0) -> Edge:
        """Add a precedence edge with ``delay`` registers."""
        edge = self.graph.add_edge(src, dst, delay)
        self.metrics["edits_applied"] += 1
        return edge

    def remove_edge(self, edge: "Edge | int") -> None:
        """Remove an edge (by :class:`Edge` or integer id)."""
        eid = edge.eid if isinstance(edge, Edge) else edge
        self.graph.remove_edge(self.graph.edge_by_id(eid))
        self.metrics["edits_applied"] += 1

    def set_delay(self, edge: "Edge | int", delay: int) -> Edge:
        """Change an edge's register count in place."""
        new = self.graph.set_delay(edge, delay)
        self.metrics["edits_applied"] += 1
        return new

    def set_exec_time(self, node: NodeId, time: Optional[int]) -> None:
        """Set/clear a node's explicit computation time."""
        self.graph.set_exec_time(node, time)
        self.metrics["edits_applied"] += 1

    def set_resource_counts(self, counts: Mapping[str, int]) -> ResourceModel:
        """Resize unit classes; latencies, pipelining and binding are kept.

        Nodes bound to a *shrunk* class are invalidated on the next repair
        (their kept placements could exceed the new capacity); grown
        classes keep every placement.
        """
        names = {u.name for u in self.model.units}
        unknown = set(counts) - names
        if unknown:
            raise SchedulingError(f"unknown unit class(es) {sorted(unknown)}")
        units: List[UnitSpec] = []
        changed: Set[str] = set()
        shrunk: Set[str] = set()
        for spec in self.model.units:
            want = counts.get(spec.name, spec.count)
            if want != spec.count:
                changed.add(spec.name)
                if want < spec.count:
                    shrunk.add(spec.name)
                spec = UnitSpec(spec.name, want, spec.latency, spec.pipelined)
            units.append(spec)
        if not changed:
            return self.model
        binding = {
            op: u.name for u in self.model.units for op in self.model.ops_for_unit(u.name)
        }
        self.model = ResourceModel(units, binding)
        # Shrinking forces re-placement; growing only adds slack, but the
        # repair must still run under the new model (grid capacities).
        self._dirty_units |= shrunk
        self._model_dirty = True
        self.metrics["edits_applied"] += 1
        return self.model

    # -- JSON edit protocol --------------------------------------------
    def apply_edit(self, op: Mapping[str, Any]) -> Any:
        """Apply one edit-script entry (the ``rotsched session`` protocol).

        Entries are JSON objects with an ``"edit"`` kind from
        :data:`EDIT_KINDS` plus kind-specific fields; node references fall
        back to string matching (JSON cannot spell tuple ids), edge
        references are ``src``/``dst`` (+ optional ``nth`` among parallel
        edges) or a raw ``eid``.
        """
        kind = op.get("edit")
        if kind == "add_node":
            return self.add_node(op["node"], op.get("op", "op"), time=op.get("time"))
        if kind == "remove_node":
            return self.remove_node(self._resolve_node(op["node"]))
        if kind == "add_edge":
            return self.add_edge(
                self._resolve_node(op["src"]),
                self._resolve_node(op["dst"]),
                int(op.get("delay", 0)),
            )
        if kind == "remove_edge":
            return self.remove_edge(self._resolve_edge(op))
        if kind == "set_delay":
            return self.set_delay(self._resolve_edge(op), int(op["delay"]))
        if kind == "set_exec_time":
            t = op.get("time")
            return self.set_exec_time(self._resolve_node(op["node"]), None if t is None else int(t))
        if kind == "set_resource_counts":
            return self.set_resource_counts(
                {str(k): int(v) for k, v in op["counts"].items()}
            )
        raise SchedulingError(f"unknown edit kind {kind!r}; choose from {EDIT_KINDS}")

    def _resolve_node(self, spec: Any) -> NodeId:
        if spec in self.graph:
            return spec
        want = str(spec)
        for v in self.graph.nodes:
            if str(v) == want:
                return v
        raise SchedulingError(f"no node matching {spec!r} in session graph")

    def _resolve_edge(self, op: Mapping[str, Any]) -> Edge:
        if "eid" in op:
            return self.graph.edge_by_id(int(op["eid"]))
        src = self._resolve_node(op["src"])
        dst = self._resolve_node(op["dst"])
        matches = [e for e in self.graph.edges if e.src == src and e.dst == dst]
        if not matches:
            raise SchedulingError(f"no edge {src!r} -> {dst!r} in session graph")
        nth = int(op.get("nth", 0))
        if not 0 <= nth < len(matches):
            raise SchedulingError(
                f"edge {src!r} -> {dst!r}: nth={nth} out of range ({len(matches)} parallel)"
            )
        return matches[nth]

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self) -> RotationResult:
        """Full heuristic solve of the current state (never repairs)."""
        return self.resolve(mode="solve")

    def resolve(self, mode: Optional[str] = None, polish: int = 0) -> RotationResult:
        """A :class:`RotationResult` for the session's current state.

        ``mode=None`` repairs the previous schedule when one exists and
        falls back to a full solve otherwise; ``"solve"`` forces the full
        heuristic (bit-identical to ``rotation_schedule`` on the edited
        graph); ``"repair"`` requires a previous resolve.  ``polish`` runs
        that many extra down-rotations of size 1 after a repair (cheap
        local search; 0 keeps the repair fully deterministic across
        backends and is what the parity oracle pins).

        With no pending edits the previous result is returned as-is.
        """
        if mode not in (None, "repair", "solve"):
            raise SchedulingError(f"unknown resolve mode {mode!r}")
        edits = self.graph.edits_since(self._epoch)
        pending = edits is None or bool(edits) or self._model_dirty
        if mode == "repair" and self._seed is None:
            raise SchedulingError("nothing to repair — call resolve() or solve() first")
        if mode is None:
            mode = "repair" if self._seed is not None else "solve"
        if not pending and self._result is not None and mode == "repair":
            return self._result
        with _obs.active.span(
            "session.resolve",
            mode=mode,
            edits=0 if edits is None else len(edits),
            backend=self.backend,
        ):
            t0 = time.perf_counter()
            self._sync_engine(edits)
            if mode == "solve":
                result = self._full_solve(t0)
            else:
                result = self._repair(edits, polish, t0)
        self._result = result
        self.metrics["resolves"] += 1
        return result

    def _sync_engine(self, edits) -> None:
        if self._engine is False:
            self._epoch = self.graph.epoch
            return
        if edits is not None and not edits and not self._model_dirty:
            return
        self._engine.resync(self.model if self._model_dirty else None)
        self.metrics["engine_recompiles"] += 1
        self._epoch = self.graph.epoch

    def _full_solve(self, t0: float) -> RotationResult:
        """The configured heuristic on the current state with the session's
        engine, then the scheduler's :func:`finish`: bit-identical to
        ``rotation_schedule`` on the edited graph."""
        best: BestTracker = HEURISTICS[self.heuristic](
            self.graph,
            self.model,
            beta=self.beta,
            sigma=self.sigma,
            priority=self.priority,
            cap=self.cap,
            engine=self._engine,
        )
        result, seed = finish(
            best, self._engine, self.graph, self.model, self.heuristic,
            best.initial_length, t0,
        )
        self._adopt_seed(seed)
        self.metrics["full_solves"] += 1
        return result

    def seed(self, schedule: Schedule, retiming: Retiming) -> None:
        """Adopt a schedule of the current state, found elsewhere (a stored
        answer, say), as the repair seed: the next :meth:`resolve` repairs
        it as if this session had found it.

        Call it before any edit.  Raises :class:`SchedulingError`, and
        leaves the session as it was, unless the schedule places exactly
        the session's nodes, each recorded unit instance exists and is
        held by one node at a time, and
        :func:`~repro.schedule.verify.check_schedule` passes under
        ``retiming``.
        """
        edits = self.graph.edits_since(self._epoch)
        if edits is None or edits or self._model_dirty:
            raise SchedulingError("seed() needs a session with no pending edits")
        sched = Schedule(self.graph, self.model, schedule.start_map, schedule.unit_map)
        problems = check_schedule(sched, retiming) or _instance_problems(sched)
        if problems:
            raise SchedulingError(f"seed rejected: {problems[0]}")
        self._seed = (sched, Retiming({v: retiming[v] for v in self.graph.nodes}))
        self._result = None

    def _adopt_seed(self, wrapped) -> None:
        self._seed = (wrapped.schedule, wrapped.retiming)
        self._dirty_units.clear()
        self._model_dirty = False

    # -- repair pipeline ------------------------------------------------
    def _repair(self, edits, polish: int, t0: float) -> RotationResult:
        graph = self.graph
        prev_sched, prev_r = self._seed
        prev_start = prev_sched.start_map

        new_r, retimed = self._repair_retiming(prev_start, prev_r)
        # Surface a zero-delay cycle introduced by the edits as the same
        # error on every backend, before any placement work.
        topological_order(graph, new_r)

        if edits is None:
            # Edit log truncated: the delta is unknown, so every node is
            # re-placed (still a repair: the retiming seed survives).
            invalid = set(graph.nodes)
        else:
            seeds = self._repair_seeds(edits, prev_start, retimed)
            invalid = self._zero_delay_closure(seeds, new_r)

        todo = [v for v in graph.nodes if v in invalid]
        fixed_start: Dict[NodeId, int] = {}
        fixed_units: Dict[NodeId, int] = {}
        for v in graph.nodes:
            if v in invalid:
                continue
            fixed_start[v] = prev_start[v]
            inst = prev_sched.unit_index(v)
            if inst is not None:
                fixed_units[v] = inst

        with _obs.active.span("session.repair", invalidated=len(todo), kept=len(fixed_start)):
            state = self._repair_state(fixed_start, fixed_units, todo, new_r)

        best = BestTracker(cap=self.cap)
        best.offer(state)
        if polish and state.length > 1:
            rotation_phase(state, 1, polish, best)
        prev = self._result
        result, seed = finish(
            best, self._engine, graph, self.model, f"{self.heuristic}+repair",
            prev.length if prev is not None else best.length, t0,
        )
        self._adopt_seed(seed)
        self.metrics["repairs"] += 1
        self.metrics["nodes_invalidated"] += len(todo)
        self.metrics["nodes_kept"] += len(fixed_start)
        return result

    def _repair_retiming(
        self, prev_start: Mapping[NodeId, int], prev_r: Retiming
    ) -> Tuple[Retiming, Set[NodeId]]:
        """Legalized retiming for the edited graph, seeded from the previous
        one.  Returns ``(new_r, retimed)`` where ``retimed`` is the set of
        *surviving* nodes whose retiming moved relative to the others —
        their old placements are no longer trustworthy.

        Survivors that all shifted by one uniform constant did not move
        relative to each other (``dr`` on their mutual edges is shift-
        invariant), so the majority shift is factored out before comparing.
        """
        graph = self.graph
        values: Dict[NodeId, int] = {}
        new_nodes: List[NodeId] = []
        for v in graph.nodes:
            if v in prev_start:
                values[v] = prev_r[v]
            else:
                values[v] = 0
                new_nodes.append(v)
        for v in new_nodes:
            values[v] = self._anchor_retiming(v, values)
        new_r = _legalize_retiming(graph, values)
        survivors = [v for v in graph.nodes if v in prev_start]
        retimed: Set[NodeId] = set()
        if survivors:
            diffs = Counter(new_r[v] - prev_r[v] for v in survivors)
            top = max(diffs.values())
            shift = min(d for d, n in diffs.items() if n == top)
            retimed = {v for v in survivors if new_r[v] - prev_r[v] != shift}
        return new_r, retimed

    def _anchor_retiming(self, node: NodeId, values: Dict[NodeId, int]) -> int:
        """Initial retiming for a new node: inside the feasible window of
        its already-valued neighbours, as low as legality allows (clamped
        nonnegative so fresh nodes land in the current iteration)."""
        graph = self.graph
        lo: Optional[int] = None
        hi: Optional[int] = None
        for e in graph.out_edges(node):
            if e.dst == node:
                continue  # self-loop: dr = d regardless of r
            b = values.get(e.dst)
            if b is None:
                continue
            b -= e.delay  # r(node) >= r(dst) - d
            if lo is None or b > lo:
                lo = b
        for e in graph.in_edges(node):
            if e.src == node:
                continue
            b = values.get(e.src)
            if b is None:
                continue
            b += e.delay  # r(node) <= r(src) + d
            if hi is None or b < hi:
                hi = b
        r = lo if lo is not None else 0
        if r < 0:
            r = 0
        if hi is not None and r > hi:
            r = hi  # infeasible window: legalization relaxes the rest
        return r

    def _repair_seeds(
        self, edits, prev_start: Mapping[NodeId, int], retimed: Set[NodeId]
    ) -> Set[NodeId]:
        """Nodes whose placement an edit (or the retiming shuffle) touched."""
        graph = self.graph
        seeds: Set[NodeId] = set(retimed)
        for v in graph.nodes:
            if v not in prev_start:
                seeds.add(v)  # new node, never placed
        for ed in edits:
            kind = ed.kind
            if kind in ("add_edge", "remove_edge", "set_delay"):
                if ed.src in graph:
                    seeds.add(ed.src)
                if ed.dst in graph:
                    seeds.add(ed.dst)
            elif kind in ("add_node", "set_exec_time"):
                if ed.node in graph:
                    seeds.add(ed.node)
        if self._dirty_units:
            dirty = self._dirty_units
            model = self.model
            for v in graph.nodes:
                if model.unit_for_op(graph.op(v)).name in dirty:
                    seeds.add(v)
        return seeds

    def _zero_delay_closure(self, seeds: Set[NodeId], r: Retiming) -> Set[NodeId]:
        """Seeds plus their zero-delay descendants in ``G_r`` — everything
        whose earliest start can change when a seed moves."""
        graph = self.graph
        invalid = set(seeds)
        stack = list(seeds)
        while stack:
            u = stack.pop()
            for e in graph.out_edges(u):
                if r.dr(e) == 0 and e.dst not in invalid:
                    invalid.add(e.dst)
                    stack.append(e.dst)
        return invalid

    def _repair_state(
        self,
        fixed_start: Dict[NodeId, int],
        fixed_units: Dict[NodeId, int],
        todo: List[NodeId],
        r: Retiming,
    ) -> RotationState:
        engine = self._engine
        if engine is False:
            sched = _list_schedule(
                self.graph, self.model, dict(fixed_start), dict(fixed_units),
                list(todo), r, self.priority, 0,
            ).normalized()
            return RotationState(self.graph, self.model, r, sched, self.priority)
        return engine.repair(fixed_start, fixed_units, todo, r)


def open_session(
    graph: DFG,
    model: ResourceModel,
    **kwargs: Any,
) -> MutableSchedulingSession:
    """Open a :class:`MutableSchedulingSession` on ``(graph, model)``.

    Keyword arguments mirror the session constructor (``heuristic``,
    ``beta``, ``sigma``, ``priority``, ``cap``, ``backend``,
    ``copy_graph``).
    """
    return MutableSchedulingSession(graph, model, **kwargs)
