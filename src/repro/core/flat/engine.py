"""The flat rotation engine: local rotations over integer arrays.

:class:`FlatEngine` is the ``flat`` backend (see
:func:`repro.core.engine.make_engine`): it drives
:class:`~repro.core.rotation.RotationState` through ``initial_state`` /
``down_rotate`` / ``compatible_with`` / ``stats``, counts
:class:`~repro.core.engine.EngineStats`, and keeps *all* per-rotation
state in the flat domain: every state it produces is a
tuple record — normalized starts, unit instances, per-edge ``dr``, dense
retiming vector — keyed by the state's ``engine_token``, zero-delay
adjacency becomes index lists, priorities become precompiled sort keys,
and the occupancy grid stores instance bitmasks.  Node ids only reappear
at the boundary — error messages and the lazily materialized
:class:`~repro.schedule.schedule.Schedule` / ``Retiming`` dicts.

A rotation is a local edit (paper Section 2): only the edges crossing the
moved set change ``dr``, so :meth:`FlatEngine.down_rotate` derives the
moved nodes' adjacency and keys in one pass over their incident edges and
re-places them on the chain tip's occupancy grid, freed and shifted in
place.  On top of that, three caches rest on one purity argument: a
rotation's outcome is a function of ``(starts, units, dr, size)`` alone —
the placement kernel is deterministic given the occupancy and the sort
keys (a function of ``dr``), and rotation counts only shift the key space
(``rv`` enters through ``dr``, never directly).  So a phase that returns
to a configuration it has been in cycles from there, and
:meth:`FlatEngine.replay_lap` finishes it without rotating (54 of the 65
rotations Heuristic 2's default search runs on the elliptic filter at
3A 2M before the certified stop).  The same argument memoizes the
wrap-period search (a function of ``(starts, dr)``) and depth reduction's
realizing retimings (a function of ``(starts, period)``).

Schedules and retimings are materialized lazily (:class:`_LazySchedule`,
:class:`_LazyRetiming`): the hot loop only ever needs the tuple records,
so the per-node dicts are built when a winner is actually inspected.

The golden parity suite pins this engine bit-identical to the naive path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dfg.graph import DFG
from repro.dfg.retiming import Retiming
from repro.dfg.analysis import _find_zero_delay_cycle
from repro.schedule.resources import ResourceModel
from repro.schedule.schedule import Schedule
from repro.core.engine import EngineStats, _STRUCTURAL_PRIORITIES
from repro.core.wrapping import WrappedSchedule
from repro.core.flat.graph import FlatGraph, FlatModel
from repro.core.flat.kernels import (
    FlatGrid,
    flat_list_schedule,
    flat_priority_columns,
    flat_topological_order,
    flat_wrap_period,
    retimed_delays,
    seed_grid,
    zero_delay_lists,
)
from repro.errors import RotationError, ZeroDelayCycleError
from repro.obs import tracer as _obs
from repro.obs.metrics import engine_metrics


class _LazyRetiming(Retiming):
    """A retiming backed by a dense ``rv`` tuple, materialized on demand.

    Equality, hashing, ``bumped`` — the whole :class:`Retiming` surface —
    work through the inherited code the moment ``_values`` is first
    touched; until then the object is three shared references.  ``rv``
    covers the graph's nodes in flat order; ``phantom`` carries any
    non-graph entries of a user-supplied initial retiming so the
    materialized mapping matches the scalar engines' ``bumped`` chains
    exactly.
    """

    __slots__ = ("_lz_nodes", "_lz_rv", "_lz_phantom")

    def __init__(self, nodes, rv, phantom):
        # No super().__init__: _values/_hash stay unset until __getattr__.
        self._lz_nodes = nodes
        self._lz_rv = rv
        self._lz_phantom = phantom

    def __getattr__(self, name):
        if name == "_values":
            values = {v: k for v, k in zip(self._lz_nodes, self._lz_rv) if k}
            if self._lz_phantom:
                values.update(self._lz_phantom)
            self._values = values
            return values
        if name == "_hash":
            self._hash = None
            return None
        raise AttributeError(name)


class _LazySchedule(Schedule):
    """A complete schedule backed by flat vectors, materialized on demand.

    Span endpoints are preset (the record knows them), so ``length`` /
    ``normalized()`` — the only things the rotation loop reads — never
    build the per-node dicts; any other access materializes them through
    ``__getattr__`` and proceeds on the inherited code.
    """

    @classmethod
    def from_vectors(cls, graph, model, nodes, starts, units, last) -> "_LazySchedule":
        self = cls.__new__(cls)
        d = self.__dict__
        d["graph"] = graph
        d["model"] = model
        d["_first"] = 0
        d["_last"] = last
        d["_lz_nodes"] = nodes
        d["_lz_starts"] = starts
        d["_lz_units"] = units
        return self

    def __getattr__(self, name):
        if name == "_start":
            value = dict(zip(self._lz_nodes, self._lz_starts))
        elif name == "_units":
            value = dict(zip(self._lz_nodes, self._lz_units))
        else:
            raise AttributeError(name)
        self.__dict__[name] = value
        return value


def _mk_wrapped(sched, r, period) -> WrappedSchedule:
    """Build a WrappedSchedule without the frozen-dataclass ``__init__``
    (three ``object.__setattr__`` round-trips per offer add up)."""
    w = WrappedSchedule.__new__(WrappedSchedule)
    d = w.__dict__
    d["schedule"] = sched
    d["retiming"] = r
    d["period"] = period
    return w


_ROT_CLASSES = None


def _rot_classes():
    """Cached ``(RotationState, RotationStep)``.

    ``repro.core.rotation`` imports the engines, so the import cannot live
    at module scope; caching it here spares the ``sys.modules`` hop the
    in-function ``import`` statement pays on every single rotation."""
    global _ROT_CLASSES
    if _ROT_CLASSES is None:
        from repro.core.rotation import RotationState, RotationStep

        _ROT_CLASSES = (RotationState, RotationStep)
    return _ROT_CLASSES


class _Key:
    """Memo-key tuple with its hash computed once.

    Lap detection and the wrap memo key on large int tuples; plain tuple
    keys re-hash every element on every lookup *and* every insert.  Records
    cache one ``_Key`` per memo and the dicts hash it in O(1) afterwards
    (bucket collisions still compare the underlying tuples, which is
    cheap: memo hits share the element tuples, so equality short-circuits
    on identity).
    """

    __slots__ = ("t", "h")

    def __init__(self, t):
        self.t = t
        self.h = hash(t)

    def __hash__(self):
        return self.h

    def __eq__(self, other):
        return self.t == other.t


class _VecState:
    """Tuple record of one engine-produced state (all normalized).

    ``hk`` / ``wk`` lazily cache the lap key and the wrap-memo key (see
    :class:`_Key`).
    """

    __slots__ = ("starts", "units", "dr", "rv", "last", "phantom", "hk", "wk")

    def __init__(self, starts, units, dr, rv, last, phantom):
        self.starts: Tuple[int, ...] = starts
        self.units: Tuple[int, ...] = units
        self.dr: Tuple[int, ...] = dr
        self.rv: Tuple[int, ...] = rv
        self.last: int = last
        self.phantom: dict = phantom
        self.hk = None
        self.wk = None


class _StructView:
    """Caches of one retimed structure, keyed by its ``dr`` tuple.

    Keyed by what the placement actually depends on — the ``dr`` vector —
    instead of the retiming, so every rotation-count shift of the same
    structure shares one entry.  Only whole-graph placements (initial
    schedules, session repairs) and the mobility priority build one;
    rotations derive what they need from the moved subgraph
    (:meth:`FlatEngine._moved_subgraph`).
    """

    __slots__ = ("zsucc", "zpred", "skey")

    def __init__(self, zsucc, zpred, skey):
        self.zsucc: List[List[int]] = zsucc
        self.zpred: List[List[int]] = zpred
        self.skey: List[Tuple[int, ...]] = skey


# Backstop bound for the per-engine memos.  A single solve stays far
# below it (a few thousand distinct states); only a very long-lived
# session could accumulate enough to matter, and clearing is always safe —
# any state rebuilds cold from its schedule.
_MEMO_LIMIT = 1 << 17
#: Struct views kept per engine before the store is cleared.
_MAX_VIEWS = 4096


class FlatEngine:
    """Array-backed rotation engine (``backend="flat"``).

    One engine serves one ``(graph, model, priority)`` triple; the graph is
    snapshotted once into a :class:`FlatGraph` and the snapshot's epoch is
    recorded (:meth:`compatible_with` compares it against the live graph's
    epoch, falling back to the naive path after unsynchronized in-place
    mutation).  :meth:`resync` recompiles the snapshot after mutation —
    the MutableSchedulingSession path.
    """

    backend_name = "flat"

    def __init__(
        self,
        graph: DFG,
        model: ResourceModel,
        priority="descendants",
    ):
        if priority not in _STRUCTURAL_PRIORITIES:
            raise ValueError(
                f"{self.backend_name} backend supports priorities "
                f"{sorted(_STRUCTURAL_PRIORITIES)}, got {priority!r}"
            )
        self.graph = graph
        self.model = model
        self.priority = priority
        self._stats = EngineStats()
        self.fg = FlatGraph(graph)
        self.fm = FlatModel(self.fg, model)
        # Graph epoch the snapshot was compiled at; resync recompiles it
        # after in-place mutation (session path).
        self._epoch = graph.epoch
        self._next_token = 0
        # Backend-specific counters, reported as ``extras`` in the unified
        # metrics schema (repro.obs.metrics) — they have no counterpart in
        # the shared EngineStats semantics.
        self._extras: Dict[str, int] = dict.fromkeys((
            "chain_tip_reuses", "wrap_memo_hits", "realize_memo_hits",
            "lap_replays", "rotations_replayed",
        ), 0)
        self._reset_caches()

    def _reset_caches(self) -> None:
        # Node list handed to lazy schedules and retimings.  Every compile
        # makes a fresh list, so outstanding lazies keep materializing
        # against the node order they were minted under.
        self._node_list: List = self.fg.nodes
        # dr tuple -> _StructView.
        self._svs: Dict[Tuple[int, ...], _StructView] = {}
        # engine_token -> _VecState for every state this engine produced.
        self._vstates: Dict[int, _VecState] = {}
        # Wrap-period and realizing-retiming memos (see the module
        # docstring for the purity argument).
        self._wrap_memo: Dict[_Key, int] = {}
        self._realize_memo: Dict[tuple, Retiming] = {}
        # Live chain-tip occupancy grid: a rotation whose parent is the
        # last-placed state frees the moved slots and O(1)-shifts
        # instead of reseeding from scratch.
        self._tip_grid: Optional[FlatGrid] = None
        self._tip_gtoken: Optional[int] = None
        self._pending_tip: Optional[FlatGrid] = None

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Snapshot of the instrumentation counters as a plain dict."""
        # EngineStats holds only ints: a shallow copy equals asdict()
        # without its per-field recursion, which every session repair pays.
        return dict(vars(self._stats))

    def metrics(self) -> Dict[str, object]:
        """The :data:`repro.obs.metrics.METRICS_SCHEMA` snapshot: the shared
        engine counters plus this backend's extras (chain-tip reuse, wrap
        and realize memo hits, lap replays)."""
        return engine_metrics(
            self.stats(), self.backend_name, type(self).__module__,
            extras=dict(self._extras),
        )

    def compatible_with(self, state) -> bool:
        """Whether a state can be driven by this engine's caches."""
        return (
            state.graph is self.graph
            and state.model is self.model
            and state.priority == self.priority
            and self._epoch == self.graph.epoch
        )

    # -- resynchronization (MutableSchedulingSession path) --------------
    def resync(self, model: Optional[ResourceModel] = None) -> None:
        """Recompile the engine against the live graph after in-place edits.

        ``model`` optionally replaces the resource model.  The FlatGraph
        and FlatModel snapshots are compiled afresh, and the struct views,
        the state records, every memo and the chain tip are cleared — they
        depend on both graph and model.
        """
        if model is not None:
            self.model = model
        self.fg = FlatGraph(self.graph)
        self.fm = FlatModel(self.fg, self.model)
        self._reset_caches()
        self._epoch = self.graph.epoch

    # -- records -------------------------------------------------------
    def _rv_phantom(self, r: Retiming) -> Tuple[Tuple[int, ...], dict]:
        """Dense rotation counts + non-graph entries of a retiming."""
        if type(r) is _LazyRetiming and r._lz_nodes is self._node_list:
            return r._lz_rv, r._lz_phantom
        fg = self.fg
        rv = tuple(fg.rvec(r))
        index = fg.index
        phantom = {v: r[v] for v in r if v not in index}
        return rv, phantom

    def _dr_of(self, rv) -> Tuple[int, ...]:
        """``dr`` tuple of a dense rotation vector."""
        return tuple(retimed_delays(self.fg, rv))

    def _rec_for(self, state) -> _VecState:
        """The tuple record of a state — tracked, or rebuilt cold.

        States minted by this engine resolve by token; anything else
        (rebound or unpickled states) is reconstructed from its normalized
        schedule and retiming.
        """
        token = state.engine_token
        if token is not None:
            rec = self._vstates.get(token)
            if rec is not None:
                return rec
        fg = self.fg
        sched = state.schedule.normalized()
        rv, phantom = self._rv_phantom(state.retiming)
        dr = self._dr_of(rv)
        if isinstance(sched, _LazySchedule) and sched.__dict__.get("_lz_nodes") is self._node_list:
            starts = sched.__dict__["_lz_starts"]
            units = sched.__dict__["_lz_units"]
            last = sched.__dict__["_last"]
        else:
            starts = tuple(sched.start(v) for v in fg.nodes)
            units = tuple(sched.unit_index(v) for v in fg.nodes)
            last = sched.last_cs
        return _VecState(starts, units, dr, rv, last, phantom)

    def _mint(self, starts, units, dr, rv, last, phantom, r, state, step):
        """Register a fresh record and wrap it as a RotationState.

        The state is built through ``__new__`` + direct ``__dict__`` fill:
        ``RotationState`` is a frozen dataclass with no ``__post_init__``,
        so this is identical to calling the constructor minus eight
        ``object.__setattr__`` round-trips per rotation.
        """
        RotationState = _rot_classes()[0]
        self._next_token += 1
        token = self._next_token
        if len(self._vstates) > _MEMO_LIMIT:  # pragma: no cover - backstop
            self._vstates.clear()
        tip = self._pending_tip
        if tip is not None:
            self._pending_tip = None
            self._tip_grid = tip
            self._tip_gtoken = token
        self._vstates[token] = _VecState(starts, units, dr, rv, last, phantom)
        sched = _LazySchedule.from_vectors(
            self.graph, self.model, self._node_list, starts, units, last
        )
        st = RotationState.__new__(RotationState)
        d = st.__dict__
        d["graph"] = self.graph
        d["model"] = self.model
        d["retiming"] = r
        d["schedule"] = sched
        d["priority"] = state.priority if state is not None else self.priority
        d["trace"] = state.trace + (step,) if step is not None else ()
        d["engine"] = self
        d["engine_token"] = token
        return st

    def _settle(self, start: List[int], units: List[int], grid: FlatGrid):
        """Normalize a placed start vector and queue ``grid`` (shifted to
        match) as the chain tip of the state about to be minted.

        Returns ``(starts, units, last)`` as tuples/int.
        """
        lo = min(start)
        if lo:
            start = [s - lo for s in start]
            grid.shift(-lo)
        self._pending_tip = grid
        lat = self.fm.node_latency
        last = max([s + lat[i] for i, s in enumerate(start)]) - 1
        return tuple(start), tuple(units), last

    # -- struct views --------------------------------------------------
    def _sv_store(self, dr_key: Tuple[int, ...], sv: _StructView) -> _StructView:
        if len(self._svs) >= _MAX_VIEWS:
            self._svs.clear()
            self._stats.view_evictions += 1
        self._svs[dr_key] = sv
        return sv

    def _sv_for(self, dr_key: Tuple[int, ...], r_factory) -> _StructView:
        """The struct view of a ``dr`` vector (built once per structure).

        ``r_factory`` returns the retiming a zero-delay cycle is reported
        against.
        """
        sv = self._svs.get(dr_key)
        if sv is not None:
            self._stats.view_hits += 1
            return sv
        tr = _obs.active
        traced = tr.enabled
        if traced:
            tr.begin("flat.build")
        try:
            self._stats.view_builds += 1
            self._stats.edges_rescanned += self.fg.m
            zsucc, zpred = zero_delay_lists(self.fg, dr_key)
            order = flat_topological_order(zsucc)
            if order is None:
                raise ZeroDelayCycleError(
                    _find_zero_delay_cycle(self.fg.graph, r_factory())
                )
            if self.priority == "mobility":
                self._stats.priority_full_rebuilds += 1
            if traced:
                tr.begin("kernel.priority_columns")
            skey = flat_priority_columns(
                self.priority, self.fm.node_time, zsucc, order
            )[2]
            if traced:
                tr.end()
        finally:
            if traced:
                tr.end()
        return self._sv_store(dr_key, _StructView(zsucc, zpred, skey))

    def _moved_subgraph(self, rec: _VecState, moved_idx, error, r_factory):
        """One pass over the moved nodes' incident edges: the rotated ``dr``
        tuple, plus ``zsucc`` / ``zpred`` / ``skey`` n-long lists filled for
        the moved nodes only (``None`` elsewhere).

        Bumping the moved set by one changes exactly the edges between a
        moved and an unmoved node (``+1`` leaving the set, ``-1`` entering
        it); a negative result raises :class:`RotationError` (message from
        ``error()``).  The placement kernel reads adjacency and keys of its
        ``todo`` nodes alone, so nothing else is derived.  Every edge
        leaving the moved set gains a delay, so a moved node's zero-delay
        descendants are all moved and its priority depends on the moved
        subgraph alone.  Edges inside it keep their ``dr`` and latencies
        are >= 1, so decreasing start in the (legal) parent schedule is a
        reverse topological order.  Mobility depends on the whole graph's
        deadline: its keys come from the full :meth:`_sv_for` build
        (``r_factory`` gives the retiming a zero-delay cycle is reported
        against).
        """
        fg = self.fg
        esrc, edst, out_at, in_at = fg.esrc, fg.edst, fg.out_at, fg.in_at
        old = rec.dr
        dr_l = list(old)
        n = fg.n
        moved = set(moved_idx)
        zsucc: List[Optional[List[int]]] = [None] * n
        zpred: List[Optional[List[int]]] = [None] * n
        scanned = 0
        for i in moved_idx:
            out, inc = out_at[i], in_at[i]
            scanned += len(out) + len(inc)
            lst: List[int] = []
            for k in out:
                w = edst[k]
                if w in moved:
                    d = old[k]
                else:
                    d = dr_l[k] = old[k] + 1
                    if d < 0:
                        raise RotationError(error())
                if not d and w not in lst:
                    lst.append(w)
            zsucc[i] = lst
            lst = []
            for k in inc:
                u = esrc[k]
                if u in moved:
                    d = old[k]
                else:
                    d = dr_l[k] = old[k] - 1
                    if d < 0:
                        raise RotationError(error())
                if not d and u not in lst:
                    lst.append(u)
            zpred[i] = lst
        self._stats.edges_rescanned += scanned
        dr = tuple(dr_l)
        priority = self.priority
        if priority == "mobility":
            return dr, zsucc, zpred, self._sv_for(dr, r_factory).skey
        times = self.fm.node_time
        skey: List[Optional[Tuple[int, ...]]] = [None] * n
        order = sorted(moved_idx, key=rec.starts.__getitem__, reverse=True)
        reach = [0] * n
        if priority == "descendants":
            for v in order:
                acc = 0
                for w in zsucc[v]:
                    acc |= (1 << w) | reach[w]
                reach[v] = acc
                skey[v] = (-acc.bit_count(), v)
        else:
            height = [0] * n
            comb = priority == "combined"
            for v in order:
                acc = best = 0
                for w in zsucc[v]:
                    acc |= (1 << w) | reach[w]
                    hw = height[w]
                    if hw > best:
                        best = hw
                best += times[v]
                reach[v] = acc
                height[v] = best
                skey[v] = (-best, -acc.bit_count(), v) if comb else (-best, v)
        return dr, zsucc, zpred, skey

    # -- placement kernels ---------------------------------------------
    def _place(self, zsucc, zpred, skey, start, units, todo, grid: FlatGrid) -> None:
        """Earliest-fit list scheduling of ``todo`` (traced)."""
        tr = _obs.active
        if tr.enabled:
            tr.begin("kernel.list_schedule", todo=len(todo))
            try:
                flat_list_schedule(
                    self.fg, self.fm, zsucc, zpred, skey,
                    start, units, todo, 0, grid,
                )
            finally:
                tr.end()
        else:
            flat_list_schedule(
                self.fg, self.fm, zsucc, zpred, skey,
                start, units, todo, 0, grid,
            )

    def _wrap_period(self, starts, dr) -> int:
        return flat_wrap_period(self.fg, self.fm, starts, dr)

    # -- engine-backed RotationState operations ------------------------
    def initial_state(self, retiming: Optional[Retiming] = None):
        """Engine-backed ``RotationState.initial``: a whole-graph placement
        over the ``dr``-keyed struct view (a re-seed of a structure seen
        before reuses its view)."""
        r = retiming if retiming is not None else Retiming.zero()
        rv, phantom = self._rv_phantom(r)
        dr = self._dr_of(rv)
        self._stats.initial_schedules += 1
        # Raises ZeroDelayCycleError like full_schedule.
        sv = self._sv_for(dr, lambda: r)
        n = self.fg.n
        start: List[Optional[int]] = [None] * n
        units_l: List[Optional[int]] = [None] * n
        grid = FlatGrid(self.fm)
        self._place(sv.zsucc, sv.zpred, sv.skey, start, units_l, range(n), grid)
        starts, units, last = self._settle(start, units_l, grid)
        return self._mint(starts, units, dr, rv, last, phantom, r, None, None)

    def repair(self, fixed_start, fixed_units, todo, r: Retiming):
        """Re-place ``todo`` against fixed placements under retiming ``r``.

        The session's post-edit repair primitive: behaviorally identical to
        the naive ``_list_schedule`` call with the same arguments (pinned
        bit-for-bit by the incremental-parity oracle), run over the flat
        columns with a reseeded grid.  Returns a minted chain-tip
        :class:`RotationState`, so follow-up rotations start from its
        record, struct view and grid.
        """
        rv, phantom = self._rv_phantom(r)
        dr = self._dr_of(rv)
        sv = self._sv_for(dr, lambda: r)
        fg = self.fg
        start: List[Optional[int]] = [None] * fg.n
        units: List[Optional[int]] = [None] * fg.n
        index = fg.index
        for v, cs in fixed_start.items():
            i = index[v]
            start[i] = cs
            units[i] = fixed_units.get(v)
        todo_idx = sorted(index[v] for v in todo)
        grid = seed_grid(fg, self.fm, start, units)
        self._stats.grid_reseeds += 1
        self._place(sv.zsucc, sv.zpred, sv.skey, start, units, todo_idx, grid)
        starts, units_t, last = self._settle(start, units, grid)
        return self._mint(starts, units_t, dr, rv, last, phantom, r, None, None)

    def down_rotate(self, state, size: int):
        """Engine-backed ``DownRotate(G, s, i)``: the prefix moves to the
        end and is placed earliest-fit over the flat columns —
        behaviorally identical to the naive ``RotationState`` path."""
        if size < 1:
            raise RotationError(f"rotation size must be >= 1, got {size}")
        rec = self._rec_for(state)
        if size > rec.last:
            raise RotationError(
                f"rotation of size {size} is illegal on a schedule of length {rec.last + 1}"
            )
        self._stats.rotations += 1
        fg = self.fg
        moved_idx = [i for i, s in enumerate(rec.starts) if s < size]
        moved_nodes = tuple([fg.nodes[i] for i in moved_idx])
        error = lambda: (
            f"schedule prefix {list(moved_nodes)!r} is not down-rotatable — "
            "the current schedule is not a legal DAG schedule of G_R"
        )
        r_factory = lambda: state.retiming.bumped(moved_nodes, 1)
        tr = _obs.active
        if tr.enabled:
            tr.begin("flat.derive", moved=len(moved_idx))
            try:
                dr, zsucc, zpred, skey = self._moved_subgraph(
                    rec, moved_idx, error, r_factory
                )
            finally:
                tr.end()
        else:
            dr, zsucc, zpred, skey = self._moved_subgraph(
                rec, moved_idx, error, r_factory
            )
        start: List[Optional[int]] = [s - size for s in rec.starts]
        units_l: List[Optional[int]] = list(rec.units)
        for i in moved_idx:
            start[i] = None
            units_l[i] = None
        if self._tip_grid is not None and state.engine_token == self._tip_gtoken:
            # Delta path: free the rotated slots, O(1)-shift the rest.
            grid = self._tip_grid
            self._tip_grid = None
            grid.release_many(moved_idx, rec.starts, rec.units)
            self._stats.grid_released_slots += len(moved_idx)
            grid.shift(-size)
            self._stats.grid_delta_rotations += 1
            self._extras["chain_tip_reuses"] += 1
        else:
            grid = seed_grid(fg, self.fm, start, units_l)
            self._stats.grid_reseeds += 1
        self._place(zsucc, zpred, skey, start, units_l, moved_idx, grid)
        starts, units, last = self._settle(start, units_l, grid)
        new_rv = list(rec.rv)
        for i in moved_idx:
            new_rv[i] += 1
        rv = tuple(new_rv)
        new_r = _LazyRetiming(self._node_list, rv, rec.phantom)
        rstep = _rot_classes()[1]("down", size, moved_nodes, rec.last + 1, last + 1)
        return self._mint(starts, units, dr, rv, last, rec.phantom, new_r, state, rstep)

    def lap_key(self, state) -> _Key:
        """A state's lap key ``(starts, units, dr)``: everything
        a rotation's outcome depends on, rotation counts left out.
        :func:`repro.core.phases.rotation_phase` detects laps on it."""
        rec = self._rec_for(state)
        hk = rec.hk
        if hk is None:
            hk = rec.hk = _Key((rec.starts, rec.units, rec.dr))
        return hk

    def replay_lap(self, anchor, lap, remaining: int, best):
        """Finish a phase that is back in ``anchor``'s configuration.

        ``lap`` holds the states the phase produced since ``anchor``, the
        last being the repeat.  Each of the ``remaining`` rotations steps
        through the lap's configurations again, with the rotation counts
        advanced by the lap's displacement ``Δ = rv(lap[-1]) - rv(anchor)``
        each time round (``dr`` is unchanged, so ``Δ`` is constant on
        each weakly connected component).  Every lap state was offered
        already, so ``best``'s length stands: the offers are counted, the
        states tying it are admitted in offer order until the cap fills,
        and only those and the phase's final state are minted, each with
        its exact retiming and trace.  An admitted tie that makes
        ``best.done`` hold ends the phase there: only the offers up to it
        are counted.  Returns the final state.
        """
        p = len(lap)
        recs = [self._rec_for(s) for s in lap]
        delta = [a - b for a, b in zip(recs[-1].rv, self._rec_for(anchor).rv)]
        head = lap[-1].trace
        steps = head[len(head) - p:]

        def rv_at(m: int) -> Tuple[int, ...]:
            # The m-th replayed rotation lands on lap[(m - 1) % p], one
            # more Δ along for every lap completed.
            k = (m - 1) // p + 1
            return tuple([r + k * d for r, d in zip(recs[(m - 1) % p].rv, delta)])

        def mint(m: int, rv: Tuple[int, ...]):
            i = (m - 1) % p
            rec = recs[i]
            r = _LazyRetiming(self._node_list, rv, rec.phantom)
            st = self._mint(
                rec.starts, rec.units, rec.dr, rv, rec.last, rec.phantom, r, lap[i], None
            )
            d = st.__dict__
            d["trace"] = head + steps * (m // p) + steps[: m % p]
            d["_wrapped"] = _mk_wrapped(st.schedule, r, lap[i].wrapped().period)
            return st

        tied = {i for i, s in enumerate(lap) if s.wrapped().period == best.length}
        stop = remaining
        for m in range(1, remaining + 1) if tied else ():
            i = (m - 1) % p
            if i in tied:
                rv = rv_at(m)
                if not best.admit_tie((recs[i].starts, rv), lambda: mint(m, rv)):
                    break
                if best.done:
                    stop = m
                    break
        self._stats.rotations += stop
        self._extras["lap_replays"] += 1
        self._extras["rotations_replayed"] += stop
        best.replayed(stop)
        return mint(stop, rv_at(stop))

    def fp_state(self, state) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Engine-backed ``RotationState.fingerprint`` — the same
        ``(normalized starts, rotation counts)`` key; for a minted state
        the record *is* the key."""
        token = state.engine_token
        if token is not None:
            rec = self._vstates.get(token)
            if rec is not None:
                return rec.starts, rec.rv
        sched = state.schedule
        lo = sched.first_cs
        starts = tuple(sched.start(v) - lo for v in self.fg.nodes)
        return starts, self._rv_phantom(state.retiming)[0]

    def wrap_state(self, state) -> WrappedSchedule:
        """Engine-backed :func:`repro.core.wrapping.wrap` of a state — the
        same minimum-period search over the flat columns, memoized on
        ``(starts, dr)``."""
        rec = self._rec_for(state)
        key = rec.wk
        if key is None:
            key = rec.wk = _Key((rec.starts, rec.dr))
        period = self._wrap_memo.get(key)
        if period is not None:
            self._extras["wrap_memo_hits"] += 1
        else:
            tr = _obs.active
            if tr.enabled:
                tr.begin("kernel.wrap_period")
                try:
                    period = self._wrap_period(rec.starts, rec.dr)
                finally:
                    tr.end()
            else:
                period = self._wrap_period(rec.starts, rec.dr)
            if len(self._wrap_memo) > _MEMO_LIMIT:  # pragma: no cover - backstop
                self._wrap_memo.clear()
            self._wrap_memo[key] = period
        return _mk_wrapped(state.schedule.normalized(), state.retiming, period)

    def realize_wrapped(self, w: WrappedSchedule) -> WrappedSchedule:
        """Depth reduction on one tracker entry, from the flat vectors.

        Computes the same pointwise-minimal realizing retiming as
        :func:`repro.schedule.verify.realizing_retiming` — the converged
        Bellman-Ford distances are the unique pointwise-maximal solution
        of the difference constraints, so running them over index columns
        instead of node dicts changes nothing but the clock.  Schedules
        this engine did not mint (and the never-taken negative-cycle
        case) fall back to the generic path.
        """
        from repro.schedule.verify import realizing_retiming

        sched = w.schedule
        if not (
            type(sched) is _LazySchedule
            and sched.__dict__.get("_lz_nodes") is self._node_list
        ):
            return WrappedSchedule(sched, realizing_retiming(sched, w.period), w.period)
        tr = _obs.active
        traced = tr.enabled
        if traced:
            tr.begin("retiming.realize")
        try:
            starts = sched.__dict__["_lz_starts"]
            period = w.period
            # The realizing retiming depends only on (starts, period) —
            # tracker entries reaching the same schedule through different
            # rotation counts share one solve.
            rk = (starts, period)
            r = self._realize_memo.get(rk)
            if r is not None:
                self._extras["realize_memo_hits"] += 1
                return _mk_wrapped(sched, r, period)
            fg, fm = self.fg, self.fm
            lat = fm.node_latency
            esrc, edst, edelay = fg.esrc, fg.edst, fg.edelay
            m = fg.m
            bounds = [0] * m
            for k in range(m):
                u = esrc[k]
                overrun = starts[u] + lat[u] - starts[edst[k]]
                need = -(-overrun // period) if overrun > 0 else 0
                bounds[k] = edelay[k] - need
            dist = [0] * fg.n
            for _ in range(fg.n):
                changed = False
                for k in range(m):
                    nd = dist[esrc[k]] + bounds[k]
                    v = edst[k]
                    if nd < dist[v]:
                        dist[v] = nd
                        changed = True
                if not changed:
                    break
            else:  # pragma: no cover - unrealizable schedules never reach here
                return WrappedSchedule(
                    sched, realizing_retiming(sched, period), period
                )
            lo = min(dist, default=0)
            if lo:
                dist = [d - lo for d in dist]
            r = Retiming(dict(zip(self._node_list, dist)))
            if len(self._realize_memo) > _MEMO_LIMIT:  # pragma: no cover - backstop
                self._realize_memo.clear()
            self._realize_memo[rk] = r
        finally:
            if traced:
                tr.end()
        return _mk_wrapped(sched, r, w.period)
