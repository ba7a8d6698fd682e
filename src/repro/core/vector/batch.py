"""Batched solving: many FlatGraphs stacked into one struct-of-arrays.

:class:`BatchedFlatGraph` concatenates the CSR columns of a cohort of
compiled ``(FlatGraph, FlatModel)`` pairs into shared offset tables with a
per-graph segment index, so the structural work of every member's initial
schedule — zero-delay extraction, topological layering, priority columns —
runs as *one* numpy pass over the disjoint union (no cross-graph edges
exist, so per-segment results equal the per-graph results exactly).

:func:`solve_batch` is the entry point: it dedupes identical graphs (grid
sweeps and fuzz cohorts regenerate the same seeded graph for several
cells), compiles the unique ones, runs the stacked initial pass, and
solves each unique graph once with a :class:`VectorEngine` seeded from its
segment — every duplicate request shares the solved
:class:`~repro.core.scheduler.RotationResult`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.dfg.graph import DFG
from repro.schedule.resources import ResourceModel
from repro.core.flat.graph import FlatGraph, FlatModel, structural_signature
from repro.core.vector._compat import require_numpy
from repro.core.flat.engine import _StructView
from repro.core.vector.engine import VectorEngine
from repro.core.vector.kernels import (
    _edge_groups,
    _levels,
    vec_heights,
    vec_reach,
    vec_topo_layers,
    vec_zero_delay_lists,
)


def graph_signature(graph: DFG) -> tuple:
    """Hashable structural identity of a graph for batch deduplication.

    Delegates to :func:`repro.core.flat.graph.structural_signature` — the
    one definition of "everything scheduling reads from a graph", shared
    with the serve-layer request fingerprint so the two dedup keys cannot
    drift apart.  Includes node ids (not just shape), so two graphs with
    equal signatures accept each other's schedules and retimings verbatim —
    the property that lets duplicates share one RotationResult.  The model,
    heuristic, priority and rotation sizes are *not* part of this key: one
    ``solve_batch`` call holds them constant for the whole cohort (callers
    batching across models must group first — the serve layer's cohort
    keys do exactly that).
    """
    return structural_signature(graph)


class BatchedFlatGraph:
    """Struct-of-arrays stack of compiled ``(FlatGraph, FlatModel)`` pairs."""

    def __init__(self, compiled: Sequence[Tuple[FlatGraph, FlatModel]]):
        np = require_numpy()
        self.members = list(compiled)
        node_base = [0]
        edge_base = [0]
        for fg, _fm in self.members:
            node_base.append(node_base[-1] + fg.n)
            edge_base.append(edge_base[-1] + fg.m)
        self.node_base = node_base
        self.edge_base = edge_base
        self.n_total = node_base[-1]
        self.m_total = edge_base[-1]
        if self.members:
            self.esrc = np.concatenate([
                np.array(fg.esrc, dtype=np.int64) + base
                for (fg, _), base in zip(self.members, node_base)
            ])
            self.edst = np.concatenate([
                np.array(fg.edst, dtype=np.int64) + base
                for (fg, _), base in zip(self.members, node_base)
            ])
            self.edelay = np.concatenate([
                np.array(fg.edelay, dtype=np.int64) for fg, _ in self.members
            ])
            self.node_time = np.concatenate([
                np.array(fm.node_time, dtype=np.int64) for _, fm in self.members
            ])
            self.seg_of_node = np.repeat(
                np.arange(len(self.members), dtype=np.int64),
                np.diff(np.array(node_base, dtype=np.int64)),
            )
        else:  # pragma: no cover - empty cohorts short-circuit in solve_batch
            empty = np.zeros(0, dtype=np.int64)
            self.esrc = self.edst = self.edelay = self.node_time = empty
            self.seg_of_node = empty

    def initial_pass(self, priority: str) -> Optional[List[Tuple[tuple, _StructView]]]:
        """Zero-retiming struct views for every member from one stacked pass.

        Returns ``[(dr0_key, view), ...]`` in member order — each seedable
        straight into a :class:`VectorEngine` — or ``None`` when any member
        has a zero-delay cycle at zero retiming (the caller then lets the
        per-graph solve raise its usual, precisely-attributed error).
        """
        np = require_numpy()
        n = self.n_total
        mask = self.edelay == 0
        zs = self.esrc[mask]
        zd = self.edst[mask]
        if zs.size > 1:
            pair = zs * n + zd
            _, first = np.unique(pair, return_index=True)
            if first.size != zs.size:
                keep = np.sort(first)
                zs = zs[keep]
                zd = zd[keep]
        rlayers = vec_topo_layers(n, zd, zs)
        if rlayers is None:
            return None

        # Stacked value columns.  Reach and heights are per-segment correct
        # as-is (masks and paths never cross segments); mobility needs the
        # deadline taken per segment instead of globally.
        counts = heights = mob = None
        if priority in ("descendants", "combined"):
            counts = [m.bit_count() for m in vec_reach(n, zs, zd, rlayers)]
        if priority in ("height", "combined"):
            heights = vec_heights(self.node_time, n, zs, zd, rlayers)
        if priority == "mobility":
            mob = self._segmented_mobility(np, n, zs, zd, rlayers)

        # Split the deduped zero-edge arrays back into per-member locals:
        # a stable sort by segment keeps each member's edge order intact.
        nmembers = len(self.members)
        eseg = self.seg_of_node[zs]
        order = np.argsort(eseg, kind="stable")
        zs_sorted = zs[order]
        zd_sorted = zd[order]
        ecnt = np.bincount(eseg, minlength=nmembers)
        eptr = np.zeros(nmembers + 1, dtype=np.int64)
        np.cumsum(ecnt, out=eptr[1:])

        out: List[Tuple[tuple, _StructView]] = []
        for i, (fg, _fm) in enumerate(self.members):
            base = self.node_base[i]
            nl = fg.n
            lzs = zs_sorted[eptr[i]:eptr[i + 1]] - base
            lzd = zd_sorted[eptr[i]:eptr[i + 1]] - base
            zsucc, zpred = vec_zero_delay_lists(nl, lzs, lzd)
            if priority == "descendants":
                col = counts[base:base + nl]
                skey = [(-c, v) for v, c in enumerate(col)]
            elif priority == "height":
                col = heights[base:base + nl]
                skey = [(-h, v) for v, h in enumerate(col)]
            elif priority == "combined":
                hcol = heights[base:base + nl]
                ccol = counts[base:base + nl]
                skey = [(-hcol[v], -ccol[v], v) for v in range(nl)]
            else:  # mobility
                col = mob[base:base + nl]
                skey = [(-m, v) for v, m in enumerate(col)]
            out.append((tuple(fg.edelay), _StructView(zsucc, zpred, skey)))
        return out

    def _segmented_mobility(self, np, n, zs, zd, rlayers) -> List[int]:
        """Per-node ``asap - alap`` with the deadline taken per segment."""
        times = self.node_time
        flayers = vec_topo_layers(n, zs, zd)
        assert flayers is not None  # reverse peel already proved acyclicity
        asap = np.zeros(n, dtype=np.int64)
        flevel = _levels(np, n, flayers)
        fperm, fptr = _edge_groups(np, flayers, flevel, zd)
        for l in range(1, len(flayers)):
            sel = fperm[fptr[l]:fptr[l + 1]]
            if sel.size:
                np.maximum.at(asap, zd[sel], asap[zs[sel]] + times[zs[sel]])
        finish = asap + times
        bases = np.array(self.node_base[:-1], dtype=np.int64)
        deadline_per_seg = np.maximum.reduceat(finish, bases)
        alap = deadline_per_seg[self.seg_of_node] - times
        rlevel = _levels(np, n, rlayers)
        rperm, rptr = _edge_groups(np, rlayers, rlevel, zs)
        for l in range(1, len(rlayers)):
            sel = rperm[rptr[l]:rptr[l + 1]]
            if sel.size:
                np.minimum.at(alap, zs[sel], alap[zd[sel]] - times[zs[sel]])
        return (asap - alap).tolist()


def solve_batch(
    graphs: Sequence[DFG],
    model: ResourceModel,
    heuristic: str = "h2",
    priority: str = "descendants",
    beta: Optional[int] = None,
    sigma: Optional[int] = None,
    stats: Optional[dict] = None,
):
    """Rotation-schedule a cohort of graphs under one resource model.

    Structurally identical graphs (see :func:`graph_signature`) are solved
    once and share their :class:`~repro.core.scheduler.RotationResult`;
    unique graphs are compiled together, seeded from one
    :meth:`BatchedFlatGraph.initial_pass`, and solved with the vector
    backend.  Returns results in request order; ``stats`` (if given) is
    filled with the dedup accounting.
    """
    from repro.core.scheduler import RotationScheduler

    require_numpy()
    keys = [graph_signature(g) for g in graphs]
    unique: Dict[tuple, DFG] = {}
    for key, g in zip(keys, graphs):
        if key not in unique:
            unique[key] = g
    reps = list(unique.items())
    compiled = []
    for _key, g in reps:
        fg = FlatGraph(g)
        compiled.append((fg, FlatModel(fg, model)))
    batched = BatchedFlatGraph(compiled)
    seeds = batched.initial_pass(priority) if reps else []
    scheduler = RotationScheduler(
        model, heuristic=heuristic, beta=beta, sigma=sigma,
        priority=priority, backend="vector",
    )
    solved: Dict[tuple, object] = {}
    for i, (key, g) in enumerate(reps):
        engine = VectorEngine(g, model, priority, precompiled=compiled[i])
        if seeds is not None:
            engine.seed_struct_view(*seeds[i])
        solved[key] = scheduler.schedule(g, engine=engine)
    if stats is not None:
        stats["requests"] = len(graphs)
        stats["unique"] = len(reps)
        stats["deduped"] = len(graphs) - len(reps)
        stats["stacked_nodes"] = batched.n_total
        stats["stacked_edges"] = batched.m_total
        stats["seeded_views"] = len(seeds or [])
    return [solved[key] for key in keys]
