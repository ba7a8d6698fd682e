"""Integer-array snapshots of a :class:`~repro.dfg.graph.DFG` and a resource model.

The dict-based graph is the right representation for construction and
analysis APIs — node ids are arbitrary hashables (``unfold`` produces
tuple ids), edges are objects — but every hot kernel of rotation
scheduling only ever needs *numbers*: which node, which edge, what delay,
what latency.  :class:`FlatGraph` compiles a DFG once into contiguous
integer columns (``array('q')`` + per-node incidence tuples) with an
id↔index table so the tuple ids survive, and :class:`FlatModel` compiles a
:class:`~repro.schedule.resources.ResourceModel` against those op-class
columns.  Everything downstream (:mod:`repro.core.flat.kernels`,
:class:`repro.core.flat.engine.FlatEngine`) indexes these arrays and never
hashes a node id again.

During a scheduling run both snapshots are fixed: a rotation never changes
the graph (the paper's point — only the retiming vector moves), so one
compile serves the run.  After a session edits the graph the engine
simply compiles a fresh snapshot (one pass over the edges).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

from repro.dfg.graph import DFG, NodeId, Timing
from repro.schedule.resources import ResourceModel


class FlatGraph:
    """Integer-array snapshot of a DFG (contiguous node/edge indices).

    Node index = position in ``graph.nodes`` (insertion order, the order
    every deterministic tie-break in this library already uses).  Edge
    index = position in ``graph.edges`` (insertion order; the original
    ``eid`` — which may have gaps after removals — is kept in ``eids``).
    """

    __slots__ = (
        "graph", "nodes", "index", "n", "m",
        "esrc", "edst", "edelay", "eids",
        "out_at", "in_at",
        "opclass", "op_names",
    )

    def __init__(self, graph: DFG):
        self.graph = graph
        self.nodes: List[NodeId] = graph.nodes
        self.index: Dict[NodeId, int] = {v: i for i, v in enumerate(self.nodes)}
        self.n = len(self.nodes)
        edges = graph.edges
        self.m = len(edges)
        index = self.index

        # One pass over the edges, in insertion order: appending position k
        # to out_at[src] / in_at[dst] reproduces graph.out_edges /
        # graph.in_edges order exactly (the DFG lists incident eids in
        # insertion order, and set_delay keeps an edge's id and position).
        esrc, edst, edelay, eids = array("q"), array("q"), array("q"), array("q")
        out_l: List[List[int]] = [[] for _ in range(self.n)]
        in_l: List[List[int]] = [[] for _ in range(self.n)]
        for k, e in enumerate(edges):
            si, di = index[e.src], index[e.dst]
            esrc.append(si)
            edst.append(di)
            edelay.append(e.delay)
            eids.append(e.eid)
            out_l[si].append(k)
            in_l[di].append(k)
        self.esrc, self.edst, self.edelay, self.eids = esrc, edst, edelay, eids
        # Per-node edge positions as tuples (faster to iterate from hot
        # loops than an array slice).
        self.out_at: List[Tuple[int, ...]] = [tuple(p) for p in out_l]
        self.in_at: List[Tuple[int, ...]] = [tuple(p) for p in in_l]

        # Op-class column: distinct op strings in first-appearance order.
        op_ids: Dict[str, int] = {}
        opclass = array("q")
        for v in self.nodes:
            op = graph.op(v)
            cid = op_ids.get(op)
            if cid is None:
                cid = op_ids[op] = len(op_ids)
            opclass.append(cid)
        self.opclass = opclass
        self.op_names: List[str] = list(op_ids)

    # ------------------------------------------------------------------
    def rvec(self, retiming) -> List[int]:
        """The retiming as a dense integer vector in node-index order."""
        return [retiming[v] for v in self.nodes]

    def to_dfg(self, name: Optional[str] = None) -> DFG:
        """Rebuild an equivalent DFG (round-trip identity check).

        Node ids, ops, explicit times, labels, funcs, attrs, edge order,
        delays and edge inits all survive; only the internal edge ids are
        renumbered densely.
        """
        src = self.graph
        g = DFG(src.name if name is None else name)
        for v in self.nodes:
            g.add_node(
                v, src.op(v),
                time=src.explicit_time(v),
                label=src._record(v).label,
                func=src.func(v),
                **src.attrs(v),
            )
        for k in range(self.m):
            e = src.edge_by_id(self.eids[k])
            new = g.add_edge(self.nodes[self.esrc[k]], self.nodes[self.edst[k]], self.edelay[k])
            init = src.edge_init(e)
            if init is not None:
                g.set_edge_init(new, init)
        return g


def structural_signature(graph: DFG) -> tuple:
    """Hashable identity of everything scheduling reads from a graph.

    Node ids (not just shape), ops, explicit exec-time overrides
    (:meth:`~repro.dfg.graph.DFG.set_exec_time` steers priorities and
    analyses), and the ``(src, dst, delay)`` edge list in insertion order —
    the order every deterministic tie-break keys on.  Two graphs with equal
    signatures accept each other's schedules and retimings verbatim, which
    is what lets the serve cache answer for a structurally identical
    request.  Simulation-only state (edge inits,
    node attrs/funcs/labels, the graph name) is deliberately excluded: it
    never reaches a scheduler.
    """
    nodes = tuple(graph.nodes)
    return (
        nodes,
        tuple(graph.op(v) for v in nodes),
        tuple(graph.explicit_time(v) for v in nodes),
        tuple((e.src, e.dst, e.delay) for e in graph.edges),
    )


def model_signature(model: ResourceModel) -> tuple:
    """Hashable identity of everything scheduling reads from a model.

    Unit specs in declaration order — name, count, latency and the
    ``pipelined`` flag (which changes busy offsets, hence wrapping) — plus
    the op→unit binding sorted by op.  Together with
    :func:`structural_signature` this is the complete per-(graph, model)
    half of a solve fingerprint; see ``docs/serving.md`` for the contract.
    """
    return (
        tuple((u.name, u.count, u.latency, u.pipelined) for u in model.units),
        tuple(sorted(model.binding.items())),
    )


class FlatModel:
    """A resource model compiled against a :class:`FlatGraph`'s op classes.

    Per-node columns resolve the two lookups the schedulers make for every
    placement decision — ``latency(op(v))`` and ``busy_offsets(op(v))`` —
    into direct array reads, and bind each node to a small integer unit id.
    """

    __slots__ = (
        "model", "unit_names", "unit_count",
        "node_unit", "node_latency", "node_offsets", "node_time",
        "min_occ", "max_unit_latency",
    )

    def __init__(self, fg: FlatGraph, model: ResourceModel, timing: Optional[Timing] = None):
        self.model = model
        if timing is None:
            timing = model.timing()
        unit_ids: Dict[str, int] = {}
        unit_count: List[int] = []
        cls_unit: List[int] = []
        cls_latency: List[int] = []
        cls_offsets: List[Tuple[int, ...]] = []
        min_occ = 1
        for op in fg.op_names:
            unit = model.unit_for_op(op)
            uid = unit_ids.get(unit.name)
            if uid is None:
                uid = unit_ids[unit.name] = len(unit_ids)
                unit_count.append(unit.count)
            cls_unit.append(uid)
            cls_latency.append(unit.latency)
            cls_offsets.append(tuple(unit.busy_offsets))
            if not unit.pipelined and unit.latency > min_occ:
                min_occ = unit.latency
        self.unit_names: List[str] = list(unit_ids)
        self.unit_count = array("q", unit_count)
        self.node_unit = array("q", (cls_unit[c] for c in fg.opclass))
        self.node_latency = array("q", (cls_latency[c] for c in fg.opclass))
        self.node_offsets: List[Tuple[int, ...]] = [cls_offsets[c] for c in fg.opclass]
        self.node_time = array(
            "q", (fg.graph.time(v, timing) for v in fg.nodes)
        )
        self.min_occ = min_occ
        self.max_unit_latency = max((u.latency for u in model.units), default=1)
