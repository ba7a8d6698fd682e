"""CSR snapshots of a :class:`~repro.dfg.graph.DFG` and a resource model.

The dict-based graph is the right representation for construction and
analysis APIs — node ids are arbitrary hashables (``unfold`` produces
tuple ids), edges are objects — but every hot kernel of rotation
scheduling only ever needs *numbers*: which node, which edge, what delay,
what latency.  :class:`FlatGraph` compiles a DFG once into contiguous
integer columns (``array('q')`` + CSR incidence lists) with an id↔index
table so the tuple ids survive, and :class:`FlatModel` compiles a
:class:`~repro.schedule.resources.ResourceModel` against those op-class
columns.  Everything downstream (:mod:`repro.core.flat.kernels`,
:class:`repro.core.flat.engine.FlatEngine`) indexes these arrays and never
hashes a node id again.

During a scheduling run both snapshots are fixed: a rotation never changes
the graph (the paper's point — only the retiming vector moves), so one
compile serves the run.  Between runs a :class:`FlatGraph` can be patched
in place to track DFG mutations via :meth:`FlatGraph.apply_delta` (the
MutableSchedulingSession path), which splices the CSR arrays and compacts
the id↔index table instead of recompiling; past a damage threshold it
declines and the caller recompiles.
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
        "esrc", "edst", "edelay", "eids", "epos",
        "out_ptr", "out_edge", "in_ptr", "in_edge",
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

        self.esrc = array("q", (index[e.src] for e in edges))
        self.edst = array("q", (index[e.dst] for e in edges))
        self.edelay = array("q", (e.delay for e in edges))
        self.eids = array("q", (e.eid for e in edges))
        epos = {e.eid: k for k, e in enumerate(edges)}
        self.epos = epos

        # CSR incidence in the DFG's own insertion order, so kernels that
        # walk out_edge/in_edge see edges exactly as graph.out_edges /
        # graph.in_edges would enumerate them.  out_at/in_at hold the same
        # positions as per-node tuples (faster to iterate from hot loops
        # than an array slice).
        out_at: List[Tuple[int, ...]] = [
            tuple(epos[e.eid] for e in graph.out_edges(v)) for v in self.nodes
        ]
        in_at: List[Tuple[int, ...]] = [
            tuple(epos[e.eid] for e in graph.in_edges(v)) for v in self.nodes
        ]
        self.out_at, self.in_at = out_at, in_at
        out_ptr = array("q", [0])
        out_edge = array("q")
        for pos in out_at:
            out_edge.extend(pos)
            out_ptr.append(len(out_edge))
        in_ptr = array("q", [0])
        in_edge = array("q")
        for pos in in_at:
            in_edge.extend(pos)
            in_ptr.append(len(in_edge))
        self.out_ptr, self.out_edge = out_ptr, out_edge
        self.in_ptr, self.in_edge = in_ptr, in_edge

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
    # in-place delta patching (MutableSchedulingSession path)
    # ------------------------------------------------------------------
    def apply_delta(self, edits) -> bool:
        """Patch this snapshot in place to match ``self.graph`` after ``edits``.

        ``edits`` is the :meth:`DFG.edits_since` record of everything that
        happened to the live graph since this snapshot was synchronized,
        oldest first.  Returns ``False`` — leaving the snapshot in an
        undefined state — when the structural damage exceeds the recompile
        threshold (splicing N columns costs more than one O(V+E) compile);
        the caller must then rebuild via ``FlatGraph(graph)``.  After a
        ``True`` return the patched snapshot is field-for-field identical
        to a fresh compile of the mutated graph.
        """
        structural = sum(
            1 for e in edits if e.kind not in ("set_delay", "set_exec_time")
        )
        if structural > max(8, (self.n + self.m) // 2):
            return False
        dirty_nodes = dirty_edges = False
        for ed in edits:
            kind = ed.kind
            if kind == "set_delay":
                self.edelay[self.epos[ed.eid]] = ed.delay
            elif kind == "set_exec_time":
                pass  # node_time lives in FlatModel; the caller rebuilds it
            elif kind == "add_edge":
                self._patch_add_edge(ed)
                dirty_edges = True
            elif kind == "remove_edge":
                self._patch_remove_edge(ed.eid)
                dirty_edges = True
            elif kind == "add_node":
                self._patch_add_node(ed.node)
                dirty_nodes = True
            elif kind == "remove_node":
                self._patch_remove_node(ed.node)
                dirty_nodes = True
            else:
                return False
        if dirty_nodes or dirty_edges:
            self._rebuild_csr()
        if dirty_nodes:
            self._rebuild_opclass()
        return True

    def _patch_add_node(self, node: NodeId) -> None:
        self.index[node] = self.n
        self.nodes.append(node)
        self.n += 1
        self.out_at.append(())
        self.in_at.append(())

    def _patch_remove_node(self, node: NodeId) -> None:
        # The DFG logs a node removal after its incident-edge removals, so
        # by the time this record is replayed the node's rows are empty and
        # only the index table and edge endpoints need compacting.
        i = self.index.pop(node)
        del self.nodes[i]
        self.n -= 1
        del self.out_at[i]
        del self.in_at[i]
        for v, j in self.index.items():
            if j > i:
                self.index[v] = j - 1
        esrc, edst = self.esrc, self.edst
        for k in range(self.m):
            if esrc[k] > i:
                esrc[k] -= 1
            if edst[k] > i:
                edst[k] -= 1

    def _patch_add_edge(self, ed) -> None:
        k = self.m
        si, di = self.index[ed.src], self.index[ed.dst]
        self.esrc.append(si)
        self.edst.append(di)
        self.edelay.append(ed.delay)
        self.eids.append(ed.eid)
        self.epos[ed.eid] = k
        self.m += 1
        self.out_at[si] += (k,)
        self.in_at[di] += (k,)

    def _patch_remove_edge(self, eid: int) -> None:
        k = self.epos.pop(eid)
        del self.esrc[k]
        del self.edst[k]
        del self.edelay[k]
        del self.eids[k]
        self.m -= 1
        for e2, p in self.epos.items():
            if p > k:
                self.epos[e2] = p - 1
        for at in (self.out_at, self.in_at):
            for i in range(self.n):
                row = at[i]
                for p in row:
                    if p >= k:
                        at[i] = tuple(q - 1 if q > k else q for q in row if q != k)
                        break

    def _rebuild_csr(self) -> None:
        out_ptr = array("q", [0])
        out_edge = array("q")
        for pos in self.out_at:
            out_edge.extend(pos)
            out_ptr.append(len(out_edge))
        in_ptr = array("q", [0])
        in_edge = array("q")
        for pos in self.in_at:
            in_edge.extend(pos)
            in_ptr.append(len(in_edge))
        self.out_ptr, self.out_edge = out_ptr, out_edge
        self.in_ptr, self.in_edge = in_ptr, in_edge

    def _rebuild_opclass(self) -> None:
        # First-appearance numbering over the *current* node order matches a
        # fresh compile exactly (dict insertion order survives removals).
        graph = self.graph
        op_ids: Dict[str, int] = {}
        opclass = array("q")
        for v in self.nodes:
            op = graph.op(v)
            cid = op_ids.get(op)
            if cid is None:
                cid = op_ids[op] = len(op_ids)
            opclass.append(cid)
        self.opclass = opclass
        self.op_names = list(op_ids)

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
