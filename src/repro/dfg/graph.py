"""The cyclic data-flow graph (DFG) at the heart of the library.

A DFG is a directed multigraph ``G = (V, E, d, t)`` (paper, Section 2):

* ``V`` — computation nodes.  Each node carries an *operation type* (a short
  string such as ``"add"`` or ``"mul"``) that resource models and timing
  models key on, plus an optional explicit computation time.
* ``E`` — precedence edges.  Each edge carries a nonnegative *delay count*
  ``d(e)``: an edge ``u -> v`` with ``d(e)`` delays means the computation of
  ``v`` at iteration ``j`` consumes the value produced by ``u`` at iteration
  ``j - d(e)``.  Zero-delay edges are intra-iteration dependences; the
  subgraph of zero-delay edges must be acyclic for a static schedule to
  exist.

Parallel edges are allowed (two edges ``u -> v`` with different delays are
meaningful: they carry values of different iterations), so edges are
identified by an integer edge id assigned at insertion.

The class is deliberately small and explicit; analyses live in
:mod:`repro.dfg.analysis`, retiming in :mod:`repro.dfg.retiming`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.errors import GraphError

NodeId = Hashable

#: Retained edit-log length.  Consumers that fall further behind than this
#: get ``None`` from :meth:`DFG.edits_since` and must rebuild from scratch.
_EDIT_LOG_CAP = 1024


@dataclass(frozen=True)
class GraphEdit:
    """One entry of a DFG's edit log (the versioned-mutation protocol).

    Every mutating operation appends exactly one record and bumps the
    graph's :attr:`DFG.epoch`, so a cache built at epoch ``k`` can ask
    :meth:`DFG.edits_since` for precisely what happened after ``k`` (a
    session's repair reads it to find the edited nodes).  Only the fields
    relevant to the ``kind`` are set:

    ==================  ====================================================
    ``add_node``         ``node``, ``op``, ``time``
    ``remove_node``      ``node`` (its incident edges are logged as
                         ``remove_edge`` records *before* this one)
    ``add_edge``         ``eid``, ``src``, ``dst``, ``delay``
    ``remove_edge``      ``eid``, ``src``, ``dst``, ``delay`` (old delay)
    ``set_delay``        ``eid``, ``src``, ``dst``, ``delay`` (new delay)
    ``set_exec_time``    ``node``, ``time`` (new explicit time or None)
    ==================  ====================================================
    """

    kind: str
    node: Optional[NodeId] = None
    op: Optional[str] = None
    eid: Optional[int] = None
    src: Optional[NodeId] = None
    dst: Optional[NodeId] = None
    delay: Optional[int] = None
    time: Optional[int] = None


@dataclass(frozen=True)
class Edge:
    """A precedence edge of a DFG.

    Attributes:
        eid: unique integer id within the owning graph (insertion order).
        src: source node id.
        dst: destination node id.
        delay: number of delays (registers) on the edge; ``>= 0``.
    """

    eid: int
    src: NodeId
    dst: NodeId
    delay: int

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise GraphError(f"edge {self.src}->{self.dst}: negative delay {self.delay}")

    def reversed(self, eid: Optional[int] = None) -> "Edge":
        """Return the edge with direction flipped (used by path analyses)."""
        return Edge(self.eid if eid is None else eid, self.dst, self.src, self.delay)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" [{self.delay}D]" if self.delay else ""
        return f"{self.src} -> {self.dst}{tag}"


class Timing(Mapping[str, int]):
    """Maps operation types to computation times (in time units or CS).

    The paper's experiments use ``Timing({"add": 1, "mul": 2})`` for
    non-pipelined multipliers.  A :class:`Timing` may carry a ``default``
    used for unknown op types; by default unknown ops are an error, which
    catches typos early.
    """

    def __init__(self, times: Optional[Mapping[str, int]] = None, default: Optional[int] = None):
        self._times: Dict[str, int] = dict(times or {})
        for op, t in self._times.items():
            if t <= 0:
                raise GraphError(f"op {op!r}: nonpositive time {t}")
        if default is not None and default <= 0:
            raise GraphError(f"nonpositive default time {default}")
        self._default = default

    @classmethod
    def unit(cls) -> "Timing":
        """All operations take one time unit (Figure 2 of the paper)."""
        return cls({}, default=1)

    def __getitem__(self, op: str) -> int:
        if op in self._times:
            return self._times[op]
        if self._default is not None:
            return self._default
        raise KeyError(f"no time for op {op!r} and no default")

    def __iter__(self) -> Iterator[str]:
        return iter(self._times)

    def __len__(self) -> int:
        return len(self._times)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Timing({self._times!r}, default={self._default!r})"


@dataclass
class _NodeRecord:
    op: str
    time: Optional[int]
    label: Optional[str]
    func: Optional[Callable[..., Any]] = None
    attrs: Dict[str, Any] = field(default_factory=dict)


class DFG:
    """A cyclic data-flow graph with delayed multi-edges.

    Nodes may be any hashable value.  Iteration order over nodes and edges is
    insertion order, which keeps all algorithms in this library
    deterministic.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._nodes: Dict[NodeId, _NodeRecord] = {}
        self._edges: Dict[int, Edge] = {}
        self._out: Dict[NodeId, List[int]] = {}
        self._in: Dict[NodeId, List[int]] = {}
        self._next_eid = 0
        # Initial register values keyed by edge id; used by the execution
        # simulator (d values per edge, oldest first).
        self._edge_init: Dict[int, Tuple[Any, ...]] = {}
        # Versioned-mutation protocol: every mutation bumps _epoch and
        # appends a GraphEdit.  _log_base is the epoch value of the first
        # retained log entry (the log is capped at _EDIT_LOG_CAP records).
        self._epoch = 0
        self._edit_log: List[GraphEdit] = []
        self._log_base = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        node: NodeId,
        op: str = "op",
        *,
        time: Optional[int] = None,
        label: Optional[str] = None,
        func: Optional[Callable[..., Any]] = None,
        **attrs: Any,
    ) -> NodeId:
        """Add a computation node.

        Args:
            node: hashable node id.
            op: operation type used by timing and resource models.
            time: explicit computation time; overrides the timing model.
            label: human-readable label for reports.
            func: optional Python callable implementing the node's
                semantics (used by :mod:`repro.sim`); it receives operand
                values in incoming-edge insertion order.
            **attrs: free-form metadata.
        """
        if node in self._nodes:
            raise GraphError(f"duplicate node {node!r}")
        if time is not None and time <= 0:
            raise GraphError(f"node {node!r}: nonpositive time {time}")
        self._nodes[node] = _NodeRecord(op=op, time=time, label=label, func=func, attrs=dict(attrs))
        self._out[node] = []
        self._in[node] = []
        self._log(GraphEdit("add_node", node=node, op=op, time=time))
        return node

    def add_edge(
        self,
        src: NodeId,
        dst: NodeId,
        delay: int = 0,
        *,
        init: Optional[Iterable[Any]] = None,
    ) -> Edge:
        """Add a precedence edge with ``delay`` registers.

        Args:
            src: producing node (must exist).
            dst: consuming node (must exist).
            delay: number of delays; 0 means an intra-iteration dependence.
            init: initial register contents, oldest first; must have exactly
                ``delay`` entries when given.
        """
        for v in (src, dst):
            if v not in self._nodes:
                raise GraphError(f"unknown node {v!r} in edge {src!r}->{dst!r}")
        edge = Edge(self._next_eid, src, dst, delay)
        self._next_eid += 1
        self._edges[edge.eid] = edge
        self._out[src].append(edge.eid)
        self._in[dst].append(edge.eid)
        if init is not None:
            values = tuple(init)
            if len(values) != delay:
                raise GraphError(
                    f"edge {src!r}->{dst!r}: {len(values)} initial values for {delay} delays"
                )
            self._edge_init[edge.eid] = values
        self._log(GraphEdit("add_edge", eid=edge.eid, src=src, dst=dst, delay=delay))
        return edge

    def remove_edge(self, edge: Edge) -> None:
        """Remove an edge previously returned by :meth:`add_edge`."""
        if edge.eid not in self._edges:
            raise GraphError(f"edge {edge} not in graph")
        old = self._edges.pop(edge.eid)
        self._out[old.src].remove(old.eid)
        self._in[old.dst].remove(old.eid)
        self._edge_init.pop(old.eid, None)
        self._log(GraphEdit("remove_edge", eid=old.eid, src=old.src, dst=old.dst, delay=old.delay))

    def remove_node(self, node: NodeId) -> None:
        """Remove a node and all incident edges."""
        if node not in self._nodes:
            raise GraphError(f"node {node!r} not in graph")
        for eid in list(self._in[node]) + list(self._out[node]):
            if eid in self._edges:
                self.remove_edge(self._edges[eid])
        del self._nodes[node]
        del self._out[node]
        del self._in[node]
        self._log(GraphEdit("remove_node", node=node))

    def set_delay(self, edge: "Edge | int", delay: int) -> Edge:
        """Replace an edge's delay in place.

        The edge keeps its id and its position in insertion order; a stored
        ``init`` whose length no longer matches the new delay is dropped
        (the register chain it described no longer exists).  Accepts the
        :class:`Edge` object or its integer id; returns the new edge.
        """
        eid = edge.eid if isinstance(edge, Edge) else edge
        old = self.edge_by_id(eid)
        if delay < 0:
            raise GraphError(f"edge {old}: negative delay {delay}")
        if delay == old.delay:
            return old
        new = Edge(eid, old.src, old.dst, delay)
        self._edges[eid] = new
        init = self._edge_init.get(eid)
        if init is not None and len(init) != delay:
            del self._edge_init[eid]
        self._log(GraphEdit("set_delay", eid=eid, src=new.src, dst=new.dst, delay=delay))
        return new

    def set_exec_time(self, node: NodeId, time: Optional[int]) -> None:
        """Set/clear a node's explicit computation time (None = timing model)."""
        if time is not None and time <= 0:
            raise GraphError(f"node {node!r}: nonpositive time {time}")
        rec = self._record(node)
        if rec.time == time:
            return
        rec.time = time
        self._log(GraphEdit("set_exec_time", node=node, time=time))

    # ------------------------------------------------------------------
    # versioned-mutation protocol
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Monotonic mutation counter; bumps on every structural/attr edit."""
        return self._epoch

    def edits_since(self, epoch: int) -> Optional[List[GraphEdit]]:
        """The edits applied after ``epoch``, oldest first.

        Returns ``[]`` when the graph is unchanged, or ``None`` when
        ``epoch`` predates the retained log (or lies in the future) — the
        caller must then resynchronize from scratch.
        """
        if epoch == self._epoch:
            return []
        if epoch < self._log_base or epoch > self._epoch:
            return None
        return list(self._edit_log[epoch - self._log_base :])

    def _log(self, edit: GraphEdit) -> None:
        self._epoch += 1
        log = self._edit_log
        log.append(edit)
        if len(log) > _EDIT_LOG_CAP:
            drop = len(log) - _EDIT_LOG_CAP
            del log[:drop]
            self._log_base += drop

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[NodeId]:
        """Node ids in insertion order."""
        return list(self._nodes)

    @property
    def edges(self) -> List[Edge]:
        """Edges in insertion order."""
        return list(self._edges.values())

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def has_edge(self, src: NodeId, dst: NodeId) -> bool:
        """Whether at least one edge ``src -> dst`` exists (any delay)."""
        return any(self._edges[eid].dst == dst for eid in self._out.get(src, ()))

    def edge_by_id(self, eid: int) -> Edge:
        """Look an edge up by its integer id."""
        try:
            return self._edges[eid]
        except KeyError:
            raise GraphError(f"no edge with id {eid}") from None

    def out_edges(self, node: NodeId) -> List[Edge]:
        """Outgoing edges of ``node`` in insertion order."""
        self._require(node)
        return [self._edges[eid] for eid in self._out[node]]

    def in_edges(self, node: NodeId) -> List[Edge]:
        """Incoming edges of ``node`` in insertion order (operand order)."""
        self._require(node)
        return [self._edges[eid] for eid in self._in[node]]

    def successors(self, node: NodeId) -> List[NodeId]:
        """Distinct successor nodes, in first-edge order."""
        seen, out = set(), []
        for e in self.out_edges(node):
            if e.dst not in seen:
                seen.add(e.dst)
                out.append(e.dst)
        return out

    def predecessors(self, node: NodeId) -> List[NodeId]:
        """Distinct predecessor nodes, in first-edge order."""
        seen, out = set(), []
        for e in self.in_edges(node):
            if e.src not in seen:
                seen.add(e.src)
                out.append(e.src)
        return out

    def op(self, node: NodeId) -> str:
        """Operation type of ``node``."""
        return self._record(node).op

    def label(self, node: NodeId) -> str:
        """Human-readable label (defaults to the node id)."""
        rec = self._record(node)
        return rec.label if rec.label is not None else str(node)

    def func(self, node: NodeId) -> Optional[Callable[..., Any]]:
        """The node's semantic callable, if attached (see :mod:`repro.sim`)."""
        return self._record(node).func

    def set_func(self, node: NodeId, func: Callable[..., Any]) -> None:
        """Attach/replace the node's semantic callable."""
        self._record(node).func = func

    def attrs(self, node: NodeId) -> Dict[str, Any]:
        """Mutable free-form metadata dict of ``node``."""
        return self._record(node).attrs

    def explicit_time(self, node: NodeId) -> Optional[int]:
        """The per-node time override, or None when the timing model rules."""
        return self._record(node).time

    def time(self, node: NodeId, timing: Optional[Timing] = None) -> int:
        """Resolve the computation time of ``node``.

        An explicit per-node time wins; otherwise ``timing[op]``; a bare
        graph with neither defaults to 1.
        """
        rec = self._record(node)
        if rec.time is not None:
            return rec.time
        if timing is not None:
            return timing[rec.op]
        return 1

    def edge_init(self, edge: Edge) -> Optional[Tuple[Any, ...]]:
        """Initial register contents of an edge (oldest first), if declared."""
        return self._edge_init.get(edge.eid)

    def set_edge_init(self, edge: Edge, values: Iterable[Any]) -> None:
        """Set an edge's initial register contents (oldest first)."""
        values = tuple(values)
        if len(values) != edge.delay:
            raise GraphError(
                f"edge {edge}: {len(values)} initial values for {edge.delay} delays"
            )
        self._edge_init[edge.eid] = values

    def total_delay(self) -> int:
        """Sum of delays over all edges (the loop's register count)."""
        return sum(e.delay for e in self._edges.values())

    def ops_histogram(self) -> Dict[str, int]:
        """Count of nodes per operation type."""
        hist: Dict[str, int] = {}
        for rec in self._nodes.values():
            hist[rec.op] = hist.get(rec.op, 0) + 1
        return hist

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "DFG":
        """Deep-enough copy: fresh structure, shared node funcs."""
        g = DFG(self.name if name is None else name)
        for node, rec in self._nodes.items():
            g.add_node(node, rec.op, time=rec.time, label=rec.label, func=rec.func, **rec.attrs)
        for e in self._edges.values():
            new = g.add_edge(e.src, e.dst, e.delay)
            if e.eid in self._edge_init:
                g.set_edge_init(new, self._edge_init[e.eid])
        return g

    def reversed(self) -> "DFG":
        """The graph with every edge flipped (delays preserved)."""
        g = DFG(self.name + ".rev")
        for node, rec in self._nodes.items():
            g.add_node(node, rec.op, time=rec.time, label=rec.label, func=rec.func, **rec.attrs)
        for e in self._edges.values():
            g.add_edge(e.dst, e.src, e.delay)
        return g

    def to_networkx(self):
        """Export to a :class:`networkx.MultiDiGraph` (delay as edge attr)."""
        import networkx as nx

        g = nx.MultiDiGraph(name=self.name)
        for node, rec in self._nodes.items():
            g.add_node(node, op=rec.op, time=rec.time, label=rec.label)
        for e in self._edges.values():
            g.add_edge(e.src, e.dst, key=e.eid, delay=e.delay)
        return g

    @classmethod
    def from_networkx(cls, g, name: Optional[str] = None) -> "DFG":
        """Import from any networkx directed graph with ``delay`` edge attrs.

        Missing ``op`` defaults to ``"op"``, missing ``delay`` to 0.
        """
        dfg = cls(name if name is not None else (g.name or ""))
        for node, data in g.nodes(data=True):
            dfg.add_node(
                node,
                data.get("op", "op"),
                time=data.get("time"),
                label=data.get("label"),
            )
        if g.is_multigraph():
            edge_iter = ((u, v, data) for u, v, _k, data in g.edges(keys=True, data=True))
        else:
            edge_iter = g.edges(data=True)
        for u, v, data in edge_iter:
            dfg.add_edge(u, v, int(data.get("delay", 0)))
        return dfg

    # ------------------------------------------------------------------
    def _record(self, node: NodeId) -> _NodeRecord:
        try:
            return self._nodes[node]
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def _require(self, node: NodeId) -> None:
        if node not in self._nodes:
            raise GraphError(f"node {node!r} not in graph")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DFG({self.name!r}, nodes={self.num_nodes}, edges={self.num_edges}, "
            f"delays={self.total_delay()})"
        )
