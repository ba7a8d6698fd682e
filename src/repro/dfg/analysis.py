"""Structural analyses of (possibly retimed) data-flow graphs.

Everything here works *through* a retiming function: passing ``r`` analyses
the retimed graph ``Gr`` without materializing it, using
``dr(e) = d(e) + r(u) - r(v)`` on the fly — the paper's key implementation
point (Section 2: "no graphs or weights on graph edges are modified").
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.dfg.graph import DFG, Edge, NodeId, Timing
from repro.dfg.retiming import Retiming
from repro.errors import ZeroDelayCycleError

_ZERO = Retiming.zero()


def retimed_delay(edge: Edge, r: Optional[Retiming]) -> int:
    """``dr(e)`` under ``r`` (``d(e)`` itself when ``r`` is None)."""
    return edge.delay if r is None else r.dr(edge)


def zero_delay_edges(graph: DFG, r: Optional[Retiming] = None) -> List[Edge]:
    """Edges with ``dr(e) == 0`` — the intra-iteration precedences."""
    return [e for e in graph.edges if retimed_delay(e, r) == 0]


def zero_delay_successors(graph: DFG, node: NodeId, r: Optional[Retiming] = None) -> List[NodeId]:
    out, seen = [], set()
    for e in graph.out_edges(node):
        if retimed_delay(e, r) == 0 and e.dst not in seen:
            seen.add(e.dst)
            out.append(e.dst)
    return out


def zero_delay_predecessors(graph: DFG, node: NodeId, r: Optional[Retiming] = None) -> List[NodeId]:
    out, seen = [], set()
    for e in graph.in_edges(node):
        if retimed_delay(e, r) == 0 and e.src not in seen:
            seen.add(e.src)
            out.append(e.src)
    return out


def zero_delay_adjacency(
    graph: DFG,
    r: Optional[Retiming] = None,
    dr_map: Optional[Dict[int, int]] = None,
) -> Tuple[Dict[NodeId, List[NodeId]], Dict[NodeId, List[NodeId]]]:
    """Both zero-delay adjacency maps of ``Gr`` in one edge pass.

    Returns ``(succs, preds)`` where each maps every node to its distinct
    zero-delay neighbours in edge-insertion order — entrywise identical to
    calling :func:`zero_delay_successors` / :func:`zero_delay_predecessors`
    per node, but without rescanning incident edges for each call.

    ``dr_map`` (edge id -> retimed delay) short-circuits the ``dr``
    arithmetic when the caller already maintains the per-edge cache (the
    rotation engine does).
    """
    succs: Dict[NodeId, List[NodeId]] = {v: [] for v in graph.nodes}
    preds: Dict[NodeId, List[NodeId]] = {v: [] for v in graph.nodes}
    seen_s: Dict[NodeId, set] = {v: set() for v in graph.nodes}
    seen_p: Dict[NodeId, set] = {v: set() for v in graph.nodes}
    for e in graph.edges:
        d = dr_map[e.eid] if dr_map is not None else retimed_delay(e, r)
        if d == 0:
            if e.dst not in seen_s[e.src]:
                seen_s[e.src].add(e.dst)
                succs[e.src].append(e.dst)
            if e.src not in seen_p[e.dst]:
                seen_p[e.dst].add(e.src)
                preds[e.dst].append(e.src)
    return succs, preds


def topological_order(
    graph: DFG,
    r: Optional[Retiming] = None,
    adj: Optional[Dict[NodeId, List[NodeId]]] = None,
) -> List[NodeId]:
    """Topological order of the zero-delay DAG of ``Gr``.

    ``adj`` injects a precomputed zero-delay successor map (distinct
    neighbours, as built by :func:`zero_delay_adjacency`) so callers that
    maintain one incrementally skip the per-edge ``dr`` arithmetic.

    Raises:
        ZeroDelayCycleError: if the zero-delay subgraph has a cycle (the
            retiming/graph admits no static schedule).
    """
    if adj is not None:
        indeg: Dict[NodeId, int] = {v: 0 for v in graph.nodes}
        for ws in adj.values():
            for w in ws:
                indeg[w] += 1
        queue = deque(v for v in graph.nodes if indeg[v] == 0)
        order: List[NodeId] = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adj[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if len(order) != graph.num_nodes:
            raise ZeroDelayCycleError(_find_zero_delay_cycle(graph, r))
        return order
    indeg = {v: 0 for v in graph.nodes}
    for e in graph.edges:
        if retimed_delay(e, r) == 0:
            indeg[e.dst] += 1
    queue = deque(v for v in graph.nodes if indeg[v] == 0)
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for e in graph.out_edges(v):
            if retimed_delay(e, r) == 0:
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    queue.append(e.dst)
    if len(order) != graph.num_nodes:
        raise ZeroDelayCycleError(_find_zero_delay_cycle(graph, r))
    return order


def _find_zero_delay_cycle(graph: DFG, r: Optional[Retiming]) -> List[NodeId]:
    """Locate one zero-delay cycle for error reporting (DFS, iterative)."""
    color: Dict[NodeId, int] = {}  # 0 unseen / 1 on stack / 2 done
    parent: Dict[NodeId, NodeId] = {}
    for root in graph.nodes:
        if color.get(root):
            continue
        stack: List[Tuple[NodeId, int]] = [(root, 0)]
        color[root] = 1
        while stack:
            v, idx = stack[-1]
            succs = zero_delay_successors(graph, v, r)
            if idx < len(succs):
                stack[-1] = (v, idx + 1)
                w = succs[idx]
                state = color.get(w, 0)
                if state == 1:
                    cycle = [w]
                    x = v
                    while x != w:
                        cycle.append(x)
                        x = parent[x]
                    cycle.reverse()
                    return cycle
                if state == 0:
                    color[w] = 1
                    parent[w] = v
                    stack.append((w, 0))
            else:
                color[v] = 2
                stack.pop()
    return []


def is_zero_delay_acyclic(graph: DFG, r: Optional[Retiming] = None) -> bool:
    """Whether the zero-delay subgraph of ``Gr`` is a DAG."""
    try:
        topological_order(graph, r)
        return True
    except ZeroDelayCycleError:
        return False


def asap_times(
    graph: DFG,
    timing: Optional[Timing] = None,
    r: Optional[Retiming] = None,
) -> Dict[NodeId, int]:
    """Earliest (resource-unconstrained) start times over the zero-delay DAG.

    ``asap[v] = max over zero-delay in-edges (asap[u] + t(u))``, roots at 0.
    """
    start: Dict[NodeId, int] = {v: 0 for v in graph.nodes}
    for v in topological_order(graph, r):
        for e in graph.out_edges(v):
            if retimed_delay(e, r) == 0:
                start[e.dst] = max(start[e.dst], start[v] + graph.time(v, timing))
    return start


def alap_times(
    graph: DFG,
    deadline: int,
    timing: Optional[Timing] = None,
    r: Optional[Retiming] = None,
) -> Dict[NodeId, int]:
    """Latest start times meeting ``deadline`` (finish-by semantics)."""
    start: Dict[NodeId, int] = {
        v: deadline - graph.time(v, timing) for v in graph.nodes
    }
    for v in reversed(topological_order(graph, r)):
        for e in graph.out_edges(v):
            if retimed_delay(e, r) == 0:
                start[v] = min(start[v], start[e.dst] - graph.time(v, timing))
    return start


def critical_path_length(
    graph: DFG,
    timing: Optional[Timing] = None,
    r: Optional[Retiming] = None,
) -> int:
    """Length of the longest zero-delay path — the iteration period of ``Gr``.

    This equals the minimum static-schedule length in the absence of
    resource constraints (the paper's CP column in Table 1).
    """
    if graph.num_nodes == 0:
        return 0
    start = asap_times(graph, timing, r)
    return max(start[v] + graph.time(v, timing) for v in graph.nodes)


def critical_path_nodes(
    graph: DFG,
    timing: Optional[Timing] = None,
    r: Optional[Retiming] = None,
) -> List[NodeId]:
    """One longest zero-delay path, as a node sequence."""
    if graph.num_nodes == 0:
        return []
    start = asap_times(graph, timing, r)
    finish = {v: start[v] + graph.time(v, timing) for v in graph.nodes}
    cp = max(finish.values())
    # walk backwards from a sink that realizes cp
    tail = next(v for v in graph.nodes if finish[v] == cp)
    path = [tail]
    while start[tail] > 0:
        for e in graph.in_edges(tail):
            u = e.src
            if retimed_delay(e, r) == 0 and start[u] + graph.time(u, timing) == start[tail]:
                path.append(u)
                tail = u
                break
        else:  # pragma: no cover - defensive; asap guarantees a predecessor
            break
    path.reverse()
    return path


def descendant_reach(
    graph: DFG,
    r: Optional[Retiming] = None,
    adj: Optional[Dict[NodeId, List[NodeId]]] = None,
    order: Optional[List[NodeId]] = None,
) -> Dict[NodeId, Set[NodeId]]:
    """Zero-delay descendant *sets* of every node (reverse-topological
    accumulation).  ``adj``/``order`` inject a precomputed successor map and
    topological order; the rotation engine reuses the returned sets when
    recomputing only a dirty subset after a rotation."""
    if adj is None:
        adj = zero_delay_adjacency(graph, r)[0]
    if order is None:
        order = topological_order(graph, r, adj=adj)
    reach: Dict[NodeId, Set[NodeId]] = {v: set() for v in graph.nodes}
    for v in reversed(order):
        acc = reach[v]
        for w in adj[v]:
            acc.add(w)
            acc |= reach[w]
    return reach


def descendant_counts(
    graph: DFG,
    r: Optional[Retiming] = None,
    adj: Optional[Dict[NodeId, List[NodeId]]] = None,
    order: Optional[List[NodeId]] = None,
) -> Dict[NodeId, int]:
    """Number of distinct zero-delay descendants of each node.

    This is the paper's list-scheduling weight function ("the number of
    descendants as the weight of a node in the list").
    """
    reach = descendant_reach(graph, r, adj=adj, order=order)
    return {v: len(reach[v]) for v in graph.nodes}


def height_times(
    graph: DFG,
    timing: Optional[Timing] = None,
    r: Optional[Retiming] = None,
    adj: Optional[Dict[NodeId, List[NodeId]]] = None,
    order: Optional[List[NodeId]] = None,
) -> Dict[NodeId, int]:
    """Longest zero-delay path *from* each node, inclusive of its own time.

    A classic alternative list-scheduling priority ("height").
    """
    if adj is None:
        adj = zero_delay_adjacency(graph, r)[0]
    if order is None:
        order = topological_order(graph, r, adj=adj)
    h: Dict[NodeId, int] = {}
    for v in reversed(order):
        best = 0
        for w in adj[v]:
            best = max(best, h[w])
        h[v] = best + graph.time(v, timing)
    return h


def is_down_rotatable(graph: DFG, nodes: Sequence[NodeId], r: Optional[Retiming] = None) -> bool:
    """Property 1: ``X`` is down-rotatable iff every path from ``V - X`` into
    ``X`` carries at least one delay — equivalently, every edge entering
    ``X`` from outside has ``dr(e) >= 1`` under the current retiming."""
    inside = set(nodes)
    for v in inside:
        for e in graph.in_edges(v):
            if e.src not in inside and retimed_delay(e, r) < 1:
                return False
    return True


def is_up_rotatable(graph: DFG, nodes: Sequence[NodeId], r: Optional[Retiming] = None) -> bool:
    """Mirror of :func:`is_down_rotatable`: every edge leaving ``X`` must
    carry at least one delay for ``-X`` to be a legal retiming."""
    inside = set(nodes)
    for v in inside:
        for e in graph.out_edges(v):
            if e.dst not in inside and retimed_delay(e, r) < 1:
                return False
    return True


def roots(graph: DFG, r: Optional[Retiming] = None) -> List[NodeId]:
    """Nodes with no zero-delay in-edges (schedulable first)."""
    return [v for v in graph.nodes if not zero_delay_predecessors(graph, v, r)]


def leaves(graph: DFG, r: Optional[Retiming] = None) -> List[NodeId]:
    """Nodes with no zero-delay out-edges."""
    return [v for v in graph.nodes if not zero_delay_successors(graph, v, r)]
