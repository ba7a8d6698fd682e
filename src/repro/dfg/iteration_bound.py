"""Iteration bound of a cyclic DFG (Renfors & Neuvo bound).

The iteration bound is the theoretical minimum static-schedule length over
all retimings and unlimited resources::

    IB(G) = max over cycles C of  ceil( t(C) / d(C) )

where ``t(C)`` sums the computation times of the nodes on the cycle and
``d(C)`` sums the delays on its edges.  The paper quotes the *ceiling* in
Table 1; :func:`iteration_bound` returns the exact rational
``max t(C)/d(C)`` and :func:`iteration_bound_ceil` the table value.

:func:`iteration_bound` improves a cycle until none beats it: for the best
ratio ``lam = p / q`` so far, a cycle of ratio greater than ``lam`` exists
iff the integer edge weights ``p * d(e) - q * t(src)`` admit a negative
cycle.  Bellman–Ford with predecessors finds one, ``lam`` becomes that
cycle's exact ``t(C)/d(C)``, and the loop ends when Bellman–Ford converges.
Every round strictly raises ``lam`` over finitely many cycles, and all
arithmetic is on integers.

Cycle enumeration (:func:`cycle_delays`, :func:`cycle_ratios`,
:func:`critical_cycle`) serves the explorer's register bound and
critical-cycle ranking, and is the tests' reference for the bound.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from repro.dfg.graph import DFG, NodeId, Timing
from repro.dfg.analysis import topological_order  # validates zero-delay acyclicity
from repro.errors import GraphError


#: graph -> (graph epoch, src index, dst index, delay, {node times: bound}).
#: The per-edge columns are compiled once per epoch; the bound is memoized
#: by the node-time vector's value, so a fresh but equal ``Timing`` (one
#: per ``ResourceModel.timing()`` call) hits.  An in-place mutation (DFG
#: versioned-mutation protocol) bumps the epoch and drops the entry.
_COLUMNS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _columns(graph: DFG) -> tuple:
    """The graph's compiled edge columns and bound memo, at its epoch."""
    entry = _COLUMNS.get(graph)
    if entry is None or entry[0] != graph.epoch:
        topological_order(graph)  # raises ZeroDelayCycleError on illegal graphs
        index = {v: i for i, v in enumerate(graph.nodes)}
        edges = graph.edges
        entry = _COLUMNS[graph] = (
            graph.epoch,
            [index[e.src] for e in edges],
            [index[e.dst] for e in edges],
            [e.delay for e in edges],
            {},
        )
    return entry


def _beating_cycle(
    n: int, esrc: Sequence[int], edst: Sequence[int], weight: Sequence[int]
) -> Optional[List[int]]:
    """Edge indices of a negative cycle under ``weight``, or None.

    Bellman–Ford from a virtual source joined to every node, stopping at
    the first cycle on the predecessor chain of a pass's last relaxed
    node: every predecessor cycle is negative.  Without a negative cycle
    no pass relaxes after ``n - 1``; with one, the chain of any node
    relaxed in pass ``n`` holds a cycle, so the loop always ends.
    """
    edges = list(zip(esrc, edst, weight))
    dist = [0] * n
    pred = [-1] * n
    while True:
        last = -1
        for k, (u, v, w) in enumerate(edges):
            nd = dist[u] + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = k
                last = v
        if last < 0:
            return None
        seen = set()
        v = last
        while v not in seen and pred[v] >= 0:
            seen.add(v)
            v = esrc[pred[v]]
        if v in seen:  # the chain came back: v lies on a predecessor cycle
            cycle, u = [], v
            while True:
                cycle.append(pred[u])
                u = esrc[pred[u]]
                if u == v:
                    return cycle


def _max_cycle_ratio(
    times: Sequence[int], esrc: Sequence[int], edst: Sequence[int], edelay: Sequence[int]
) -> Fraction:
    """``max t(C)/d(C)`` by cycle improvement (0 when acyclic)."""
    tsrc = [times[u] for u in esrc]
    bound = Fraction(0)
    while True:
        p, q = bound.numerator, bound.denominator
        weight = [p * d - q * t for d, t in zip(edelay, tsrc)]
        cycle = _beating_cycle(len(times), esrc, edst, weight)
        if cycle is None:
            return bound
        bound = Fraction(sum(tsrc[k] for k in cycle), sum(edelay[k] for k in cycle))


def iteration_bound(graph: DFG, timing: Optional[Timing] = None) -> Fraction:
    """Exact iteration bound ``max over cycles of t(C)/d(C)``; 0 when the
    graph is acyclic.

    Args:
        graph: the DFG (must have no zero-delay cycle).
        timing: op-type timing model; defaults to per-node times.
    """
    _, esrc, edst, edelay, memo = _columns(graph)
    times = tuple(graph.time(v, timing) for v in graph.nodes)
    bound = memo.get(times)
    if bound is None:
        bound = memo[times] = _max_cycle_ratio(times, esrc, edst, edelay)
    return bound


def fraction_ceil(x: Fraction) -> int:
    """The least integer ``>= x``, in exact arithmetic."""
    return -(-x.numerator // x.denominator)


def iteration_bound_ceil(graph: DFG, timing: Optional[Timing] = None) -> int:
    """The integer bound quoted in the paper's Table 1: ``ceil(IB)``."""
    return fraction_ceil(iteration_bound(graph, timing))


#: graph -> (graph epoch, [(cycle nodes, d(C))]): neither depends on the
#: timing, so one enumeration serves every timing.  Same staleness rule
#: as :data:`_COLUMNS`.
_CYCLES_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _cycle_digraph(graph: DFG):
    """Simple digraph with min-delay parallel-edge collapse, for enumeration.

    When maximizing ``t(C)/d(C)``, a cycle always prefers the minimum-delay
    edge between any ordered node pair (node times are fixed), so parallel
    edges collapse without losing the maximum.
    """
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(graph.nodes)
    for e in graph.edges:
        if not g.has_edge(e.src, e.dst) or e.delay < g[e.src][e.dst]["delay"]:
            g.add_edge(e.src, e.dst, delay=e.delay)
    return g


def cycle_delays(graph: DFG, limit: int = 100_000) -> List[Tuple[List[NodeId], int]]:
    """Every simple cycle with its delay sum ``d(C)``, enumerated once per
    graph epoch (parallel edges count with their minimum delay).

    Raises :class:`GraphError` if more than ``limit`` cycles exist.
    """
    entry = _CYCLES_CACHE.get(graph)
    if entry is None or entry[0] != graph.epoch:
        import networkx as nx

        topological_order(graph)  # raises ZeroDelayCycleError on illegal graphs
        g = _cycle_digraph(graph)
        cycles: List[Tuple[List[NodeId], int]] = []
        for cycle in nx.simple_cycles(g):
            if len(cycles) == limit:
                raise GraphError(f"more than {limit} simple cycles; iteration_bound does not enumerate")
            cycles.append((cycle, sum(
                g[u][v]["delay"] for u, v in zip(cycle, cycle[1:] + cycle[:1])
            )))
        entry = _CYCLES_CACHE[graph] = (graph.epoch, cycles)
    if len(entry[1]) > limit:
        raise GraphError(f"more than {limit} simple cycles; iteration_bound does not enumerate")
    return entry[1]


def cycle_ratios(graph: DFG, timing: Optional[Timing] = None, limit: int = 100_000) -> List[Tuple[Fraction, List[NodeId]]]:
    """All simple-cycle ratios ``t(C)/d(C)`` with their node sequences.

    Raises :class:`GraphError` if more than ``limit`` cycles are found
    (:func:`iteration_bound` gives the maximum without enumerating).
    """
    return [
        (Fraction(sum(graph.time(v, timing) for v in cycle), d), list(cycle))
        for cycle, d in cycle_delays(graph, limit)
    ]


def critical_cycle(graph: DFG, timing: Optional[Timing] = None) -> Tuple[Fraction, List[NodeId]]:
    """The maximum-ratio cycle (bound, node sequence); ``(0, [])`` if acyclic.

    Ties between maximum-ratio cycles are broken by the lexicographically
    smallest sorted node-name sequence — ``nx.simple_cycles`` iterates
    hash-ordered sets, so without an explicit tie-break the winner would
    vary run to run with ``PYTHONHASHSEED``.
    """
    ratios = cycle_ratios(graph, timing)
    if not ratios:
        return Fraction(0), []
    best = max(r for r, _ in ratios)
    return min(
        ((r, c) for r, c in ratios if r == best),
        key=lambda rc: tuple(sorted(str(v) for v in rc[1])),
    )
