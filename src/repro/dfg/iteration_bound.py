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
arithmetic is on integers.  The last improving cycle is a maximum-ratio
cycle: :func:`critical_cycle` returns it, so no cycle is ever enumerated.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from repro.dfg.graph import DFG, NodeId, Timing
from repro.dfg.analysis import topological_order  # validates zero-delay acyclicity


#: graph -> (graph epoch, src index, dst index, delay,
#: {node times: (bound, witness edge indices)}).
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
    """Edge indices of a negative cycle under ``weight``, in path order,
    or None.

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
                    return cycle[::-1]


def _max_cycle_ratio(
    times: Sequence[int], esrc: Sequence[int], edst: Sequence[int], edelay: Sequence[int]
) -> Tuple[Fraction, Tuple[int, ...]]:
    """``max t(C)/d(C)`` by cycle improvement, with the edge indices of the
    last improving cycle (``(0, ())`` when no cycle has positive time)."""
    tsrc = [times[u] for u in esrc]
    bound, witness = Fraction(0), ()
    while True:
        p, q = bound.numerator, bound.denominator
        weight = [p * d - q * t for d, t in zip(edelay, tsrc)]
        cycle = _beating_cycle(len(times), esrc, edst, weight)
        if cycle is None:
            return bound, witness
        bound = Fraction(sum(tsrc[k] for k in cycle), sum(edelay[k] for k in cycle))
        witness = tuple(cycle)


def _solve(graph: DFG, timing: Optional[Timing]) -> Tuple[Fraction, Tuple[int, ...]]:
    """The memoized ``(bound, witness)`` of ``graph`` under ``timing``."""
    _, esrc, edst, edelay, memo = _columns(graph)
    times = tuple(graph.time(v, timing) for v in graph.nodes)
    got = memo.get(times)
    if got is None:
        got = memo[times] = _max_cycle_ratio(times, esrc, edst, edelay)
    return got


def iteration_bound(graph: DFG, timing: Optional[Timing] = None) -> Fraction:
    """Exact iteration bound ``max over cycles of t(C)/d(C)``; 0 when the
    graph is acyclic.

    Args:
        graph: the DFG (must have no zero-delay cycle).
        timing: op-type timing model; defaults to per-node times.
    """
    return _solve(graph, timing)[0]


def critical_cycle(graph: DFG, timing: Optional[Timing] = None) -> Tuple[Fraction, List[NodeId]]:
    """A maximum-ratio cycle: ``(bound, nodes in path order)``; ``(0, [])``
    when no cycle has positive time.

    The witness is the cycle-improvement loop's last improving cycle.
    Among tied maximum-ratio cycles that is the first one Bellman–Ford
    closes while relaxing edges in ``graph.edges`` order, so it depends on
    the graph's edge order alone, never on ``PYTHONHASHSEED``.
    """
    bound, witness = _solve(graph, timing)
    nodes = graph.nodes
    esrc = _columns(graph)[1]
    return bound, [nodes[esrc[k]] for k in witness]


def fraction_ceil(x: Fraction) -> int:
    """The least integer ``>= x``, in exact arithmetic."""
    return -(-x.numerator // x.denominator)


def iteration_bound_ceil(graph: DFG, timing: Optional[Timing] = None) -> int:
    """The integer bound quoted in the paper's Table 1: ``ceil(IB)``."""
    return fraction_ceil(iteration_bound(graph, timing))
