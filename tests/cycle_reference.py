"""Reference cycle enumeration for the tests.

The library computes the iteration bound, the critical cycle and the
explorer's register bound without enumerating cycles.  The tests check
those answers against this enumerator: every simple cycle of the graph,
by ``networkx.simple_cycles``, with its exact ratio ``t(C)/d(C)``.
Enumeration is exponential in the worst case, so only small graphs go
through it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from repro.dfg import DFG, NodeId, Timing


def cycle_ratios(graph: DFG, timing: Optional[Timing] = None) -> List[Tuple[Fraction, List[NodeId]]]:
    """Every simple cycle's ratio ``t(C)/d(C)`` with its node sequence.

    Parallel edges collapse to their minimum delay: node times are fixed,
    so a cycle's ratio is largest over the least-delay edge between two
    nodes, and the maximum ratio is kept.
    """
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(graph.nodes)
    for e in graph.edges:
        if not g.has_edge(e.src, e.dst) or e.delay < g[e.src][e.dst]["delay"]:
            g.add_edge(e.src, e.dst, delay=e.delay)
    return [
        (
            Fraction(
                sum(graph.time(v, timing) for v in cycle),
                sum(g[u][v]["delay"] for u, v in zip(cycle, cycle[1:] + cycle[:1])),
            ),
            cycle,
        )
        for cycle in nx.simple_cycles(g)
    ]


def enumerated_bound(graph: DFG, timing: Optional[Timing] = None) -> Fraction:
    """The largest enumerated cycle ratio (0 when the graph is acyclic)."""
    return max((r for r, _ in cycle_ratios(graph, timing)), default=Fraction(0))
