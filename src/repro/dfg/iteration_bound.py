"""Iteration bound of a cyclic DFG (Renfors & Neuvo bound).

The iteration bound is the theoretical minimum static-schedule length over
all retimings and unlimited resources::

    IB(G) = max over cycles C of  ceil( t(C) / d(C) )

where ``t(C)`` sums the computation times of the nodes on the cycle and
``d(C)`` sums the delays on its edges.  The paper quotes the *ceiling* in
Table 1; :func:`iteration_bound` returns the exact rational
``max t(C)/d(C)`` and :func:`iteration_bound_ceil` the table value.

Two algorithms are provided and cross-checked in the tests:

* :func:`iteration_bound_enumerate` — enumerate simple cycles (fine for the
  paper's benchmark graphs, exponential in general);
* :func:`iteration_bound_parametric` — parametric shortest paths: a cycle of
  ratio greater than ``lambda`` exists iff the edge weights
  ``lambda * d(e) - t(src)`` admit a negative cycle.  Binary search over
  ``lambda`` plus a rational snap gives the exact bound in
  ``O(V * E * log)`` time.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.dfg.graph import DFG, NodeId, Timing
from repro.dfg.analysis import topological_order  # validates zero-delay acyclicity
from repro.errors import GraphError


#: per-edge integer columns for the parametric probes:
#: ``(num_nodes, src_index, dst_index, delay, t(src))``.
ConstraintArrays = Tuple[int, List[int], List[int], List[int], List[int]]

#: graph -> {id(timing): (timing, graph epoch, arrays)}.  Same shape and
#: same staleness rule as ``repro.core.wrapping._WRAP_STATIC``: the strong
#: timing reference inside the value keeps the id stable for the entry's
#: lifetime, the outer keys die with their graphs, and the stored epoch
#: invalidates the entry after an in-place mutation (DFG versioned-mutation
#: protocol) — without it a MutableSchedulingSession edit followed by a
#: lower-bound check would probe stale constraint columns.
_ARRAYS_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _constraint_arrays(graph: DFG, timing: Optional[Timing]) -> ConstraintArrays:
    """Compile the constraint graph once for the whole binary search.

    Every probe needs the same four per-edge numbers — source index,
    destination index, delay, and source computation time — so they are
    extracted from the object graph a single time and each probe becomes
    pure integer array arithmetic.  The compile itself is memoized per
    (graph, timing, epoch), so repeated bound queries on an unchanged
    graph (the QA lower-bound oracle runs once per fuzz cell; sessions
    re-check after every edit) skip the object-graph walk entirely.
    """
    per_graph = _ARRAYS_CACHE.get(graph)
    if per_graph is None:
        per_graph = {}
        _ARRAYS_CACHE[graph] = per_graph
    entry = per_graph.get(id(timing))
    if entry is not None and entry[0] is timing and entry[1] == graph.epoch:
        return entry[2]
    arrays = _compile_constraint_arrays(graph, timing)
    per_graph[id(timing)] = (timing, graph.epoch, arrays)
    return arrays


def _compile_constraint_arrays(graph: DFG, timing: Optional[Timing]) -> ConstraintArrays:
    """The raw object-graph walk behind :func:`_constraint_arrays`."""
    index = {v: i for i, v in enumerate(graph.nodes)}
    esrc: List[int] = []
    edst: List[int] = []
    edelay: List[int] = []
    etsrc: List[int] = []
    for e in graph.edges:
        esrc.append(index[e.src])
        edst.append(index[e.dst])
        edelay.append(e.delay)
        etsrc.append(graph.time(e.src, timing))
    return (graph.num_nodes, esrc, edst, edelay, etsrc)


def _arrays_have_cycle(arrays: ConstraintArrays, lam: Fraction, strict: bool) -> bool:
    """Does a cycle with ratio ``> lam`` (strict) / ``>= lam`` exist?

    Uses Bellman–Ford negative-cycle detection on integer edge weights
    ``a(e) = p * d(e) - q * t(src)`` where ``lam = p / q``:
    a cycle has weight sum ``< 0`` iff its time/delay ratio exceeds ``lam``.
    For the non-strict test, weights are scaled so that integer cycle sums
    ``<= 0`` become strictly negative.
    """
    n, esrc, edst, edelay, etsrc = arrays
    m = len(esrc)
    p, q = lam.numerator, lam.denominator
    scale = 1 if strict else m + 1
    sub = 0 if strict else 1
    weight = [(p * edelay[k] - q * etsrc[k]) * scale - sub for k in range(m)]

    # Bellman-Ford from a virtual source connected to every node (dist 0).
    dist = [0] * n
    for _ in range(n):
        changed = False
        for k in range(m):
            nd = dist[esrc[k]] + weight[k]
            if nd < dist[edst[k]]:
                dist[edst[k]] = nd
                changed = True
        if not changed:
            return False
    # one more pass: any further relaxation proves a negative cycle
    for k in range(m):
        if dist[esrc[k]] + weight[k] < dist[edst[k]]:
            return True
    return False


#: graph -> (graph epoch, [(cycle nodes, d(C))]): neither depends on the
#: timing, so one enumeration serves every timing.  Same staleness rule
#: as :data:`_ARRAYS_CACHE`.
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
                raise GraphError(f"more than {limit} simple cycles; use the parametric bound")
            cycles.append((cycle, sum(
                g[u][v]["delay"] for u, v in zip(cycle, cycle[1:] + cycle[:1])
            )))
        entry = _CYCLES_CACHE[graph] = (graph.epoch, cycles)
    if len(entry[1]) > limit:
        raise GraphError(f"more than {limit} simple cycles; use the parametric bound")
    return entry[1]


def cycle_ratios(graph: DFG, timing: Optional[Timing] = None, limit: int = 100_000) -> List[Tuple[Fraction, List[NodeId]]]:
    """All simple-cycle ratios ``t(C)/d(C)`` with their node sequences.

    Raises :class:`GraphError` if more than ``limit`` cycles are found
    (switch to the parametric algorithm instead).
    """
    return [
        (Fraction(sum(graph.time(v, timing) for v in cycle), d), list(cycle))
        for cycle, d in cycle_delays(graph, limit)
    ]


def iteration_bound_enumerate(graph: DFG, timing: Optional[Timing] = None) -> Fraction:
    """Exact iteration bound by simple-cycle enumeration."""
    ratios = cycle_ratios(graph, timing)
    if not ratios:
        return Fraction(0)
    return max(r for r, _ in ratios)


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


def iteration_bound_parametric(graph: DFG, timing: Optional[Timing] = None) -> Fraction:
    """Exact iteration bound by parametric negative-cycle binary search.

    The constraint graph is compiled to integer arrays once
    (:func:`_constraint_arrays`) and reused by every probe — the binary
    search and the rational snap issue ~85 of them, so the object-graph
    walk is hoisted out of the loop entirely.
    """
    topological_order(graph)  # zero-delay legality check
    total_delay = graph.total_delay()
    if total_delay == 0:
        return Fraction(0)
    arrays = _constraint_arrays(graph, timing)
    if not _arrays_have_cycle(arrays, Fraction(0), strict=True):
        # no cycle with positive ratio => acyclic graph (times are positive)
        return Fraction(0)

    hi = sum(graph.time(v, timing) for v in graph.nodes)  # ratio <= total time
    lo_f, hi_f = 0.0, float(hi)
    for _ in range(80):
        mid = (lo_f + hi_f) / 2.0
        if _arrays_have_cycle(arrays, Fraction(mid).limit_denominator(10**9), strict=True):
            lo_f = mid
        else:
            hi_f = mid
    # Snap to an exact rational: lambda* = t(C)/d(C) has denominator <= total_delay.
    estimate = (lo_f + hi_f) / 2.0
    for dmax in (total_delay, 10 * total_delay, 10**6):
        candidate = Fraction(estimate).limit_denominator(dmax)
        if _arrays_exact_bound(arrays, candidate):
            return candidate
        # try the neighbours reachable within the residual interval
        for f in (lo_f, hi_f):
            candidate = Fraction(f).limit_denominator(dmax)
            if _arrays_exact_bound(arrays, candidate):
                return candidate
    raise GraphError("parametric iteration bound failed to converge")  # pragma: no cover


def _arrays_exact_bound(arrays: ConstraintArrays, lam: Fraction) -> bool:
    """``lam`` is the exact bound iff some cycle attains it and none exceeds it."""
    if lam <= 0:
        return False
    return _arrays_have_cycle(arrays, lam, strict=False) and not _arrays_have_cycle(
        arrays, lam, strict=True
    )


def iteration_bound(
    graph: DFG,
    timing: Optional[Timing] = None,
    method: str = "auto",
) -> Fraction:
    """Exact iteration bound ``max over cycles of t(C)/d(C)``.

    Args:
        graph: the DFG (must have no zero-delay cycle).
        timing: op-type timing model; defaults to per-node times.
        method: ``"auto"`` (enumerate small graphs, else parametric),
            ``"enumerate"`` or ``"parametric"``.
    """
    if method == "enumerate":
        return iteration_bound_enumerate(graph, timing)
    if method == "parametric":
        return iteration_bound_parametric(graph, timing)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    if graph.num_nodes <= 60:
        try:
            return iteration_bound_enumerate(graph, timing)
        except GraphError:
            pass
    return iteration_bound_parametric(graph, timing)


def iteration_bound_ceil(graph: DFG, timing: Optional[Timing] = None, method: str = "auto") -> int:
    """The integer bound quoted in the paper's Table 1: ``ceil(IB)``.

    ``"auto"`` never forms the exact ratio: ``ceil(IB)`` is the least
    integer ``L`` that no cycle's ratio exceeds, found by bisecting over
    the parametric probe (a handful of Bellman-Ford passes, no cycle
    enumeration).  The other methods take the ceiling of
    :func:`iteration_bound`.
    """
    if method != "auto":
        bound = iteration_bound(graph, timing, method)
        return -(-bound.numerator // bound.denominator)
    topological_order(graph)  # zero-delay legality check
    arrays = _constraint_arrays(graph, timing)
    lo, hi = 0, sum(graph.time(v, timing) for v in graph.nodes)  # IB <= total time
    while lo < hi:
        mid = (lo + hi) // 2
        if _arrays_have_cycle(arrays, Fraction(mid), strict=True):
            lo = mid + 1
        else:
            hi = mid
    return lo
