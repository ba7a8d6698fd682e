"""Seeded single-edit streams that keep a session near its base graph.

Each change comes with its undo right behind it (a delay is set and set
back, an edge or node is added and removed again, a unit count moves by
one and back), so the edited graph never drifts far from the base and
repair cost stays stationary however long a run lasts.  Every edit is
validated on a scratch copy first: no zero-delay cycles, no dangling
references.  ``set_exec_time`` is never used — its meaning is due to
change.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List

from repro.dfg.analysis import topological_order
from repro.errors import ZeroDelayCycleError

KINDS = (
    "set_delay", "add_edge", "remove_edge", "add_node", "remove_node",
    "set_resource_counts",
)


def _acyclic_at_zero(graph) -> bool:
    try:
        topological_order(graph)
        return True
    except ZeroDelayCycleError:
        return False


def _edge_ref(graph, edge) -> Dict[str, Any]:
    nth = sum(
        1 for e in graph.edges[: graph.edges.index(edge)]
        if e.src == edge.src and e.dst == edge.dst
    )
    ref: Dict[str, Any] = {"src": edge.src, "dst": edge.dst}
    if nth:
        ref["nth"] = nth
    return ref


def _change(scratch, counts: Dict[str, int], ops: List[str], rng: random.Random,
            fresh: int) -> List[Dict[str, Any]]:
    """One change and its undo, drawn against ``scratch`` (left as found)."""
    kind = KINDS[rng.randrange(len(KINDS))]
    nodes = scratch.nodes
    if kind == "set_delay":
        e = scratch.edges[rng.randrange(scratch.num_edges)]
        old, new = e.delay, rng.choice([d for d in range(4) if d != e.delay])
        ref = _edge_ref(scratch, e)
        scratch.set_delay(e, new)
        ok = _acyclic_at_zero(scratch)
        scratch.set_delay(e.eid, old)
        if not ok:
            return []
        return [{"edit": "set_delay", **ref, "delay": new},
                {"edit": "set_delay", **ref, "delay": old}]
    if kind == "add_edge":
        src, dst = rng.choice(nodes), rng.choice(nodes)
        delay = rng.randint(0, 2)
        e = scratch.add_edge(src, dst, delay)
        if not _acyclic_at_zero(scratch):
            scratch.set_delay(e, 1)
            delay = 1
        ref = _edge_ref(scratch, scratch.edge_by_id(e.eid))
        scratch.remove_edge(scratch.edge_by_id(e.eid))
        return [{"edit": "add_edge", "src": src, "dst": dst, "delay": delay},
                {"edit": "remove_edge", **ref}]
    if kind == "remove_edge":
        if scratch.num_edges <= 2:
            return []
        e = scratch.edges[rng.randrange(scratch.num_edges)]
        return [{"edit": "remove_edge", **_edge_ref(scratch, e)},
                {"edit": "add_edge", "src": e.src, "dst": e.dst, "delay": e.delay}]
    if kind == "add_node":
        node = f"bx{fresh}"
        out = [{"edit": "add_node", "node": node, "op": rng.choice(ops)}]
        for _ in range(rng.randint(1, 2)):
            other = rng.choice(nodes)
            src, dst = (other, node) if rng.random() < 0.5 else (node, other)
            out.append({"edit": "add_edge", "src": src, "dst": dst,
                        "delay": rng.randint(1, 2)})
        out.append({"edit": "remove_node", "node": node})
        return out
    if kind == "remove_node":
        if scratch.num_nodes <= 6:
            return []
        node = rng.choice(nodes)
        incident = [e for e in scratch.edges if node in (e.src, e.dst)]
        out = [{"edit": "remove_node", "node": node},
               {"edit": "add_node", "node": node, "op": scratch.op(node)}]
        out += [{"edit": "add_edge", "src": e.src, "dst": e.dst, "delay": e.delay}
                for e in incident]
        return out
    name = rng.choice(sorted(counts))
    old = counts[name]
    new = old + 1 if old == 1 or (old < 4 and rng.random() < 0.5) else old - 1
    return [{"edit": "set_resource_counts", "counts": {name: new}},
            {"edit": "set_resource_counts", "counts": {name: old}}]


def _apply(scratch, op: Dict[str, Any]) -> None:
    """Mirror one edit on the scratch copy, as a session applies it."""
    kind = op["edit"]
    if kind == "add_node":
        scratch.add_node(op["node"], op["op"])
    elif kind == "remove_node":
        scratch.remove_node(op["node"])
    elif kind == "add_edge":
        scratch.add_edge(op["src"], op["dst"], op["delay"])
    elif kind in ("remove_edge", "set_delay"):
        e = [e for e in scratch.edges
             if e.src == op["src"] and e.dst == op["dst"]][op.get("nth", 0)]
        if kind == "remove_edge":
            scratch.remove_edge(e)
        else:
            scratch.set_delay(e, op["delay"])


def edit_stream(graph, model, rng: random.Random) -> Iterator[Dict[str, Any]]:
    """An endless seeded stream of single edits valid for ``(graph, model)``."""
    scratch = graph.copy()
    counts = {u.name: u.count for u in model.units}
    ops = sorted({op for u in model.units for op in model.ops_for_unit(u.name)})
    fresh = 0
    while True:
        batch = _change(scratch, counts, ops, rng, fresh)
        fresh += 1
        for op in batch:
            _apply(scratch, op)
            yield op
