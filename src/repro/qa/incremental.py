"""The incremental-parity oracle: session repairs equal from-scratch solves.

The :class:`~repro.core.session.MutableSchedulingSession` contract is that
every backend produces the *same* repaired schedule (repair is a
deterministic function of the edited graph, model and previous schedule)
and that the solve mode is bit-identical to
:func:`~repro.core.scheduler.rotation_schedule`.  This module turns both
promises into a fuzzable oracle:

* :func:`random_edit_script` derives a deterministic edit script from a
  graph/model pair — add/remove nodes and edges, delay and timing changes,
  resource resizing — validity-checked on a scratch copy so replaying it
  through a session never dead-ends (no zero-delay cycles, no dangling
  references).
* :func:`check_incremental_session` replays the script step-by-step
  through one session per backend (flat / naive), checks every repaired
  result bit-for-bit across backends (``check_parity``), certifies the
  naive result against the retiming / lower-bound / modulo oracles, and
  finally pins the session's solve mode against ``rotation_schedule`` on
  the fully-edited graph.

Wired into the fuzz grid as the ``incremental`` path (see
:mod:`repro.qa.runner`), so ``rotsched fuzz --smoke`` exercises it on
every pre-merge gate.

``PINNED_EDIT_SCRIPTS`` are the fixed single-edit scripts the perfcheck
gate's repair tier replays on the golden cells.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from repro.core.engine import BACKENDS
from repro.core.scheduler import rotation_schedule
from repro.core.session import MutableSchedulingSession, open_session
from repro.dfg.analysis import topological_order
from repro.dfg.graph import DFG
from repro.errors import ZeroDelayCycleError
from repro.schedule.resources import ResourceModel
from repro.qa.oracles import (
    OracleFailure,
    check_lower_bound,
    check_modulo,
    check_parity,
    check_retiming,
)

#: Fixed single-edit scripts the perfcheck repair tier replays; keep them
#: stable — PERF_PINS.json pins their repaired lengths and invalidation
#: counts.
PINNED_EDIT_SCRIPTS: Dict[str, List[Dict[str, Any]]] = {
    # Resource tightening: shrink the adder pool by one.
    "tighten-adder": [{"edit": "set_resource_counts", "counts": {"adder": 2}}],
    # Structural edit: drop one multiplier tap (and its edges).
    "drop-mult": [{"edit": "remove_node", "node": "M7"}],
    # Timing edit: one adder in the middle of the filter slows down.
    "slow-node": [{"edit": "set_exec_time", "node": "c5", "time": 2}],
}


def _zero_delay_ok(graph: DFG) -> bool:
    try:
        topological_order(graph)
        return True
    except ZeroDelayCycleError:
        return False


def random_edit_script(
    graph: DFG,
    model: ResourceModel,
    rng: random.Random,
    steps: int = 5,
) -> List[Dict[str, Any]]:
    """A deterministic, replayable edit script valid for ``(graph, model)``.

    Each candidate edit is applied to a scratch copy first; edits that
    would create a zero-delay cycle or empty the graph are repaired
    (delay bumped to 1) or skipped, so the emitted script always replays
    cleanly.  Edge references use ``src``/``dst`` + ``nth`` (stable across
    replicas: the scratch copy and every session see the same edge order).
    """
    scratch = graph.copy()
    counts = {u.name: u.count for u in model.units}
    ops = sorted({op for u in model.units for op in model.ops_for_unit(u.name)})
    script: List[Dict[str, Any]] = []
    fresh = 0
    kinds = (
        "add_edge", "remove_edge", "set_delay", "add_node",
        "remove_node", "set_exec_time", "set_resource_counts",
    )
    for _ in range(steps):
        kind = kinds[rng.randrange(len(kinds))]
        nodes = scratch.nodes
        if kind == "add_edge" and len(nodes) >= 2:
            src = nodes[rng.randrange(len(nodes))]
            dst = nodes[rng.randrange(len(nodes))]
            delay = rng.randint(0, 2)
            e = scratch.add_edge(src, dst, delay)
            if delay == 0 and not _zero_delay_ok(scratch):
                scratch.set_delay(e, 1)
                delay = 1
            script.append({"edit": "add_edge", "src": src, "dst": dst, "delay": delay})
        elif kind == "remove_edge" and scratch.num_edges > 1:
            edges = scratch.edges
            e = edges[rng.randrange(len(edges))]
            script.append(_edge_ref(scratch, e, "remove_edge"))
            scratch.remove_edge(e)
        elif kind == "set_delay" and scratch.num_edges:
            edges = scratch.edges
            e = edges[rng.randrange(len(edges))]
            delay = rng.randint(0, 3)
            if delay == e.delay:
                continue
            ref = _edge_ref(scratch, e, "set_delay")
            old = e.delay
            scratch.set_delay(e, delay)
            if delay == 0 and not _zero_delay_ok(scratch):
                scratch.set_delay(e.eid, old)
                continue
            ref["delay"] = delay
            script.append(ref)
        elif kind == "add_node":
            node = f"qx{fresh}"
            fresh += 1
            op = ops[rng.randrange(len(ops))] if ops else "op"
            scratch.add_node(node, op)
            script.append({"edit": "add_node", "node": node, "op": op})
            # Tie the new node into the loop with delayed edges (delay >= 1
            # can never create a zero-delay cycle).
            for _ in range(rng.randint(1, 2)):
                other = nodes[rng.randrange(len(nodes))]
                if rng.random() < 0.5:
                    e = scratch.add_edge(other, node, rng.randint(1, 2))
                    script.append(
                        {"edit": "add_edge", "src": other, "dst": node, "delay": e.delay}
                    )
                else:
                    e = scratch.add_edge(node, other, rng.randint(1, 2))
                    script.append(
                        {"edit": "add_edge", "src": node, "dst": other, "delay": e.delay}
                    )
        elif kind == "remove_node" and scratch.num_nodes > 4:
            node = nodes[rng.randrange(len(nodes))]
            scratch.remove_node(node)
            script.append({"edit": "remove_node", "node": node})
        elif kind == "set_exec_time" and nodes:
            node = nodes[rng.randrange(len(nodes))]
            t = rng.randint(1, 3)
            scratch.set_exec_time(node, t)
            script.append({"edit": "set_exec_time", "node": node, "time": t})
        elif kind == "set_resource_counts" and counts:
            names = sorted(counts)
            name = names[rng.randrange(len(names))]
            want = max(1, min(4, counts[name] + (1 if rng.random() < 0.5 else -1)))
            if want == counts[name]:
                continue
            counts[name] = want
            script.append({"edit": "set_resource_counts", "counts": {name: want}})
    return script


def _edge_ref(graph: DFG, e, kind: str) -> Dict[str, Any]:
    """A replica-stable edge reference: (src, dst, occurrence index)."""
    nth = 0
    for other in graph.edges:
        if other.eid == e.eid:
            break
        if other.src == e.src and other.dst == e.dst:
            nth += 1
    ref: Dict[str, Any] = {"edit": kind, "src": e.src, "dst": e.dst}
    if nth:
        ref["nth"] = nth
    return ref


def _compare_backends(
    results: Dict[str, Any], label: str
) -> List[OracleFailure]:
    naive = results["naive"]
    out: List[OracleFailure] = []
    for backend in results:
        if backend == "naive":
            continue
        for f in check_parity(results[backend], naive, f"{label}: {backend} vs naive"):
            out.append(OracleFailure("incremental-parity", f.message))
    return out


def _certify_repair(
    graph: DFG, model: ResourceModel, result, label: str
) -> List[OracleFailure]:
    """Certify one repaired result: legal retiming, length above the lower
    bound, and modulo-legal starts at the reported period.  (Semantic
    simulation is skipped — edit scripts freely break funcs/edge inits.
    The lower bound is skipped once a script sets explicit node times:
    occupancy is driven by per-op unit latency throughout the schedulers,
    so the override-aware iteration bound does not bound them.)"""
    failures = check_retiming(graph, result.retiming)
    if not any(graph.explicit_time(v) is not None for v in graph.nodes):
        failures += check_lower_bound(graph, model, result.length)
    if not failures:
        failures = check_modulo(
            graph, model,
            result.schedule.normalized().start_map,
            result.length,
            result.retiming,
        )
    return [OracleFailure("incremental-parity", f"{label}: [{f.oracle}] {f.message}") for f in failures]


def check_incremental_session(
    graph: DFG,
    model: ResourceModel,
    steps: int = 4,
    seed: Optional[int] = None,
) -> List[OracleFailure]:
    """Replay a random edit script through sessions on every backend.

    After the initial solve and after every edit, the repaired
    results must agree bit-for-bit and the repair must certify as a legal
    modulo schedule; after the last edit the session *solve* path must
    equal ``rotation_schedule`` on the edited graph.  The script seed is
    derived from the graph shape so reruns (and the shrinker) are
    deterministic.
    """
    if seed is None:
        seed = graph.num_nodes * 1_000_003 + graph.num_edges * 10_007 + graph.total_delay()
    rng = random.Random(seed)
    script = random_edit_script(graph, model, rng, steps)
    sessions: Dict[str, MutableSchedulingSession] = {
        b: open_session(graph, model, backend=b) for b in BACKENDS
    }
    results = {b: s.resolve() for b, s in sessions.items()}
    failures = _compare_backends(results, "initial solve")
    if failures:
        return failures
    for step, op in enumerate(script):
        label = f"step {step} ({op['edit']})"
        for s in sessions.values():
            s.apply_edit(op)
        results = {}
        for b, s in sessions.items():
            try:
                results[b] = s.resolve()
            except Exception as exc:
                failures.append(
                    OracleFailure(
                        "incremental-parity",
                        f"{label}: {b} raised {type(exc).__name__}: {exc}",
                    )
                )
        if failures:
            return failures
        failures = _compare_backends(results, label)
        if failures:
            return failures
        ref = sessions["naive"]
        failures = _certify_repair(ref.graph, ref.model, results["naive"], label)
        if failures:
            return failures
    # The solve path must match a from-scratch rotation_schedule of the
    # edited graph exactly (fresh session: same graph state, no seed).
    edited = sessions["flat"]
    solve = open_session(edited.graph, edited.model, backend="flat").resolve()
    scratch = rotation_schedule(edited.graph, edited.model, heuristic="h2", backend="flat")
    for f in check_parity(solve, scratch, "final solve vs rotation_schedule"):
        failures.append(OracleFailure("incremental-parity", f.message))
    return failures
