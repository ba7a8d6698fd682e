"""The schedule-certification oracle stack.

Every scheduler path in this library is supposed to guarantee a small set
of invariants the paper states (and the repo elsewhere only spot-checks):

* **roundtrip** — the graph survives JSON serialization losslessly
  (ids keep their types, edge inits and node attrs survive), so a repro
  bundle reproduces exactly what the fuzzer saw;
* **retiming** — the reported retiming is legal for the graph
  (``dr(e) >= 0``, Theorem 2 / Lemma 1 direction);
* **lower_bound** — no schedule beats ``combined_lower_bound`` (iteration
  bound + resource bounds);
* **modulo** — the wrapped schedule is a legal modulo schedule at its
  period (reservation table + inter-iteration precedence, Section 4);
* **semantics** — the pipelined execution reproduces the sequential
  reference value streams bit-for-bit (:mod:`repro.sim`);
* **parity** — the incremental engine and the recompute-everything path
  produce identical results: schedules, tie sets and rotation counts.

Each oracle returns a list of :class:`OracleFailure` (empty = clean), so
the fuzz runner can aggregate them per cell and the unit tests can aim
deliberately broken inputs at each one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

from repro.bounds.lower_bounds import combined_lower_bound
from repro.core.scheduler import RotationResult
from repro.dfg import io as dfg_io
from repro.dfg.graph import DFG, NodeId
from repro.dfg.retiming import Retiming
from repro.errors import SimulationError
from repro.schedule.resources import ResourceModel
from repro.schedule.schedule import Schedule
from repro.schedule.verify import (
    modulo_precedence_violations,
    modulo_resource_conflicts,
)
from repro.sim.executor import PipelineExecutor


@dataclass(frozen=True)
class OracleFailure:
    """One violated invariant: which oracle fired and why."""

    oracle: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.oracle}] {self.message}"


def check_roundtrip(graph: DFG) -> List[OracleFailure]:
    """JSON round-trip losslessness (ids, ops, times, labels, attrs, inits)."""
    problems: List[str] = []
    try:
        back = dfg_io.loads(dfg_io.dumps(graph))
    except Exception as exc:
        return [OracleFailure("roundtrip", f"serialization raised {exc!r}")]
    if back.name != graph.name:
        problems.append(f"name {graph.name!r} -> {back.name!r}")
    if back.nodes != graph.nodes:
        problems.append(f"node ids changed: {graph.nodes!r} -> {back.nodes!r}")
    else:
        for v in graph.nodes:
            for what, a, b in (
                ("op", graph.op(v), back.op(v)),
                ("time", graph.explicit_time(v), back.explicit_time(v)),
                ("label", graph.label(v), back.label(v)),
                ("attrs", graph.attrs(v), back.attrs(v)),
            ):
                if a != b:
                    problems.append(f"node {v!r} {what}: {a!r} -> {b!r}")
    orig_edges = [(e.src, e.dst, e.delay, graph.edge_init(e)) for e in graph.edges]
    back_edges = [(e.src, e.dst, e.delay, back.edge_init(e)) for e in back.edges]
    back_edges = [
        (s, d, dl, tuple(i) if i is not None else None) for s, d, dl, i in back_edges
    ]
    if orig_edges != back_edges:
        problems.append(f"edges changed: {orig_edges!r} -> {back_edges!r}")
    return [OracleFailure("roundtrip", p) for p in problems]


def check_retiming(graph: DFG, retiming: Retiming) -> List[OracleFailure]:
    """Legality of the reported retiming (every rotation is a legal retiming)."""
    bad = retiming.illegal_edges(graph)
    return [
        OracleFailure("retiming", f"{e} retimed to dr={retiming.dr(e)} < 0")
        for e in bad
    ]


def check_lower_bound(
    graph: DFG, model: ResourceModel, length: int
) -> List[OracleFailure]:
    """``combined_lower_bound <= length`` — a shorter schedule is a bug
    somewhere (in the scheduler or in the bound)."""
    lb = combined_lower_bound(graph, model)
    if length < lb.combined:
        return [
            OracleFailure(
                "lower_bound",
                f"length {length} beats combined lower bound {lb.combined} "
                f"(binding: {lb.binding})",
            )
        ]
    return []


def check_modulo(
    graph: DFG,
    model: ResourceModel,
    start: Mapping[NodeId, int],
    period: int,
    retiming: Optional[Retiming] = None,
) -> List[OracleFailure]:
    """Wrapped/modulo-schedule legality at the claimed period."""
    out = [
        OracleFailure("modulo", f"resource: {p}")
        for p in modulo_resource_conflicts(graph, model, start, period)
    ]
    out += [
        OracleFailure("modulo", f"precedence: {p}")
        for p in modulo_precedence_violations(graph, model, start, period, retiming)
    ]
    return out


def check_semantics(
    schedule: Schedule,
    retiming: Retiming,
    period: int,
    iterations: Optional[int] = None,
) -> List[OracleFailure]:
    """Pipelined execution == sequential reference, value for value.

    Requires node funcs (the fuzz runner attaches deterministic affine
    semantics before scheduling).
    """
    try:
        executor = PipelineExecutor(schedule, retiming, period)
        n = iterations if iterations is not None else executor.depth + 8
        report = executor.verify(max(n, executor.depth))
    except SimulationError as exc:
        return [OracleFailure("semantics", f"execution raised: {exc}")]
    if not report.matches_reference:
        return [
            OracleFailure(
                "semantics",
                f"pipelined streams diverge from reference "
                f"(max |err| {report.max_abs_error:.3g}) over {report.iterations} iterations",
            )
        ]
    return []


def check_parity(
    engine: RotationResult, naive: RotationResult, label: str = ""
) -> List[OracleFailure]:
    """Bit-parity of two scheduling outcomes (engine backend vs reference):
    length, depth, start map and retiming, the tie count, the rotations
    run (so a backend that stops its search elsewhere is caught) and each
    alternate's start map, retiming and period.

    ``label`` names the pair under test (e.g. ``"flat vs naive"``) so a
    three-way backend comparison reports which backend diverged.
    """
    problems: List[str] = []
    if engine.length != naive.length:
        problems.append(f"length {engine.length} != {naive.length}")
    if engine.depth != naive.depth:
        problems.append(f"depth {engine.depth} != {naive.depth}")
    if engine.schedule.start_map != naive.schedule.start_map:
        diff = {
            v: (engine.schedule.start_map.get(v), naive.schedule.start_map.get(v))
            for v in set(engine.schedule.start_map) | set(naive.schedule.start_map)
            if engine.schedule.start_map.get(v) != naive.schedule.start_map.get(v)
        }
        problems.append(f"start times differ: {diff!r}")
    if engine.retiming != naive.retiming:
        problems.append(
            f"retimings differ: {engine.retiming!r} != {naive.retiming!r}"
        )
    for name in ("optimal_count", "rotations_performed"):
        if getattr(engine, name) != getattr(naive, name):
            problems.append(f"{name} {getattr(engine, name)} != {getattr(naive, name)}")
    alts = [[(a.schedule.start_map, a.retiming, a.period) for a in r.alternates]
            for r in (engine, naive)]
    if alts[0] != alts[1]:
        diverge = next((k for k, (a, b) in enumerate(zip(*alts)) if a != b), min(map(len, alts)))
        problems.append(f"alternates diverge at #{diverge} ({len(alts[0])} vs {len(alts[1])})")
    prefix = f"{label}: " if label else ""
    return [OracleFailure("parity", prefix + p) for p in problems]


def certify_rotation(
    graph: DFG, model: ResourceModel, result: RotationResult
) -> List[OracleFailure]:
    """The full per-result oracle stack for a rotation-scheduling outcome."""
    failures = check_retiming(graph, result.retiming)
    failures += check_lower_bound(graph, model, result.length)
    start = result.schedule.normalized().start_map
    failures += check_modulo(graph, model, start, result.length, result.retiming)
    # A retiming that is already illegal would make the executor explode in
    # uninteresting ways; only check semantics on top of a legal retiming.
    if not failures or all(f.oracle == "lower_bound" for f in failures):
        failures += check_semantics(result.schedule, result.retiming, result.length)
    return failures


def certify_wrapped(
    graph: DFG,
    model: ResourceModel,
    schedule: Schedule,
    retiming: Retiming,
    period: int,
) -> List[OracleFailure]:
    """Oracle stack for any (schedule, retiming, period) triple — used for
    the retime-then-schedule and modulo-kernel baseline paths."""
    failures = check_retiming(graph, retiming)
    failures += check_lower_bound(graph, model, period)
    failures += check_modulo(
        graph, model, schedule.normalized().start_map, period, retiming
    )
    if not failures or all(f.oracle == "lower_bound" for f in failures):
        failures += check_semantics(schedule, retiming, period)
    return failures
