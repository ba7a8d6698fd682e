"""The feedback-guided explorer: per-benchmark lanes of prune -> rank -> solve -> fold.

A **lane** is every cell of one benchmark, i.e. one frontier key
(``spec.bench``).  The frontier, the pruning, the ranking, the warm
chains and the solve memo all belong to one benchmark, so each lane runs
its own rounds on its own :class:`~repro.explore.runner.CellSolver`,
whose memo and warm sessions last across the lane's rounds:

1. **Prune** — every still-unsolved cell's solver-free lower bound
   (:func:`~repro.explore.bounds.cell_bound`) is checked against the
   lane's current frontier in canonical cell order.  A cell whose bound
   is covered by an achieved point can never change the frontier's
   point set, so it is dropped without solving (``pruned_dominated`` when
   the blocker is strictly cheaper, ``pruned_bound`` otherwise).
2. **Rank** — survivors are ordered by feedback instead of grid index:
   frontier-adjacent cells first (a solved grid neighbor exists), larger
   bound gap first (more room between the neighbor's achieved period and
   this cell's bound), then larger critical-cycle overlap with the cells
   already on the frontier, then canonical order as the final tie-break.
3. **Solve** — the head of the ranking (``round_size`` cells) is solved
   family by family — multi-cell families first, each small-to-large —
   so warm chains connect.
4. **Fold** — outcomes fold into the frontier in canonical cell order.

A lane's result is a pure function of its own cells, so the merged
report does not depend on the worker count or on timing: outcomes in
grid order, pruned cells concatenated in first-seen lane order,
counters summed.  With ``workers >= 2`` and two or more lanes, the
lanes run on ``min(workers, lanes)`` forked processes, started once per
call; lanes are handed out largest first (most cells, first-seen order
breaking ties) to whichever worker is idle.  Everything else runs
inline.

Each call reports through the active :mod:`repro.obs.tracer` as one
``explore`` span holding an ``explore.lane`` per lane, its
``explore.round`` spans, and per cell an ``explore.prune`` (kind, lower
bound, blocker), an ``explore.solve`` (the core's spans nest under it)
and an ``explore.fold`` (source, frontier verdict, point, bound gap).
A forked lane records under a fresh tracer that travels back with its
result and is grafted in lane order, so the ``explore.*`` spans are the
same for every worker count.

``mode="exhaustive"`` is one inline pass of cold solves in grid order,
unpruned and unranked — the baseline the perfcheck explore tier
measures the speedup against.
"""

from __future__ import annotations

import gc
import time
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import tracer as _obs
from repro.explore.space import CellSpec, ExploreError, Point, cell_cost, family_key
from repro.explore.bounds import CellBound, cell_bound, overlap
from repro.explore.frontier import ParetoFrontier
from repro.explore.runner import CellOutcome, CellSolver, ServeCellSolver

#: The explore/v1 counter names, in render order.
COUNTER_KEYS = (
    "cells_total",
    "solved",
    "pruned_bound",
    "pruned_dominated",
    "seeded_warm",
    "dedup_hits",
    "frontier_size",
    "rounds",
)

#: Cells a lane solves between pruning passes, whatever the worker count.
ROUND_SIZE = 8


@dataclass
class PrunedCell:
    """A cell skipped without solving, and the point that licensed it."""

    spec: CellSpec
    lb_point: Point
    blocker: Point
    kind: str  # "pruned_bound" | "pruned_dominated"

    def as_json(self) -> Dict[str, Any]:
        return {
            "cell": self.spec.as_json(),
            "lb_point": self.lb_point.as_json(),
            "blocker": self.blocker.as_json(),
            "kind": self.kind,
        }


@dataclass
class ExploreReport:
    """Everything one exploration produced."""

    mode: str
    cells: List[CellSpec]
    outcomes: List[CellOutcome]
    pruned: List[PrunedCell]
    frontiers: Dict[str, List[Tuple[Point, List[str]]]]
    counters: Dict[str, int]
    elapsed: float = 0.0

    def frontier_points(self, bench: str) -> List[Point]:
        return [p for p, _ in self.frontiers.get(bench, [])]

    def counter_line(self) -> str:
        return ", ".join(f"{k}={self.counters.get(k, 0)}" for k in COUNTER_KEYS)

    def as_json(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "counters": {k: self.counters.get(k, 0) for k in COUNTER_KEYS},
            "elapsed": self.elapsed,
            "frontiers": {
                bench: [[p.as_json(), labels] for p, labels in pts]
                for bench, pts in sorted(self.frontiers.items())
            },
            "outcomes": [o.as_json() for o in self.outcomes],
            "pruned": [p.as_json() for p in self.pruned],
        }


@dataclass
class _Lane:
    """What one lane produced; a lane worker pickles it back whole, with
    the tracer its spans went to when the parent traces."""

    outcomes: Dict[int, CellOutcome]
    pruned: List[PrunedCell]
    counters: Dict[str, int]
    frontiers: Dict[str, List[Tuple[Point, List[str]]]]
    trace: Optional[_obs.Tracer] = None


def _classify(blocker: Point, spec: CellSpec) -> str:
    return "pruned_dominated" if blocker.cost < cell_cost(spec) else "pruned_bound"


def _on_cell(spec: CellSpec, fn: Callable[[CellSpec], Any]) -> Any:
    """``fn(spec)``; a failure surfaces as an :class:`ExploreError` naming the cell."""
    try:
        return fn(spec)
    except ExploreError:
        raise
    except Exception as exc:
        raise ExploreError(f"cell {spec.label()}: {type(exc).__name__}: {exc}") from exc


def _rank(
    remaining: List[Tuple[int, CellSpec]],
    bounds: Dict[int, CellBound],
    solved: Dict[Tuple, CellOutcome],
    frontier_crit: Dict[str, List[frozenset]],
) -> List[Tuple[int, CellSpec]]:
    """Feedback order: adjacency, bound gap, critical-cycle overlap."""

    def neighbor_points(spec: CellSpec) -> List[Point]:
        fam = family_key(spec)
        pts = []
        for (ofam, adders, mults), outcome in solved.items():
            if ofam == fam and abs(adders - spec.adders) + abs(mults - spec.mults) == 1:
                pts.append(outcome.point)
        return pts

    def key(item: Tuple[int, CellSpec]):
        idx, spec = item
        bound = bounds[idx]
        pts = neighbor_points(spec)
        adjacent = 1 if pts else 0
        gap = max(
            (p.period_ns - bound.lb_period_ns for p in pts), default=Fraction(0)
        )
        crit = max(
            (overlap(bound.critical_nodes, c) for c in frontier_crit.get(spec.bench, [])),
            default=Fraction(0),
        )
        return (-adjacent, -gap, -crit, idx)

    return sorted(remaining, key=key)


def _solve_order(selection: List[Tuple[int, CellSpec]]) -> List[CellSpec]:
    """Family by family, in first-seen order, so warm chains connect.

    Multi-cell families come first, then single cells.  Cells inside a
    family run small-to-large in resource counts so each
    ``set_resource_counts`` hop grows the machine — the cheapest solves
    come first and the chain is deterministic.
    """
    by_family: Dict[Tuple, List[CellSpec]] = {}
    for _idx, spec in selection:
        by_family.setdefault(family_key(spec), []).append(spec)
    families = [
        sorted(cells, key=lambda s: (s.adders + s.mults, s.sort_key()))
        for cells in by_family.values()
    ]
    return [s for fam in families if len(fam) >= 2 for s in fam] + [
        s for fam in families if len(fam) < 2 for s in fam
    ]


def _run_lane(
    items: List[Tuple[int, CellSpec]],
    mode: str,
    round_size: int,
    solve: Callable[[CellSpec], CellOutcome],
) -> _Lane:
    """Run the prune -> rank -> solve -> fold rounds on ``items``
    (``(grid index, cell)`` pairs, in grid order) with ``solve``."""
    tr = _obs.active
    lane = _Lane({}, [], {k: 0 for k in COUNTER_KEYS}, {})
    counters = lane.counters
    frontiers: Dict[str, ParetoFrontier] = {}
    frontier_crit: Dict[str, List[frozenset]] = {}
    # (family, adders, mults) -> outcome, for adjacency + gap ranking.
    solved_index: Dict[Tuple, CellOutcome] = {}
    bounds: Dict[int, CellBound] = {}

    def solve_all(specs: List[CellSpec]) -> List[CellOutcome]:
        got = []
        for spec in specs:
            with tr.span("explore.solve", cell=spec.label()):
                got.append(_on_cell(spec, solve))
        return got

    def fold(selection: List[Tuple[int, CellSpec]], got: List[CellOutcome]) -> None:
        by_spec = {o.spec: o for o in got}
        for idx, spec in sorted(selection):
            outcome = by_spec[spec]
            lane.outcomes[idx] = outcome
            counters["solved"] += 1
            if outcome.seeded:
                counters["seeded_warm"] += 1
            if outcome.deduped or outcome.source in ("serve:memory", "serve:disk", "serve:coalesced"):
                counters["dedup_hits"] += 1
            front = frontiers.setdefault(spec.bench, ParetoFrontier())
            verdict = front.offer(outcome.point, spec.label())
            if verdict in ("added", "improved", "equal"):
                crit = cell_bound(spec).critical_nodes
                frontier_crit.setdefault(spec.bench, []).append(crit)
            fam = family_key(spec)
            solved_index[(fam, spec.adders, spec.mults)] = outcome
            if tr.enabled:
                bound = bounds.get(idx)
                gap = None if bound is None else str(outcome.point.period_ns - bound.lb_period_ns)
                tr.begin("explore.fold", cell=spec.label(), source=outcome.source,
                         frontier=verdict, point=outcome.point.as_json(), gap=gap)
                tr.end()

    benches = ",".join(dict.fromkeys(spec.bench for _idx, spec in items))
    with tr.span("explore.lane", bench=benches, cells=len(items)):
        if mode == "exhaustive":
            fold(items, solve_all([spec for _idx, spec in items]))
        else:
            bounds.update((idx, _on_cell(spec, cell_bound)) for idx, spec in items)
            remaining = list(items)
            while remaining:
                counters["rounds"] += 1
                with tr.span("explore.round", round=counters["rounds"]):
                    # 1. prune against the current frontiers, canonical order
                    survivors: List[Tuple[int, CellSpec]] = []
                    for idx, spec in remaining:
                        front = frontiers.get(spec.bench)
                        lb_point = bounds[idx].lb_point
                        blocker = front.blocker(lb_point) if front is not None else None
                        if blocker is None:
                            survivors.append((idx, spec))
                            continue
                        kind = _classify(blocker, spec)
                        counters[kind] += 1
                        lane.pruned.append(PrunedCell(spec, lb_point, blocker, kind))
                        if tr.enabled:
                            tr.begin("explore.prune", cell=spec.label(), kind=kind,
                                     lb=lb_point.as_json(), blocker=blocker.as_json())
                            tr.end()
                    remaining = survivors
                    if not remaining:
                        break
                    # 2. feedback ranking, 3. solve one round, 4. fold
                    selection = _rank(remaining, bounds, solved_index, frontier_crit)[:round_size]
                    chosen = {idx for idx, _spec in selection}
                    remaining = [item for item in remaining if item[0] not in chosen]
                    fold(selection, solve_all(_solve_order(selection)))
    lane.frontiers = {bench: f.points() for bench, f in frontiers.items()}
    return lane


def _solver(
    mode: str, backend: Optional[str], serve_solver: Optional[ServeCellSolver]
) -> Callable[[CellSpec], CellOutcome]:
    """A fresh lane's cell solve: the daemon's, a cold solve, or a new
    :class:`CellSolver`'s warm path."""
    if serve_solver is not None:
        return serve_solver.solve
    solver = CellSolver(backend)
    return solver.solve_cold if mode == "exhaustive" else solver.solve


def _lane_worker(
    items: List[Tuple[int, CellSpec]], round_size: int, backend: Optional[str], traced: bool
) -> _Lane:
    """One lane in a worker process, on its own solver; outcomes travel
    back without their :class:`~repro.core.scheduler.RotationResult`,
    and with ``traced`` the lane's spans travel back on a fresh tracer.

    The heap inherited at fork is frozen first: every full collection in
    the lane would otherwise rescan all of it (30–40 ms a time on the
    headline grid), landing in whichever cell crosses the threshold."""
    gc.freeze()
    with _obs.tracing() if traced else nullcontext() as tracer:
        lane = _run_lane(items, "explore", round_size, _solver("explore", backend, None))
    lane.outcomes = {idx: o.strip() for idx, o in lane.outcomes.items()}
    lane.trace = tracer
    return lane


def _run_lanes(
    lanes: List[List[Tuple[int, CellSpec]]],
    workers: int,
    round_size: int,
    backend: Optional[str],
    traced: bool,
) -> List[_Lane]:
    """Run ``lanes`` on ``min(workers, len(lanes))`` forked processes,
    largest first, and return their results in ``lanes`` order.

    A dead worker breaks the executor instead of hanging it, and every
    worker is joined before this returns or raises.
    """
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else None
    pool = ProcessPoolExecutor(min(workers, len(lanes)), mp_context=ctx)
    try:
        # sorted() is stable, so first-seen order breaks ties in size
        order = sorted(range(len(lanes)), key=lambda i: -len(lanes[i]))
        futures = {
            i: pool.submit(_lane_worker, lanes[i], round_size, backend, traced) for i in order
        }
        return [futures[i].result() for i in range(len(lanes))]
    except BrokenProcessPool as exc:
        raise ExploreError(f"a lane worker died mid-lane: {exc}") from exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def explore(
    cells: Sequence[CellSpec],
    *,
    mode: str = "explore",
    workers: int = 1,
    backend: Optional[str] = None,
    round_size: Optional[int] = None,
    serve_solver: Optional[ServeCellSolver] = None,
) -> ExploreReport:
    """Explore (or exhaustively sweep) a grid of cells.

    ``mode="explore"`` runs the per-lane feedback loop above, each lane
    solving ``round_size`` (default :data:`ROUND_SIZE`) cells between
    pruning passes; ``"exhaustive"`` cold-solves every cell in canonical
    order.  ``workers`` only sets how many lanes run at once: the report
    is the same for every worker count.  ``serve_solver`` routes cell
    execution through a serve daemon instead (inline; rounds, pruning
    and folding are unchanged).
    """
    if mode not in ("explore", "exhaustive"):
        raise ExploreError(f"unknown explore mode {mode!r}")
    cells = list(cells)
    if len(set(cells)) != len(cells):
        raise ExploreError("duplicate cells in grid")
    round_size = ROUND_SIZE if round_size is None else round_size
    if round_size < 1:
        raise ExploreError(f"round_size must be >= 1, got {round_size}")
    t0 = time.perf_counter()
    items = list(enumerate(cells))
    by_bench: Dict[str, List[Tuple[int, CellSpec]]] = {}
    for item in items:
        by_bench.setdefault(item[1].bench, []).append(item)
    # the exhaustive sweep is one cold pass in grid order
    lanes = list(by_bench.values()) if mode == "explore" else [items]
    tr = _obs.active
    with tr.span("explore", mode=mode, cells=len(cells)):
        if mode == "explore" and serve_solver is None and workers >= 2 and len(lanes) >= 2:
            done = _run_lanes(lanes, workers, round_size, backend, tr.enabled)
            for lane in done:
                if lane.trace is not None:
                    tr.graft(lane.trace)
        else:
            done = [_run_lane(lane, mode, round_size, _solver(mode, backend, serve_solver))
                    for lane in lanes]

    counters = {k: sum(lane.counters[k] for lane in done) for k in COUNTER_KEYS}
    frontiers = {bench: pts for lane in done for bench, pts in lane.frontiers.items()}
    counters["cells_total"] = len(cells)
    counters["frontier_size"] = sum(len(pts) for pts in frontiers.values())
    outcomes = {idx: o for lane in done for idx, o in lane.outcomes.items()}
    return ExploreReport(
        mode=mode,
        cells=cells,
        outcomes=[outcomes[i] for i in sorted(outcomes)],
        pruned=[p for lane in done for p in lane.pruned],
        frontiers=dict(sorted(frontiers.items())),
        counters=counters,
        elapsed=time.perf_counter() - t0,
    )
