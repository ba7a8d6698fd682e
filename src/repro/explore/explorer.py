"""The feedback-guided explorer: rounds of prune -> rank -> solve -> fold.

Exploration is **round-based** so it stays deterministic and auditable:

1. **Prune** — every still-unsolved cell's solver-free lower bound
   (:func:`~repro.explore.bounds.cell_bound`) is checked against its
   benchmark's current frontier in canonical cell order.  A cell whose
   bound is covered by an achieved point can never change the frontier's
   point set, so it is dropped without solving (``pruned_dominated`` when
   the blocker is strictly cheaper, ``pruned_bound`` otherwise).
2. **Rank** — survivors are ordered by feedback instead of grid index:
   frontier-adjacent cells first (a solved grid neighbor exists), larger
   bound gap first (more room between the neighbor's achieved period and
   this cell's bound), then larger critical-cycle overlap with the cells
   already on the frontier, then canonical order as the final tie-break.
3. **Solve** — the head of the ranking (one round's worth) is chunked
   into families — a multi-cell family becomes one warm-chain chunk —
   and handed to the pool.
4. **Fold** — outcomes fold into the frontiers in canonical cell order,
   making the frontier (and therefore the next round's pruning) a pure
   function of the grid, independent of worker timing.

``mode="exhaustive"`` runs the same loop degenerated to one unpruned,
unranked round of cold solves — today's benchmark behavior, and the
baseline the perfcheck explore tier measures the speedup against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.explore.space import CellSpec, ExploreError, Point, cell_cost, family_key
from repro.explore.bounds import CellBound, cell_bound, overlap
from repro.explore.frontier import ParetoFrontier
from repro.explore.runner import CellOutcome, ServeCellSolver
from repro.explore.pool import Chunk, make_pool

#: The explore/v1 counter names, in render order.
COUNTER_KEYS = (
    "cells_total",
    "solved",
    "pruned_bound",
    "pruned_dominated",
    "seeded_warm",
    "dedup_hits",
    "steal_count",
    "frontier_size",
    "rounds",
)


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
    events: List[Dict[str, Any]] = field(default_factory=list)

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


def _classify(blocker: Point, spec: CellSpec) -> str:
    return "pruned_dominated" if blocker.cost < cell_cost(spec) else "pruned_bound"


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


def _chunk(selection: List[Tuple[int, CellSpec]]) -> List[Chunk]:
    """One chunk per family, in first-seen order, so warm chains connect.

    Cells inside a family chunk run small-to-large in resource counts so
    each ``set_resource_counts`` hop grows the machine — the cheapest
    solves come first and the chain is deterministic.
    """
    by_family: Dict[Tuple, List[CellSpec]] = {}
    order: List[Tuple] = []
    for _idx, spec in selection:
        fam = family_key(spec)
        if fam not in by_family:
            by_family[fam] = []
            order.append(fam)
        by_family[fam].append(spec)
    chunks: List[Chunk] = []
    singles: List[Chunk] = []
    for fam in order:
        cells = sorted(by_family[fam], key=lambda s: (s.adders + s.mults, s.sort_key()))
        if len(cells) >= 2:
            chunks.append(("family", cells))
        else:
            singles.append(("family", cells))
    return chunks + singles


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

    ``mode="explore"`` runs the feedback loop above; ``"exhaustive"``
    cold-solves every cell in canonical order.  ``serve_solver`` routes
    cell execution through a serve daemon instead of the local pool
    (rounds, pruning and folding are unchanged).
    """
    if mode not in ("explore", "exhaustive"):
        raise ExploreError(f"unknown explore mode {mode!r}")
    cells = list(cells)
    if len(set(cells)) != len(cells):
        raise ExploreError("duplicate cells in grid")
    t0 = time.perf_counter()
    counters: Dict[str, int] = {k: 0 for k in COUNTER_KEYS}
    counters["cells_total"] = len(cells)
    frontiers: Dict[str, ParetoFrontier] = {}
    frontier_crit: Dict[str, List[frozenset]] = {}
    outcomes: Dict[int, CellOutcome] = {}
    pruned: List[PrunedCell] = []
    events: List[Dict[str, Any]] = []
    # (family, adders, mults) -> outcome, for adjacency + gap ranking.
    solved_index: Dict[Tuple, CellOutcome] = {}

    pool = None
    if serve_solver is None:
        pool = make_pool(workers if mode == "explore" else 1, backend)
    if round_size is None:
        round_size = max(8, 2 * workers)

    remaining: List[Tuple[int, CellSpec]] = list(enumerate(cells))

    def fold(selection: List[Tuple[int, CellSpec]], got: List[CellOutcome]) -> None:
        by_spec = {o.spec: o for o in got}
        for idx, spec in sorted(selection):
            outcome = by_spec[spec]
            outcomes[idx] = outcome
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
            events.append({"event": "solved", **outcome.as_json(), "frontier": verdict})

    if mode == "exhaustive":
        selection = remaining
        if serve_solver is not None:
            got = [serve_solver.solve(spec) for _idx, spec in selection]
        else:
            got = [o for batch in pool.run([("cold", [s]) for _i, s in selection]) for o in batch]
        fold(selection, got)
        remaining = []
    else:
        bounds: Dict[int, CellBound] = {}
        while remaining:
            counters["rounds"] += 1
            # 1. prune against the current frontiers, canonical order
            survivors: List[Tuple[int, CellSpec]] = []
            for idx, spec in remaining:
                bound = bounds.get(idx)
                if bound is None:
                    bound = bounds[idx] = cell_bound(spec)
                front = frontiers.get(spec.bench)
                blocker = front.blocker(bound.lb_point) if front is not None else None
                if blocker is not None:
                    kind = _classify(blocker, spec)
                    counters[kind] += 1
                    record = PrunedCell(spec, bound.lb_point, blocker, kind)
                    pruned.append(record)
                    events.append({"event": "pruned", **record.as_json()})
                else:
                    survivors.append((idx, spec))
            remaining = survivors
            if not remaining:
                break
            # 2. feedback ranking, 3. solve one round, 4. fold
            ranked = _rank(remaining, bounds, solved_index, frontier_crit)
            selection = ranked[:round_size]
            chosen = {idx for idx, _spec in selection}
            remaining = [item for item in remaining if item[0] not in chosen]
            if serve_solver is not None:
                got = [serve_solver.solve(spec) for _idx, spec in sorted(selection)]
            else:
                chunks = _chunk(selection)
                got = [o for batch in pool.run(chunks) for o in batch]
            fold(selection, got)

    if pool is not None:
        counters["steal_count"] = getattr(pool, "steal_count", 0)
        pool.close()
    counters["frontier_size"] = sum(len(f) for f in frontiers.values())
    report = ExploreReport(
        mode=mode,
        cells=cells,
        outcomes=[outcomes[i] for i in sorted(outcomes)],
        pruned=pruned,
        frontiers={bench: f.points() for bench, f in sorted(frontiers.items())},
        counters=counters,
        elapsed=time.perf_counter() - t0,
        events=events,
    )
    events.append({"event": "summary", "mode": mode, "counters": dict(counters),
                   "elapsed": report.elapsed})
    return report
