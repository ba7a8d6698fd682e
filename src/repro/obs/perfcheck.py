"""The perf-regression gate: re-run pinned golden cells, compare envelopes.

``BENCH_flat.json`` and ``BENCH_vector.json`` pin the repo's performance
trajectory: each end-to-end entry records a (benchmark, config, heuristic)
cell with its wall time and its deterministic outcome counters
(schedule length, rotations performed, and for some cells the engine's
grid counters).  :func:`run_perfcheck` re-runs those cells on the current
tree and fails when

* a *counter delta* appears — the deterministic outcome (length,
  rotations, pinned engine counters) no longer matches the envelope; or
* the *wall time* regresses past the tolerance band
  (``measured > baseline * (1 + tolerance)``).

``BENCH_incremental.json`` extends the envelope to the
MutableSchedulingSession repair path: each cell pins a single-edit script
on a golden cell and fails when the repaired schedule's length or
invalidation count drifts, the repair wall time regresses, or the
repair-vs-scratch speedup drops below :data:`MIN_REPAIR_SPEEDUP`.

Timing uses ``time.process_time`` with a min-of-N inner loop, the same
methodology the committed baselines were recorded with, so the comparison
is CPU time against CPU time.  ``rotsched gate`` runs the ``--smoke``
variant (no explore grid, generous ±50% tolerance) before every merge.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

#: Engine counters a baseline entry may pin exactly (deterministic).
_PINNED_COUNTERS = ("view_derives", "grid_delta_rotations", "grid_reseeds")

#: Baseline files perfcheck knows how to read, with the backend their
#: end-to-end cells run on and the extra_info key holding the timing.
#: ``BENCH_vector.json``'s cells were recorded on the numpy backend,
#: which ran the same memoized flat kernels on graphs this size; they
#: now hold the default backend to those times.
BASELINE_SPECS: Tuple[Tuple[str, str, str], ...] = (
    ("BENCH_flat.json", "flat", "flat_seconds"),
    ("BENCH_vector.json", "flat", "vector_seconds"),
)

#: Committed envelope for session repair vs from-scratch solve
#: (written by ``benchmarks/bench_incremental.py``).
INCREMENTAL_BASELINE = "BENCH_incremental.json"

#: Session repair must stay at least this many times faster than a
#: from-scratch solve on every pinned single-edit script.
MIN_REPAIR_SPEEDUP = 3.0

#: Committed envelope of the former numpy backend.  Its single-solve
#: headline (h2, elliptic @ 3A2M) gates an absolute envelope within the
#: run's tolerance: the *default* backend must run at or below the
#: pinned ``vector_seconds`` (the transition memos that made ``vector``
#: fast live in the default engine).
VECTOR_BASELINE = "BENCH_vector.json"

#: Committed serve-daemon envelope (written by ``benchmarks/bench_serve.py``).
SERVE_BASELINE = "BENCH_serve.json"

#: The cached service must answer a repeated-graph workload at least this
#: many times faster than solving every request sequentially, uncached.
MIN_SERVE_SPEEDUP = 5.0

#: Committed design-space-explorer envelope (written by
#: ``benchmarks/bench_explore.py``).
EXPLORE_BASELINE = "BENCH_explore.json"

#: The feedback-guided explorer must reach the exhaustive sweep's exact
#: Pareto frontiers at least this many times faster on the headline grid.
MIN_EXPLORE_SPEEDUP = 3.0


@dataclass(frozen=True)
class GoldenCell:
    """One pinned cell of a committed benchmark envelope."""

    source: str
    bench: str
    config: str
    heuristic: str
    backend: str
    baseline_seconds: float
    length: int
    rotations: int
    pinned: Tuple[Tuple[str, int], ...] = ()

    def label(self) -> str:
        return f"{self.bench}@{self.config}/{self.heuristic}/{self.backend}"


@dataclass
class CellResult:
    """Outcome of re-running one golden cell."""

    cell: GoldenCell
    measured_seconds: float = 0.0
    length: Optional[int] = None
    rotations: Optional[int] = None
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def ratio(self) -> float:
        base = self.cell.baseline_seconds
        return self.measured_seconds / base if base else float("inf")


@dataclass(frozen=True)
class IncrementalCell:
    """One pinned repair-vs-scratch cell of ``BENCH_incremental.json``."""

    source: str
    bench: str
    config: str
    heuristic: str
    script: str
    edits: Tuple[Any, ...]
    repair_seconds: float
    scratch_seconds: float
    speedup: float
    length: int
    invalidated: int

    def label(self) -> str:
        return f"{self.bench}@{self.config}/{self.heuristic}/{self.script}"


@dataclass
class IncrementalResult:
    """Outcome of re-running one pinned edit script through a session."""

    cell: IncrementalCell
    repair_seconds: float = 0.0
    scratch_seconds: float = 0.0
    length: Optional[int] = None
    invalidated: Optional[int] = None
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def speedup(self) -> float:
        return self.scratch_seconds / self.repair_seconds if self.repair_seconds else float("inf")


@dataclass(frozen=True)
class VectorHeadlineCell:
    """The pinned single-solve headline cell: its ``vector_seconds`` is
    the envelope the default backend must meet."""

    source: str
    bench: str
    config: str
    heuristic: str
    vector_seconds: float
    length: int
    rotations: int

    def label(self) -> str:
        return f"{self.bench}@{self.config}/{self.heuristic}/default-vs-vector"


@dataclass
class VectorHeadlineResult:
    """Outcome of replaying the single-solve headline on the default backend."""

    cell: VectorHeadlineCell
    seconds: float = 0.0
    length: Optional[int] = None
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass(frozen=True)
class ServeCell:
    """The pinned serve-vs-uncached acceptance cell of ``BENCH_serve.json``."""

    source: str
    workload: str
    requests: int
    distinct: int
    workload_repeats: int
    serve_seconds: float
    uncached_seconds: float
    speedup: float
    hit_rate: float

    def label(self) -> str:
        return f"serve:{self.workload}x{self.workload_repeats}"


@dataclass
class ServeResult:
    """Outcome of replaying the serve workload against uncached solving."""

    cell: ServeCell
    serve_seconds: float = 0.0
    uncached_seconds: float = 0.0
    requests: Optional[int] = None
    distinct: Optional[int] = None
    hit_rate: float = 0.0
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def speedup(self) -> float:
        return self.uncached_seconds / self.serve_seconds if self.serve_seconds else float("inf")


@dataclass(frozen=True)
class ExploreCell:
    """The pinned explore-vs-exhaustive acceptance cell of
    ``BENCH_explore.json``.

    ``cells`` holds the headline grid itself (one canonical JSON string
    per :class:`~repro.explore.CellSpec`) so perfcheck replays exactly
    the committed design space; ``frontiers`` pins the per-benchmark
    Pareto point lists both passes must reproduce — the equality oracle.
    """

    source: str
    grid: str
    cells: Tuple[str, ...]
    explore_seconds: float
    exhaustive_seconds: float
    speedup: float
    counters: Tuple[Tuple[str, int], ...]
    frontiers: str

    def label(self) -> str:
        return f"explore:{self.grid}[{len(self.cells)} cells]"


@dataclass
class ExploreResult:
    """Outcome of replaying the explorer against the exhaustive sweep."""

    cell: ExploreCell
    explore_seconds: float = 0.0
    exhaustive_seconds: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def speedup(self) -> float:
        return (
            self.exhaustive_seconds / self.explore_seconds
            if self.explore_seconds
            else float("inf")
        )


@dataclass
class PerfReport:
    """Aggregate perfcheck outcome."""

    results: List[CellResult] = field(default_factory=list)
    tolerance: float = 0.5
    repeats: int = 3
    elapsed: float = 0.0
    skipped_baselines: List[str] = field(default_factory=list)
    incremental: List[IncrementalResult] = field(default_factory=list)
    vector: List[VectorHeadlineResult] = field(default_factory=list)
    serve: List[ServeResult] = field(default_factory=list)
    explore: List[ExploreResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            all(r.ok for r in self.results)
            and all(r.ok for r in self.incremental)
            and all(r.ok for r in self.vector)
            and all(r.ok for r in self.serve)
            and all(r.ok for r in self.explore)
            and bool(self.results)
        )

    def summary(self) -> str:
        bad = sum(1 for r in self.results if not r.ok)
        head = (
            f"perfcheck: {len(self.results) - bad}/{len(self.results)} golden "
            f"cells within envelope (tolerance +{self.tolerance:.0%}, "
            f"min-of-{self.repeats}) in {self.elapsed:.1f}s"
        )
        if self.incremental:
            ibad = sum(1 for r in self.incremental if not r.ok)
            head += (
                f"; incremental {len(self.incremental) - ibad}/"
                f"{len(self.incremental)} repair cells ok"
            )
        if self.vector:
            vbad = sum(1 for r in self.vector if not r.ok)
            head += (
                f"; vector {len(self.vector) - vbad}/"
                f"{len(self.vector)} acceptance cells ok"
            )
        if self.serve:
            sbad = sum(1 for r in self.serve if not r.ok)
            head += (
                f"; serve {len(self.serve) - sbad}/{len(self.serve)} "
                f"cache cells ok"
            )
        if self.explore:
            ebad = sum(1 for r in self.explore if not r.ok)
            head += (
                f"; explore {len(self.explore) - ebad}/{len(self.explore)} "
                f"grid cells ok"
            )
        if self.skipped_baselines:
            head += f"; missing baselines skipped: {', '.join(self.skipped_baselines)}"
        if bad:
            head += f"; {bad} REGRESSED cell(s)"
        if not self.results:
            head += "; NO CELLS RUN"
        return head

    def render(self) -> str:
        lines = [self.summary()]
        for r in self.results:
            status = "ok" if r.ok else "FAIL"
            lines.append(
                f"  {status:<4} {r.cell.label():<28} "
                f"baseline {r.cell.baseline_seconds:.4f}s  "
                f"measured {r.measured_seconds:.4f}s  (x{r.ratio:.2f})"
            )
            for p in r.problems:
                lines.append(f"       - {p}")
        for r in self.incremental:
            status = "ok" if r.ok else "FAIL"
            lines.append(
                f"  {status:<4} {r.cell.label():<28} "
                f"repair {r.repair_seconds:.4f}s  "
                f"scratch {r.scratch_seconds:.4f}s  ({r.speedup:.1f}x)"
            )
            for p in r.problems:
                lines.append(f"       - {p}")
        for r in self.vector:
            status = "ok" if r.ok else "FAIL"
            lines.append(
                f"  {status:<4} {r.cell.label():<28} "
                f"default {r.seconds:.4f}s  "
                f"pinned vector {r.cell.vector_seconds:.4f}s"
            )
            for p in r.problems:
                lines.append(f"       - {p}")
        for r in self.serve:
            status = "ok" if r.ok else "FAIL"
            lines.append(
                f"  {status:<4} {r.cell.label():<28} "
                f"served {r.serve_seconds:.4f}s  "
                f"uncached {r.uncached_seconds:.4f}s  ({r.speedup:.1f}x, "
                f"hit rate {r.hit_rate:.0%})"
            )
            for p in r.problems:
                lines.append(f"       - {p}")
        for r in self.explore:
            status = "ok" if r.ok else "FAIL"
            lines.append(
                f"  {status:<4} {r.cell.label():<28} "
                f"explored {r.explore_seconds:.4f}s  "
                f"exhaustive {r.exhaustive_seconds:.4f}s  ({r.speedup:.1f}x)"
            )
            for p in r.problems:
                lines.append(f"       - {p}")
        return "\n".join(lines)


def load_golden_cells(
    path: str, backend: str, seconds_key: str
) -> List[GoldenCell]:
    """Extract pinned cells from one committed pytest-benchmark JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    cells: List[GoldenCell] = []
    source = os.path.basename(path)
    for entry in data.get("benchmarks", ()):
        info = entry.get("extra_info") or {}
        if not {"bench", "config", "heuristic", seconds_key} <= info.keys():
            continue
        pinned = tuple(
            (k, int(info[k])) for k in _PINNED_COUNTERS if k in info
        )
        cells.append(
            GoldenCell(
                source=source,
                bench=info["bench"],
                config=info["config"],
                heuristic=info["heuristic"],
                backend=backend,
                baseline_seconds=float(info[seconds_key]),
                length=int(info["length"]),
                rotations=int(info["rotations"]),
                pinned=pinned,
            )
        )
    if not cells:
        raise ReproError(f"no golden cells with '{seconds_key}' found in {path}")
    return cells


def load_incremental_cells(path: str) -> List[IncrementalCell]:
    """Extract pinned repair cells from ``BENCH_incremental.json``."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    cells: List[IncrementalCell] = []
    source = os.path.basename(path)
    needed = {"bench", "config", "heuristic", "script", "edits",
              "repair_seconds", "scratch_seconds", "length", "invalidated"}
    for entry in data.get("benchmarks", ()):
        info = entry.get("extra_info") or {}
        if not needed <= info.keys():
            continue
        cells.append(
            IncrementalCell(
                source=source,
                bench=info["bench"],
                config=info["config"],
                heuristic=info["heuristic"],
                script=info["script"],
                edits=tuple(info["edits"]),
                repair_seconds=float(info["repair_seconds"]),
                scratch_seconds=float(info["scratch_seconds"]),
                speedup=float(info.get("speedup", 0.0)),
                length=int(info["length"]),
                invalidated=int(info["invalidated"]),
            )
        )
    if not cells:
        raise ReproError(f"no incremental repair cells found in {path}")
    return cells


def load_vector_headline(path: str) -> VectorHeadlineCell:
    """Extract the single-solve acceptance cell from ``BENCH_vector.json``:
    the entry marked ``headline: single_solve`` (h2 on elliptic @ 3A2M).
    The file's end-to-end entries are ordinary golden cells and flow
    through :func:`load_golden_cells` via :data:`BASELINE_SPECS`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    for entry in data.get("benchmarks", ()):
        info = entry.get("extra_info") or {}
        if info.get("headline") == "single_solve":
            return VectorHeadlineCell(
                source=os.path.basename(path),
                bench=info.get("bench", "elliptic"),
                config=info.get("config", "3A2M"),
                heuristic=info.get("heuristic", "h2"),
                vector_seconds=float(info["vector_seconds"]),
                length=int(info["length"]),
                rotations=int(info["rotations"]),
            )
    raise ReproError(f"no single-solve headline cell found in {path}")


def load_serve_cells(path: str) -> List[ServeCell]:
    """Extract pinned serve cells from ``BENCH_serve.json``."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    cells: List[ServeCell] = []
    source = os.path.basename(path)
    needed = {"workload", "requests", "distinct", "workload_repeats",
              "serve_seconds", "uncached_seconds", "speedup", "hit_rate"}
    for entry in data.get("benchmarks", ()):
        info = entry.get("extra_info") or {}
        if info.get("headline") != "serve_cached" or not needed <= info.keys():
            continue
        cells.append(
            ServeCell(
                source=source,
                workload=info["workload"],
                requests=int(info["requests"]),
                distinct=int(info["distinct"]),
                workload_repeats=int(info["workload_repeats"]),
                serve_seconds=float(info["serve_seconds"]),
                uncached_seconds=float(info["uncached_seconds"]),
                speedup=float(info["speedup"]),
                hit_rate=float(info["hit_rate"]),
            )
        )
    if not cells:
        raise ReproError(f"no serve acceptance cells found in {path}")
    return cells


def load_explore_cells(path: str) -> List[ExploreCell]:
    """Extract the pinned headline grid cell from ``BENCH_explore.json``."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    cells: List[ExploreCell] = []
    source = os.path.basename(path)
    needed = {"grid", "cells", "explore_seconds", "exhaustive_seconds",
              "speedup", "counters", "frontiers"}
    for entry in data.get("benchmarks", ()):
        info = entry.get("extra_info") or {}
        if info.get("headline") != "explore_grid" or not needed <= info.keys():
            continue
        cells.append(
            ExploreCell(
                source=source,
                grid=info["grid"],
                cells=tuple(
                    json.dumps(c, sort_keys=True) for c in info["cells"]
                ),
                explore_seconds=float(info["explore_seconds"]),
                exhaustive_seconds=float(info["exhaustive_seconds"]),
                speedup=float(info["speedup"]),
                counters=tuple(
                    (k, int(v)) for k, v in sorted(info["counters"].items())
                ),
                frontiers=json.dumps(info["frontiers"], sort_keys=True),
            )
        )
    if not cells:
        raise ReproError(f"no explore acceptance cells found in {path}")
    return cells


def measure_explore_grid(specs, repeats: int):
    """Run the explorer and the exhaustive sweep over one grid of cells.

    Returns ``(explore_seconds, exhaustive_seconds, explore_report,
    exhaustive_report)`` — min-of-N *wall clock* on both sides (the
    explorer is an orchestration layer: warm-chain hops, memo hits
    and pool plumbing are real elapsed time, not just CPU).  Every repeat
    starts from cleared bound/graph caches and a fresh solver so later
    runs cannot ride earlier runs' memos.  Shared by
    ``benchmarks/bench_explore.py`` (which commits the envelope) and
    :func:`run_perfcheck` (which replays it).
    """
    from repro.explore import explore
    from repro.explore.bounds import clear_caches

    explore_best = exhaustive_best = float("inf")
    explore_report = exhaustive_report = None
    for _ in range(max(repeats, 1)):
        clear_caches()
        rep = explore(specs, mode="exhaustive", workers=1)
        if rep.elapsed < exhaustive_best:
            exhaustive_best = rep.elapsed
            exhaustive_report = rep
        clear_caches()
        rep = explore(specs, mode="explore", workers=1)
        if rep.elapsed < explore_best:
            explore_best = rep.elapsed
            explore_report = rep
    return explore_best, exhaustive_best, explore_report, exhaustive_report


def _measure_explore_cell(
    cell: ExploreCell, repeats: int, tolerance: float
) -> ExploreResult:
    """Replay the headline grid and re-run the frontier-equality oracle."""
    from repro.explore import CellSpec

    specs = [CellSpec.from_json(json.loads(raw)) for raw in cell.cells]
    explore_s, exhaustive_s, erep, xrep = measure_explore_grid(specs, repeats)
    er = ExploreResult(
        cell,
        explore_seconds=explore_s,
        exhaustive_seconds=exhaustive_s,
        counters=dict(erep.counters),
    )
    pinned = dict(cell.counters)
    for name in sorted(pinned):
        measured = erep.counters.get(name, 0)
        if measured != pinned[name]:
            er.problems.append(
                f"counter delta: {name} {measured} != pinned {pinned[name]}"
            )
    explored = {
        bench: [p.as_json() for p in erep.frontier_points(bench)]
        for bench in sorted(erep.frontiers)
    }
    exhausted = {
        bench: [p.as_json() for p in xrep.frontier_points(bench)]
        for bench in sorted(xrep.frontiers)
    }
    if explored != exhausted:
        er.problems.append(
            "oracle: explored frontier != exhaustive frontier "
            f"(benches {sorted(set(explored) ^ set(exhausted)) or 'same, points differ'})"
        )
    if json.dumps(explored, sort_keys=True) != cell.frontiers:
        er.problems.append("counter delta: frontiers drifted from the pinned point lists")
    required = MIN_EXPLORE_SPEEDUP / (1.0 + tolerance)
    if er.speedup < required:
        er.problems.append(
            f"explore speedup {er.speedup:.2f}x below required "
            f"{MIN_EXPLORE_SPEEDUP:.1f}x/{1.0 + tolerance:.2f} = {required:.2f}x "
            f"(explored {explore_s:.4f}s, exhaustive {exhaustive_s:.4f}s)"
        )
    limit = cell.explore_seconds * (1.0 + tolerance)
    if explore_s > limit:
        er.problems.append(
            f"wall-time regression: explored {explore_s:.4f}s > "
            f"{cell.explore_seconds:.4f}s * {1.0 + tolerance:.2f} = {limit:.4f}s"
        )
    return er


def measure_serve_workload(workload_repeats: int, repeats: int):
    """Serve a repeated-graph workload vs solving it sequentially, uncached.

    Returns ``(serve_seconds, uncached_seconds, envelopes, fresh_by_fp,
    distinct)`` — min-of-N ``process_time`` on both sides, same
    methodology as every other golden cell.  The served side runs an
    in-process (inline-pool) service and submits the workload as one
    sequential request stream, so the cache-hit pattern is deterministic:
    each distinct cell misses once and hits thereafter.  The uncached
    side re-parses and re-solves every request — what answering without
    the daemon would cost.  Shared by ``benchmarks/bench_serve.py`` (which
    commits the envelope) and :func:`run_perfcheck` (which replays it).
    """
    import asyncio

    from repro.serve import build_service, demo_workload
    from repro.serve.protocol import (
        canonical_request,
        fingerprint,
        parse_request,
        solve_canonical,
    )

    workload = demo_workload(repeats=workload_repeats)

    uncached_best = float("inf")
    fresh_by_fp: Dict[str, Any] = {}
    for _ in range(max(repeats, 1)):
        t0 = time.process_time()
        solved = {}
        for payload in workload:
            canonical = canonical_request(parse_request(payload))
            solved[fingerprint(canonical)] = solve_canonical(canonical)
        dt = time.process_time() - t0
        if dt < uncached_best:
            uncached_best = dt
            fresh_by_fp = solved

    async def drive(service):
        return [await service.solve(p) for p in workload]

    serve_best = float("inf")
    envelopes: List[Dict[str, Any]] = []
    for _ in range(max(repeats, 1)):
        service = build_service(inline=True)
        try:
            t0 = time.process_time()
            envs = asyncio.run(drive(service))
            dt = time.process_time() - t0
        finally:
            service.close()
        if dt < serve_best:
            serve_best = dt
            envelopes = envs
    return serve_best, uncached_best, envelopes, fresh_by_fp, len(fresh_by_fp)


def _measure_serve_cell(
    cell: ServeCell, repeats: int, tolerance: float
) -> ServeResult:
    """Replay the serve acceptance cell and re-run the cached==fresh oracle."""
    from repro.serve.protocol import schedule_bits

    serve_s, uncached_s, envelopes, fresh_by_fp, distinct = measure_serve_workload(
        cell.workload_repeats, repeats
    )
    hits = sum(1 for e in envelopes if e.get("cache") in ("memory", "disk", "coalesced"))
    sr = ServeResult(
        cell,
        serve_seconds=serve_s,
        uncached_seconds=uncached_s,
        requests=len(envelopes),
        distinct=distinct,
        hit_rate=hits / len(envelopes) if envelopes else 0.0,
    )
    for name, measured, pinned in (
        ("requests", sr.requests, cell.requests),
        ("distinct", sr.distinct, cell.distinct),
    ):
        if measured != pinned:
            sr.problems.append(f"counter delta: {name} {measured} != pinned {pinned}")
    if abs(sr.hit_rate - cell.hit_rate) > 1e-9:
        sr.problems.append(
            f"counter delta: hit rate {sr.hit_rate:.4f} != pinned {cell.hit_rate:.4f}"
        )
    for envelope in envelopes:
        if "error" in envelope:
            sr.problems.append(f"error envelope: {envelope['error']}")
            continue
        fresh = fresh_by_fp.get(envelope["fingerprint"])
        if fresh is None:
            sr.problems.append(
                f"fingerprint drift: served {envelope['fingerprint'][:12]} "
                f"never produced by the uncached pass"
            )
        elif schedule_bits(envelope["result"]) != schedule_bits(fresh):
            sr.problems.append(
                f"oracle: cached != fresh for {envelope['fingerprint'][:12]} "
                f"(level {envelope.get('cache')!r})"
            )
    required = MIN_SERVE_SPEEDUP / (1.0 + tolerance)
    if sr.speedup < required:
        sr.problems.append(
            f"serve speedup {sr.speedup:.2f}x below required "
            f"{MIN_SERVE_SPEEDUP:.1f}x/{1.0 + tolerance:.2f} = {required:.2f}x "
            f"(served {serve_s:.4f}s, uncached {uncached_s:.4f}s)"
        )
    limit = cell.serve_seconds * (1.0 + tolerance)
    if serve_s > limit:
        sr.problems.append(
            f"wall-time regression: served {serve_s:.4f}s > "
            f"{cell.serve_seconds:.4f}s * {1.0 + tolerance:.2f} = {limit:.4f}s"
        )
    return sr


def _measure_vector_headline(
    cell: VectorHeadlineCell, repeats: int, tolerance: float
) -> VectorHeadlineResult:
    """Replay the single-solve headline on the default backend, min-of-N,
    against the pinned vector envelope."""
    from repro.core.scheduler import rotation_schedule
    from repro.qa.runner import config_model
    from repro.suite.registry import get_benchmark

    graph = get_benchmark(cell.bench)
    model = config_model(cell.config)
    best = float("inf")
    result = None
    for _ in range(max(repeats, 1)):
        t0 = time.process_time()
        out = rotation_schedule(graph, model, heuristic=cell.heuristic)
        dt = time.process_time() - t0
        if dt < best:
            best = dt
            result = out
    vr = VectorHeadlineResult(cell, seconds=best, length=result.length)
    if result.length != cell.length:
        vr.problems.append(
            f"counter delta: length {result.length} != pinned {cell.length}"
        )
    if result.rotations_performed != cell.rotations:
        vr.problems.append(
            f"counter delta: rotations {result.rotations_performed} "
            f"!= pinned {cell.rotations}"
        )
    limit = cell.vector_seconds * (1.0 + tolerance)
    if best > limit:
        vr.problems.append(
            f"wall-time regression: default backend {best:.4f}s > pinned vector "
            f"{cell.vector_seconds:.4f}s * {1.0 + tolerance:.2f} = {limit:.4f}s"
        )
    return vr


def _measure_incremental_cell(
    cell: IncrementalCell, repeats: int, tolerance: float
) -> IncrementalResult:
    """Replay one pinned edit script: repaired resolve vs scratch solve.

    Each repeat opens a fresh session (flat backend, matching the
    committed baseline), solves untimed, then times only the repairing
    ``resolve()`` after the script is applied; the from-scratch side times
    ``rotation_schedule`` on the edited graph.  Both are min-of-N
    ``process_time``, the same methodology as the golden cells.
    """
    from repro.core.scheduler import rotation_schedule
    from repro.core.session import open_session
    from repro.qa.runner import config_model
    from repro.suite.registry import get_benchmark

    graph = get_benchmark(cell.bench)
    model = config_model(cell.config)
    repair_best = float("inf")
    result = session = None
    for _ in range(max(repeats, 1)):
        session = open_session(
            graph, model, heuristic=cell.heuristic, backend="flat"
        )
        session.resolve()
        for op in cell.edits:
            session.apply_edit(op)
        t0 = time.process_time()
        out = session.resolve()
        dt = time.process_time() - t0
        if dt < repair_best:
            repair_best = dt
            result = out
    scratch_best = float("inf")
    for _ in range(max(repeats, 1)):
        t0 = time.process_time()
        rotation_schedule(
            session.graph, session.model, heuristic=cell.heuristic, backend="flat"
        )
        scratch_best = min(scratch_best, time.process_time() - t0)
    ir = IncrementalResult(
        cell,
        repair_seconds=repair_best,
        scratch_seconds=scratch_best,
        length=result.length,
        invalidated=session.metrics["nodes_invalidated"],
    )
    if result.length != cell.length:
        ir.problems.append(
            f"counter delta: repaired length {result.length} != pinned {cell.length}"
        )
    if ir.invalidated != cell.invalidated:
        ir.problems.append(
            f"counter delta: invalidated {ir.invalidated} != pinned {cell.invalidated}"
        )
    if ir.speedup < MIN_REPAIR_SPEEDUP:
        ir.problems.append(
            f"repair speedup {ir.speedup:.2f}x below required "
            f"{MIN_REPAIR_SPEEDUP:.1f}x (repair {repair_best:.4f}s, "
            f"scratch {scratch_best:.4f}s)"
        )
    limit = cell.repair_seconds * (1.0 + tolerance)
    if repair_best > limit:
        ir.problems.append(
            f"wall-time regression: repair {repair_best:.4f}s > "
            f"{cell.repair_seconds:.4f}s * {1.0 + tolerance:.2f} = {limit:.4f}s"
        )
    return ir


def _measure_cell(cell: GoldenCell, repeats: int) -> CellResult:
    from repro.core.scheduler import rotation_schedule
    from repro.qa.runner import config_model
    from repro.suite.registry import get_benchmark

    graph = get_benchmark(cell.bench)
    model = config_model(cell.config)
    best = float("inf")
    result = None
    for _ in range(max(repeats, 1)):
        t0 = time.process_time()
        out = rotation_schedule(
            graph, model, heuristic=cell.heuristic, backend=cell.backend
        )
        dt = time.process_time() - t0
        if dt < best:
            best = dt
            result = out
    cr = CellResult(
        cell,
        measured_seconds=best,
        length=result.length,
        rotations=result.rotations_performed,
    )
    if result.length != cell.length:
        cr.problems.append(
            f"counter delta: length {result.length} != pinned {cell.length}"
        )
    if result.rotations_performed != cell.rotations:
        cr.problems.append(
            f"counter delta: rotations {result.rotations_performed} "
            f"!= pinned {cell.rotations}"
        )
    stats = result.engine_stats or {}
    for name, pinned_value in cell.pinned:
        if stats.get(name) != pinned_value:
            cr.problems.append(
                f"counter delta: {name} {stats.get(name)} != pinned {pinned_value}"
            )
    return cr


def run_perfcheck(
    root: str = ".",
    baselines: Sequence[Tuple[str, str, str]] = BASELINE_SPECS,
    tolerance: float = 0.5,
    repeats: int = 3,
    smoke: bool = False,
    incremental_baseline: Optional[str] = INCREMENTAL_BASELINE,
    vector_baseline: Optional[str] = VECTOR_BASELINE,
    serve_baseline: Optional[str] = SERVE_BASELINE,
    explore_baseline: Optional[str] = EXPLORE_BASELINE,
) -> PerfReport:
    """Re-run every pinned golden cell and compare against its envelope.

    Args:
        root: directory holding the committed ``BENCH_*.json`` files.
        baselines: ``(filename, backend, seconds_key)`` triples to read.
        tolerance: allowed wall-time slack as a fraction of the baseline
            (0.5 == fail past +50%).
        repeats: min-of-N timing runs per cell.
        smoke: the pre-merge tier — no explore grid,
            ``min(repeats, 2)`` timing runs, and tolerance floored at
            ±50% so CI noise does not flake the gate.
        incremental_baseline: filename of the committed session-repair
            envelope (``None`` disables the incremental tier).  Repair
            cells gate the ``MIN_REPAIR_SPEEDUP`` floor on top of the
            usual counter pins and wall tolerance.
        vector_baseline: filename of the committed envelope holding the
            single-solve headline (``None`` disables that tier); the
            default backend must meet its pinned vector time.
        serve_baseline: filename of the committed serve-daemon envelope
            (``None`` disables the serve tier).  Its cells gate the
            ``MIN_SERVE_SPEEDUP`` cached-vs-uncached floor, pin the
            deterministic hit rate, and re-run the cached==fresh
            differential oracle on every served envelope.
        explore_baseline: filename of the committed design-space-explorer
            envelope (``None`` disables the explore tier).  Its headline
            grid gates the ``MIN_EXPLORE_SPEEDUP`` explored-vs-exhaustive
            wall-time floor with per-benchmark frontier equality as the
            oracle and the exploration counters pinned exactly.  The
            tier replays the full committed grid, so it is skipped on
            ``--smoke`` (``rotsched gate`` runs its own small explore
            smoke instead).
    """
    t0 = time.perf_counter()
    if smoke:
        repeats = min(repeats, 2)
        tolerance = max(tolerance, 0.5)
    report = PerfReport(tolerance=tolerance, repeats=repeats)
    for filename, backend, seconds_key in baselines:
        path = os.path.join(root, filename)
        if not os.path.exists(path):
            report.skipped_baselines.append(filename)
            continue
        for cell in load_golden_cells(path, backend, seconds_key):
            cr = _measure_cell(cell, repeats)
            limit = cell.baseline_seconds * (1.0 + tolerance)
            if cr.measured_seconds > limit:
                cr.problems.append(
                    f"wall-time regression: {cr.measured_seconds:.4f}s > "
                    f"{cell.baseline_seconds:.4f}s * {1.0 + tolerance:.2f} "
                    f"= {limit:.4f}s"
                )
            report.results.append(cr)
    if incremental_baseline is not None:
        path = os.path.join(root, incremental_baseline)
        if not os.path.exists(path):
            report.skipped_baselines.append(incremental_baseline)
        else:
            for icell in load_incremental_cells(path):
                report.incremental.append(
                    _measure_incremental_cell(icell, repeats, tolerance)
                )
    if vector_baseline is not None:
        path = os.path.join(root, vector_baseline)
        if not os.path.exists(path):
            if vector_baseline not in report.skipped_baselines:
                report.skipped_baselines.append(vector_baseline)
        else:
            report.vector.append(_measure_vector_headline(
                load_vector_headline(path), repeats, tolerance
            ))
    if serve_baseline is not None:
        path = os.path.join(root, serve_baseline)
        if not os.path.exists(path):
            report.skipped_baselines.append(serve_baseline)
        else:
            for scell in load_serve_cells(path):
                report.serve.append(_measure_serve_cell(scell, repeats, tolerance))
    if explore_baseline is not None and not smoke:
        path = os.path.join(root, explore_baseline)
        if not os.path.exists(path):
            report.skipped_baselines.append(explore_baseline)
        else:
            for ecell in load_explore_cells(path):
                report.explore.append(
                    _measure_explore_cell(ecell, repeats, tolerance)
                )
    report.elapsed = time.perf_counter() - t0
    return report
