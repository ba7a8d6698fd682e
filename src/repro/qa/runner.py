"""The differential fuzz runner: parameter grid, cell execution, reporting.

A fuzz *cell* is one ``(graph spec, resource config, scheduler path)``
triple.  Each cell builds its seeded graph (with deterministic affine
semantics attached), pushes it through the named scheduler path and
checks the full oracle stack from :mod:`repro.qa.oracles`.  On any
failure the graph is delta-debugged to a 1-minimal reproducer
(:mod:`repro.qa.shrink`) and written out as a self-contained bundle
(:mod:`repro.qa.bundle`).

Scheduler paths:

========== ==========================================================
``h1``      rotation scheduling, heuristic 1, incremental engine on
``h2``      rotation scheduling, heuristic 2, incremental engine on
``parity``  h2 under both backends (flat / naive); bit-identical
``dag_list``   non-pipelined DAG list-scheduling baseline
``modulo``     iterative modulo scheduling baseline (flat + kernel forms)
``retime_ls``  retime-then-list-schedule baseline
``incremental``  random edit script replayed through mutable sessions on
                 all backends; each repair bit-identical + certified
========== ==========================================================
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.scheduler import rotation_schedule
from repro.dfg.graph import DFG
from repro.dfg.retiming import Retiming
from repro.errors import ReproError
from repro.schedule.resources import ResourceModel
from repro.qa.bundle import write_bundle
from repro.qa.oracles import (
    OracleFailure,
    certify_rotation,
    certify_wrapped,
    check_lower_bound,
    check_modulo,
    check_parity,
    check_retiming,
    check_roundtrip,
    check_semantics,
)
from repro.qa.shrink import shrink_graph
from repro.obs.metrics import MetricsRegistry
from repro.suite.random_graphs import build_case_graph, generator_grid

#: scheduler paths a cell can exercise.
PATHS: Tuple[str, ...] = (
    "h1", "h2", "parity", "dag_list", "modulo", "retime_ls", "incremental",
)

#: default resource configs — small enough to stress contention.
DEFAULT_CONFIGS: Tuple[str, ...] = ("1A1M", "2A1M", "2A1Mp")

_CONFIG_RE = re.compile(r"^(\d+)A(\d+)M(P?)$")


def config_model(tag: str) -> ResourceModel:
    """Parse a paper-style config tag (``"2A1Mp"``) into a model."""
    m = _CONFIG_RE.match(tag.replace(" ", "").upper())
    if not m:
        raise ReproError(f"bad resource config tag {tag!r}")
    return ResourceModel.adders_mults(
        int(m.group(1)), int(m.group(2)), pipelined_mults=bool(m.group(3))
    )


@dataclass(frozen=True)
class FuzzCase:
    """One cell of the fuzz grid."""

    generator: str
    params: Dict[str, Any]
    config: str
    path: str

    def tag(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.generator}({inner}) @ {self.config} / {self.path}"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "generator": self.generator,
            "params": dict(self.params),
            "config": self.config,
            "path": self.path,
        }

    def build_graph(self) -> DFG:
        return build_case_graph(self.generator, self.params)


@dataclass(frozen=True)
class FailureRecord:
    """A failing cell, its oracle verdicts, and where the bundle went."""

    case: FuzzCase
    failures: Tuple[OracleFailure, ...]
    bundle_path: Optional[str]
    shrunk_nodes: int
    shrunk_edges: int


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzz run."""

    cells: int = 0
    clean: int = 0
    skipped: int = 0
    elapsed: float = 0.0
    failures: List[FailureRecord] = field(default_factory=list)
    #: Unified repro.obs metrics snapshot (schema repro.obs/metrics/v1):
    #: per-cell wall-time timer, per-oracle verdict counters, shrink steps.
    metrics: Optional[Dict[str, Any]] = None

    def summary(self) -> str:
        head = (
            f"fuzz: certified {self.clean}/{self.cells} cells clean "
            f"in {self.elapsed:.1f}s"
        )
        if self.skipped:
            head += f" ({self.skipped} cells skipped by budget)"
        if self.failures:
            head += f"; {len(self.failures)} FAILING cell(s), bundles written"
        return head


# ----------------------------------------------------------------------
# cell execution
# ----------------------------------------------------------------------
def run_cell_on_graph(graph: DFG, config: str, path: str) -> List[OracleFailure]:
    """Run one scheduler path on an already-built graph; full oracle stack.

    Any unexpected exception becomes a ``crash`` failure so the fuzzer
    keeps going and the shrinker can minimize crashing inputs too.
    """
    model = config_model(config)
    failures = check_roundtrip(graph)
    try:
        failures += _run_path(graph, model, path)
    except Exception as exc:
        failures.append(OracleFailure("crash", f"{type(exc).__name__}: {exc}"))
    return failures


def _run_path(graph: DFG, model: ResourceModel, path: str) -> List[OracleFailure]:
    if path in ("h1", "h2"):
        result = rotation_schedule(graph, model, heuristic=path)
        return certify_rotation(graph, model, result)
    if path == "parity":
        flat = rotation_schedule(graph, model, heuristic="h2", backend="flat")
        naive = rotation_schedule(graph, model, heuristic="h2", backend="naive")
        return check_parity(flat, naive, "flat vs naive") + certify_rotation(graph, model, flat)
    if path == "dag_list":
        from repro.baselines.dag_list import dag_list_schedule

        result = dag_list_schedule(graph, model)
        sched = result.schedule
        return certify_wrapped(graph, model, sched, Retiming.zero(), sched.length)
    if path == "modulo":
        from repro.baselines.modulo import modulo_schedule

        result = modulo_schedule(graph, model)
        failures = check_lower_bound(graph, model, result.ii)
        # flat form: starts encode the skew directly, no retiming
        failures += check_modulo(graph, model, result.start, result.ii, None)
        # kernel form: folded starts + realizing retiming drive the simulator
        kernel, r, ii = result.kernel_schedule()
        failures += check_retiming(graph, r)
        if not failures:
            failures += check_semantics(kernel, r, ii)
        return failures
    if path == "retime_ls":
        from repro.baselines.retime_then_schedule import retime_then_schedule

        result = retime_then_schedule(graph, model)
        w = result.wrapped
        return certify_wrapped(graph, model, w.schedule, w.retiming, w.period)
    if path == "incremental":
        from repro.qa.incremental import check_incremental_session

        return check_incremental_session(graph, model)
    raise ReproError(f"unknown scheduler path {path!r}; choose from {PATHS}")


def run_cell(case: FuzzCase) -> List[OracleFailure]:
    """Build the cell's graph and run its scheduler path."""
    return run_cell_on_graph(case.build_graph(), case.config, case.path)


def _run_cell_timed(case: FuzzCase) -> Tuple[float, List[OracleFailure]]:
    """Worker-side :func:`run_cell` that also reports the cell's wall time
    (the parent folds it into the run's metrics)."""
    t0 = time.perf_counter()
    failures = run_cell(case)
    return time.perf_counter() - t0, failures


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------
def grid_cases(
    seeds: Iterable[int],
    *,
    configs: Sequence[str] = DEFAULT_CONFIGS,
    paths: Sequence[str] = PATHS,
    **grid_kwargs: Any,
) -> List[FuzzCase]:
    """The full cartesian fuzz grid: graph specs x configs x paths."""
    cases = []
    for generator, params in generator_grid(seeds, **grid_kwargs):
        for config in configs:
            for path in paths:
                cases.append(FuzzCase(generator, params, config, path))
    return cases


def smoke_cases() -> List[FuzzCase]:
    """The fixed-seed pre-merge tier: >= 200 cells, bounded runtime.

    This is the grid ``rotsched fuzz --smoke`` certifies before merges;
    the deterministic fuzz-smoke test pins a subset of it in tier 1.
    """
    return grid_cases(seeds=range(3))


# ----------------------------------------------------------------------
# the fuzz loop
# ----------------------------------------------------------------------
def _record_failure(
    report: FuzzReport,
    case: FuzzCase,
    graph: DFG,
    failures: List[OracleFailure],
    out_dir: str,
    shrink: bool,
    reg: Optional[MetricsRegistry] = None,
) -> None:
    """Shrink a failing cell's graph, write its bundle, append the record."""
    primary = failures[0].oracle
    if reg is not None:
        for f in failures:
            reg.inc(f"verdict.{f.oracle}")
    minimized = graph
    if shrink:
        sstats: Dict[str, int] = {}
        minimized = shrink_graph(
            graph,
            lambda g: any(
                f.oracle == primary
                for f in run_cell_on_graph(g, case.config, case.path)
            ),
            stats=sstats,
        )
        if reg is not None:
            reg.inc_extra("shrink_steps", sstats.get("steps", 0))
        # re-run on the minimized graph so the bundle records exactly
        # what replaying it will show
        failures = run_cell_on_graph(minimized, case.config, case.path)
    bundle_path = write_bundle(out_dir, minimized, case.as_dict(), failures)
    report.failures.append(
        FailureRecord(
            case=case,
            failures=tuple(failures),
            bundle_path=bundle_path,
            shrunk_nodes=minimized.num_nodes,
            shrunk_edges=minimized.num_edges,
        )
    )


def _run_fuzz_parallel(
    cases: Sequence[FuzzCase],
    jobs: int,
    budget_seconds: Optional[float],
    max_cells: Optional[int],
    out_dir: str,
    shrink: bool,
    t0: float,
) -> Optional[FuzzReport]:
    """Certify cells across a process pool; None when pools are unusable.

    Workers run :func:`run_cell` only (graphs are rebuilt from their seeds
    inside each worker, so nothing unpicklable crosses the boundary); the
    parent collects results *in case order* and does all shrinking and
    bundle writing itself, so failure reports are deterministic and
    path-ordered exactly like the sequential loop's.
    """
    try:
        from concurrent.futures import ProcessPoolExecutor

        report = FuzzReport()
        reg = MetricsRegistry("repro.qa.runner", mode="parallel", jobs=jobs)
        todo = list(cases if max_cells is None else cases[:max_cells])
        report.skipped = len(cases) - len(todo)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_cell_timed, case) for case in todo]
            for idx, (case, future) in enumerate(zip(todo, futures)):
                if (
                    budget_seconds is not None
                    and time.perf_counter() - t0 > budget_seconds
                ):
                    for late in futures[idx:]:
                        late.cancel()
                    report.skipped += len(todo) - idx
                    break
                cell_seconds, failures = future.result()
                reg.observe("cell", cell_seconds)
                report.cells += 1
                if not failures:
                    report.clean += 1
                    continue
                _record_failure(
                    report, case, case.build_graph(), failures, out_dir, shrink, reg
                )
        report.elapsed = time.perf_counter() - t0
        _finish_metrics(report, reg)
        return report
    except Exception:
        return None


def run_fuzz(
    cases: Sequence[FuzzCase],
    *,
    budget_seconds: Optional[float] = None,
    max_cells: Optional[int] = None,
    out_dir: str = "artifacts/qa",
    shrink: bool = True,
    jobs: Optional[int] = None,
) -> FuzzReport:
    """Certify every cell; shrink and bundle each failure.

    Args:
        cases: the grid (see :func:`grid_cases` / :func:`smoke_cases`).
        budget_seconds: stop starting new cells past this wall-clock
            budget (cells not reached count as skipped).
        max_cells: hard cap on cells run.
        out_dir: where repro bundles are written.
        shrink: delta-debug failing graphs before bundling (disable for
            speed when triaging interactively).
        jobs: certify cells across this many worker processes (failures
            are still reported deterministically in case order); ``None``
            or ``1`` runs in-process.  Falls back to the sequential loop
            when multiprocessing is unavailable.
    """
    t0 = time.perf_counter()
    if jobs is not None and jobs > 1 and len(cases) > 1:
        report = _run_fuzz_parallel(
            cases, jobs, budget_seconds, max_cells, out_dir, shrink, t0
        )
        if report is not None:
            return report
    report = FuzzReport()
    reg = MetricsRegistry("repro.qa.runner", mode="sequential")
    for idx, case in enumerate(cases):
        if max_cells is not None and idx >= max_cells:
            report.skipped = len(cases) - idx
            break
        if budget_seconds is not None and time.perf_counter() - t0 > budget_seconds:
            report.skipped = len(cases) - idx
            break
        graph = case.build_graph()
        with reg.timer("cell"):
            failures = run_cell_on_graph(graph, case.config, case.path)
        report.cells += 1
        if not failures:
            report.clean += 1
            continue
        _record_failure(report, case, graph, failures, out_dir, shrink, reg)
    report.elapsed = time.perf_counter() - t0
    _finish_metrics(report, reg)
    return report


def _finish_metrics(report: FuzzReport, reg: MetricsRegistry) -> None:
    """Fold the run totals into the registry and snapshot it onto the report."""
    reg.set_counter("cells", report.cells)
    reg.set_counter("clean", report.clean)
    reg.set_counter("failing", len(report.failures))
    reg.set_counter("skipped", report.skipped)
    report.metrics = reg.as_dict()
