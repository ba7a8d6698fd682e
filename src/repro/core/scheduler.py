"""High-level facade: rotation-schedule a cyclic DFG under resources.

Typical use::

    from repro import DFG, ResourceModel, RotationScheduler

    model = ResourceModel.adders_mults(3, 2, pipelined_mults=True)
    result = RotationScheduler(model).schedule(graph)
    print(result.length, result.depth)
    print(result.render())

The result bundles the best wrapped schedule, its depth-reduced realizing
retiming (Section 3.2 applied once at the end, as the paper prescribes),
and bookkeeping for the experiment harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.dfg.graph import DFG
from repro.dfg.retiming import Retiming
from repro.schedule.resources import ResourceModel
from repro.schedule.schedule import Schedule
from repro.schedule.verify import realizing_retiming
from repro.core.engine import BACKENDS, make_engine
from repro.core.phases import HEURISTICS, BestTracker
from repro.core.rotation import RotationState
from repro.core.wrapping import WrappedSchedule
from repro.errors import SchedulingError
from repro.obs import tracer as _obs


@dataclass(frozen=True)
class RotationResult:
    """Outcome of rotation scheduling one DFG under one resource model."""

    graph: DFG
    model: ResourceModel
    heuristic: str
    length: int
    depth: int
    schedule: Schedule
    retiming: Retiming
    wrapped: WrappedSchedule
    initial_length: int
    optimal_count: int
    rotations_performed: int
    elapsed_seconds: float
    alternates: Tuple[WrappedSchedule, ...] = ()
    engine_stats: Optional[dict] = None
    engine_metrics: Optional[dict] = None

    @property
    def improvement(self) -> int:
        """Control steps shaved off the initial (non-pipelined) schedule."""
        return self.initial_length - self.length

    def summary(self) -> str:
        return (
            f"{self.graph.name or 'dfg'} @ {self.model.label()}: "
            f"{self.initial_length} -> {self.length} CS, depth {self.depth}, "
            f"{self.optimal_count} optimal schedule(s), "
            f"{self.rotations_performed} rotations in {self.elapsed_seconds:.3f}s"
        )

    def render(self) -> str:
        """Paper-style CS table of the final schedule (lazy import to keep
        the core free of report dependencies)."""
        from repro.report.tables import render_schedule

        return render_schedule(self.schedule, self.model, retiming=self.retiming)


class RotationScheduler:
    """Configured rotation-scheduling pipeline.

    Args:
        model: functional-unit model.
        heuristic: ``"h1"`` or ``"h2"`` (paper Section 5; results use h2).
        beta: rotations per phase (default ``2 * |V|``).
        sigma: phase-size range (default: initial schedule length - 1).
        priority: list-scheduling priority name or callable.
        cap: number of tied-optimal schedules to retain.
        backend: ``"flat"`` (memoized integer kernels; ``None`` selects
            it) or ``"naive"`` (recompute everything, the parity oracle).
            Both produce bit-identical results.
    """

    def __init__(
        self,
        model: ResourceModel,
        heuristic: str = "h2",
        beta: Optional[int] = None,
        sigma: Optional[int] = None,
        priority="descendants",
        cap: int = 64,
        backend: Optional[str] = None,
    ):
        if heuristic not in HEURISTICS:
            raise SchedulingError(
                f"unknown heuristic {heuristic!r}; choose from {sorted(HEURISTICS)}"
            )
        if backend is None:
            backend = "flat"
        elif backend not in BACKENDS:
            raise SchedulingError(
                f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}"
            )
        self.model = model
        self.heuristic = heuristic
        self.beta = beta
        self.sigma = sigma
        self.priority = priority
        self.cap = cap
        self.backend = backend

    def schedule(self, graph: DFG) -> RotationResult:
        """Run the configured heuristic and post-process the best schedule."""
        tr = _obs.active
        traced = tr.enabled
        if traced:
            tr.begin(
                "solve",
                graph=graph.name or "dfg",
                model=self.model.label(),
                heuristic=self.heuristic,
                backend=self.backend,
            )
        try:
            t0 = time.perf_counter()
            engine = make_engine(self.backend, graph, self.model, self.priority)
            initial = RotationState.initial(
                graph, self.model, self.priority, engine=engine
            )
            best: BestTracker = HEURISTICS[self.heuristic](
                graph,
                self.model,
                beta=self.beta,
                sigma=self.sigma,
                priority=self.priority,
                cap=self.cap,
                engine=engine,
            )
            elapsed = time.perf_counter() - t0

            # Depth reduction (Section 3.2) on every optimal schedule found;
            # report the shallowest pipeline (ties: first found).  Engines
            # may provide realize_wrapped — the same pointwise-minimal
            # retiming computed on their own flat representation.
            realize = (
                getattr(engine, "realize_wrapped", None)
                if engine is not False
                else None
            )
            if traced:
                tr.begin("depth_reduction", candidates=len(best.entries))
            try:
                if realize is not None:
                    reduced = [realize(w) for _, w in best.entries]
                else:
                    reduced = [
                        WrappedSchedule(
                            w.schedule, realizing_retiming(w.schedule, w.period), w.period
                        )
                        for _, w in best.entries
                    ]
                final = min(reduced, key=lambda w: w.depth)
            finally:
                if traced:
                    tr.end()
        finally:
            if traced:
                tr.end()
        alternates = tuple(w for w in reduced if w is not final)
        return RotationResult(
            graph=graph,
            model=self.model,
            heuristic=self.heuristic,
            length=final.period,
            depth=final.depth,
            schedule=final.schedule,
            retiming=final.retiming,
            wrapped=final,
            initial_length=initial.length,
            optimal_count=len(best.entries),
            rotations_performed=best.offers - 1,
            elapsed_seconds=elapsed,
            alternates=alternates,
            engine_stats=engine.stats() if engine is not False else None,
            engine_metrics=engine.metrics() if engine is not False else None,
        )


def rotation_schedule(
    graph: DFG,
    model: ResourceModel,
    heuristic: str = "h2",
    beta: Optional[int] = None,
    sigma: Optional[int] = None,
    priority="descendants",
    backend: Optional[str] = None,
) -> RotationResult:
    """One-call convenience wrapper around :class:`RotationScheduler`."""
    return RotationScheduler(
        model,
        heuristic=heuristic,
        beta=beta,
        sigma=sigma,
        priority=priority,
        backend=backend,
    ).schedule(graph)
