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
from dataclasses import dataclass
from typing import Optional, Tuple

# The default backend.  ``make_engine`` imports it on first use (the two
# modules import each other); importing it here too means a process that
# forks workers after importing the scheduler (serve shards, explore
# lanes, fuzz jobs) hands it down instead of each worker importing it.
import repro.core.flat.engine  # noqa: F401
from repro.dfg.graph import DFG
from repro.dfg.retiming import Retiming
from repro.schedule.resources import ResourceModel
from repro.schedule.schedule import Schedule
from repro.core.depth import reduce_depth
from repro.core.engine import check_config, make_engine
from repro.core.phases import HEURISTICS, BestTracker
from repro.core.wrapping import WrappedSchedule
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
    #: Length of the first schedule the search started from (for a
    #: session repair: the previous result's length).
    initial_length: int
    optimal_count: int
    #: Rotations run (re-seeds included).  The default search stops once
    #: its length meets the lower bound with ``cap`` ties held, since no
    #: later rotation could change the result, so this is not fixed by
    #: beta and sigma alone.
    rotations_performed: int
    #: Wall seconds from the start of the solve or repair through depth
    #: reduction (engine set-up, search and finish; not the caller's
    #: edits).
    elapsed_seconds: float
    #: The other tied optima, depth-reduced, in the order found.
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


def finish(
    best: BestTracker,
    engine,
    graph: DFG,
    model: ResourceModel,
    heuristic: str,
    initial_length: int,
    t0: float,
) -> Tuple[RotationResult, WrappedSchedule]:
    """The last stage of every solve and repair: depth reduction
    (Section 3.2) on each tied optimum in ``best``, then the result.

    Reports the shallowest entry (ties: the first found); ``alternates``
    are the other entries, reduced, in tracker order.  Entries are
    realized by the engine's flat ``realize_wrapped``, or by the dict
    :func:`~repro.core.depth.reduce_depth` on the naive path
    (``engine is False``) — the same retimings either way.  Returns the
    result and the chosen entry *before* reduction (the session's repair
    seed).
    """
    with _obs.active.span("depth_reduction", candidates=len(best.entries)):
        if engine is False:
            reduced = [
                WrappedSchedule(w.schedule, reduce_depth(w.schedule, w.period), w.period)
                for _, w in best.entries
            ]
        else:
            reduced = [engine.realize_wrapped(w) for _, w in best.entries]
        i = min(range(len(reduced)), key=lambda k: (reduced[k].depth, k))
    final = reduced[i]
    result = RotationResult(
        graph=graph,
        model=model,
        heuristic=heuristic,
        length=final.period,
        depth=final.depth,
        schedule=final.schedule,
        retiming=final.retiming,
        wrapped=final,
        initial_length=initial_length,
        optimal_count=len(best.entries),
        rotations_performed=best.offers - 1,
        elapsed_seconds=time.perf_counter() - t0,
        alternates=tuple(reduced[:i] + reduced[i + 1:]),
        engine_stats=engine.stats() if engine is not False else None,
        engine_metrics=engine.metrics() if engine is not False else None,
    )
    return result, best.entries[i][1]


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
        self.model = model
        self.heuristic = heuristic
        self.beta = beta
        self.sigma = sigma
        self.priority = priority
        self.cap = cap
        self.backend = check_config(heuristic, backend)

    def schedule(self, graph: DFG) -> RotationResult:
        """Run the configured heuristic and post-process the best schedule."""
        with _obs.active.span(
            "solve",
            graph=graph.name or "dfg",
            model=self.model.label(),
            heuristic=self.heuristic,
            backend=self.backend,
        ):
            t0 = time.perf_counter()
            engine = make_engine(self.backend, graph, self.model, self.priority)
            best: BestTracker = HEURISTICS[self.heuristic](
                graph,
                self.model,
                beta=self.beta,
                sigma=self.sigma,
                priority=self.priority,
                cap=self.cap,
                engine=engine,
            )
            return finish(
                best, engine, graph, self.model, self.heuristic, best.initial_length, t0
            )[0]


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
