"""Backend selection for rotation scheduling (paper Section 2's
implementation claim).

The paper's implementation argument is that a rotation is a *local*
edit: ``R := R (+) X`` changes ``dr(e)`` only on edges crossing the
rotated set ``X`` — "no graphs or weights on graph edges are modified".
Two backends exist:

* ``flat`` (the default) — :class:`repro.core.flat.engine.FlatEngine`:
  integer kernels over an integer-array snapshot of the graph, each
  rotation deriving only its moved subgraph, a delta-maintained
  occupancy grid, lap replay and wrap/realize memos;
* ``naive`` — no engine: every rotation recomputes priorities,
  adjacency and occupancy from scratch.  It is the oracle the golden
  parity suite pins ``flat`` against bit for bit.

:func:`make_engine` resolves a backend name; :class:`EngineStats` holds
the counters every engine reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SchedulingError

#: Priority names the flat engine computes with its own kernels; callable
#: priorities run on the naive path, which calls them directly.
_STRUCTURAL_PRIORITIES = {"descendants", "height", "combined", "mobility"}

#: Selectable backends: ``flat`` = integer kernels over integer-array
#: snapshots, local per rotation (repro.core.flat), ``naive`` = recompute
#: everything (no engine).
BACKENDS = ("flat", "naive")


def check_config(heuristic: Optional[str], backend: Optional[str]) -> str:
    """The one check of a solve configuration: raises
    :class:`~repro.errors.SchedulingError` on an unknown heuristic (``None``
    skips that check) or backend, and returns the backend name, ``None``
    resolved to ``flat``."""
    if heuristic is not None:
        from repro.core.phases import HEURISTICS

        if heuristic not in HEURISTICS:
            raise SchedulingError(
                f"unknown heuristic {heuristic!r}; choose from {sorted(HEURISTICS)}"
            )
    if backend is None:
        return "flat"
    if backend not in BACKENDS:
        raise SchedulingError(
            f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}"
        )
    return backend


def make_engine(backend, graph, model, priority="descendants"):
    """Resolve a backend name to an engine instance (or ``False`` for naive).

    ``None`` selects the default (``flat``); an unknown name raises
    :class:`~repro.errors.SchedulingError` (:func:`check_config`).  The
    flat engine needs a named structural priority; a callable priority
    resolves to the naive path, which routes it through
    :func:`~repro.schedule.priorities.get_priority` unchanged.  Both
    backends are pinned bit-identical by the golden parity suite.
    """
    if check_config(None, backend) == "naive" or priority not in _STRUCTURAL_PRIORITIES:
        return False
    from repro.core.flat.engine import FlatEngine

    return FlatEngine(graph, model, priority)


@dataclass
class EngineStats:
    """Instrumentation counters, all monotonically increasing."""

    rotations: int = 0
    initial_schedules: int = 0
    view_hits: int = 0
    view_builds: int = 0
    view_evictions: int = 0
    priority_full_rebuilds: int = 0
    edges_rescanned: int = 0
    grid_delta_rotations: int = 0
    grid_reseeds: int = 0
    grid_released_slots: int = 0

