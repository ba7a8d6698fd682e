"""Backend selection for rotation scheduling (paper Section 2's
implementation claim).

The paper's implementation argument is that a rotation is a *local*
edit: ``R := R (+) X`` changes ``dr(e)`` only on edges crossing the
rotated set ``X`` — "no graphs or weights on graph edges are modified".
Two backends exist:

* ``flat`` (the default) — :class:`repro.core.flat.engine.FlatEngine`:
  integer kernels over a CSR snapshot of the graph, delta-maintained
  occupancy grids and rotation transition memos;
* ``naive`` — no engine: every rotation recomputes priorities,
  adjacency and occupancy from scratch.  It is the oracle the golden
  parity suite pins ``flat`` against bit for bit.

:func:`make_engine` resolves a backend name; :class:`EngineStats` holds
the counters every engine reports.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Priority names the flat engine computes with its own kernels; callable
#: priorities run on the naive path, which calls them directly.
_STRUCTURAL_PRIORITIES = {"descendants", "height", "combined", "mobility"}

#: Selectable backends: ``flat`` = integer kernels + rotation transition
#: memos over CSR snapshots (repro.core.flat), ``naive`` = recompute
#: everything (no engine).
BACKENDS = ("flat", "naive")


def make_engine(backend, graph, model, priority="descendants"):
    """Resolve a backend name to an engine instance (or ``False`` for naive).

    ``None`` selects the default (``flat``).  The flat engine needs a
    named structural priority; a callable priority resolves to the naive
    path, which routes it through :func:`~repro.schedule.priorities.get_priority`
    unchanged.  Both backends are pinned bit-identical by the golden
    parity suite.
    """
    if backend is None:
        backend = "flat"
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}")
    if backend == "naive" or priority not in _STRUCTURAL_PRIORITIES:
        return False
    from repro.core.flat.engine import FlatEngine

    return FlatEngine(graph, model, priority)


@dataclass
class EngineStats:
    """Instrumentation counters, all monotonically increasing."""

    rotations: int = 0
    initial_schedules: int = 0
    view_hits: int = 0
    view_derives: int = 0
    view_builds: int = 0
    view_evictions: int = 0
    dirty_priority_nodes: int = 0
    priority_entries_reused: int = 0
    priority_full_rebuilds: int = 0
    edges_rescanned: int = 0
    grid_delta_rotations: int = 0
    grid_reseeds: int = 0
    grid_released_slots: int = 0

