"""Cell execution: the one path both fixed grids and the explorer share.

A cell is solved in one of three ways, all returning the same
:class:`CellOutcome`:

* **cold** — a fresh :func:`~repro.core.scheduler.rotation_schedule` on
  the flat backend, no reuse whatsoever.  This is what today's benchmark
  sweeps do cell by cell, and therefore the honest exhaustive baseline
  the perfcheck explore tier compares against.
* **warm** (:meth:`CellSolver.solve`) — the explorer's path: a
  *solve-key memo* collapses clock cells that share a latency model, a
  per-family :class:`~repro.core.session.MutableSchedulingSession` hops
  between neighboring resource configs via ``set_resource_counts`` +
  ``resolve(mode="solve")`` (bit-identical to a cold solve on the edited
  model — the parity tests pin this).
* **remote** (:class:`ServeCellSolver`) — the ``--via serve`` path: the
  cell travels as a ``repro.serve/v1`` request (latencies folded into a
  full unit-spec config), the daemon's two-level cache does the reuse,
  and the schedule is rebuilt client-side so the register count — and
  hence the Pareto point — is computed by exactly the same code as the
  local paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace as _dc_replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.binding.lifetimes import register_requirement
from repro.core.scheduler import rotation_schedule
from repro.core.session import MutableSchedulingSession
from repro.explore.space import (
    CellSpec,
    ExploreError,
    Point,
    cell_model,
    family_key,
    objective_point,
    solve_key,
)
from repro.explore.bounds import bound_graph


@dataclass
class CellOutcome:
    """One solved cell, reduced to what the frontier and trace need.

    ``source`` says how the solve happened: ``"cold"``, ``"solve"`` (warm
    path, fresh session), ``"warm"`` (seeded from a family neighbor),
    ``"memo"`` (solve-key hit, no solve at all), or
    ``"serve:<cache-level>"``.  ``result`` keeps the full
    :class:`~repro.core.scheduler.RotationResult` for in-process callers
    (the benchmark asserts); :meth:`strip` drops it before a pipe.
    """

    spec: CellSpec
    point: Point
    length: int
    registers: int
    elapsed: float
    source: str
    result: Any = None

    @property
    def seeded(self) -> bool:
        return self.source == "warm"

    @property
    def deduped(self) -> bool:
        return self.source == "memo"

    def strip(self) -> "CellOutcome":
        return self if self.result is None else _dc_replace(self, result=None)

    def as_json(self) -> Dict[str, Any]:
        return {
            "cell": self.spec.as_json(),
            "point": self.point.as_json(),
            "length": self.length,
            "registers": self.registers,
            "elapsed": self.elapsed,
            "source": self.source,
        }


def _counts(spec: CellSpec) -> Dict[str, int]:
    return {"adder": spec.adders, "mult": spec.mults}


def _outcome(spec: CellSpec, result, elapsed: float, source: str) -> CellOutcome:
    registers = register_requirement(result.schedule, result.retiming, result.length)
    return CellOutcome(
        spec=spec,
        point=objective_point(spec, result.length, registers),
        length=result.length,
        registers=registers,
        elapsed=elapsed,
        source=source,
        result=result,
    )


class CellSolver:
    """Local cell execution with both reuse mechanisms (memo, warm chains).

    One instance per lane; its memo and session caches are the lane's
    private state (a lane is one benchmark, so every family of its cells
    stays on one solver and the warm chains connect).
    """

    def __init__(self, backend: Optional[str] = None):
        self.backend = backend or "flat"
        # solve_key -> (length, registers): clock cells sharing a latency
        # model collapse here without touching a solver.
        self._memo: Dict[Tuple, Tuple[int, int]] = {}
        self._sessions: Dict[Tuple, Any] = {}

    # -- the exhaustive baseline ---------------------------------------
    def solve_cold(self, spec: CellSpec) -> CellOutcome:
        """Fresh flat-backend solve, no reuse — the exhaustive-grid path."""
        graph = bound_graph(spec)
        model = cell_model(spec)
        t0 = time.perf_counter()
        result = rotation_schedule(
            graph,
            model,
            heuristic=spec.heuristic,
            beta=spec.beta,
            sigma=spec.sigma,
            backend="flat",
        )
        return _outcome(spec, result, time.perf_counter() - t0, "cold")

    # -- the explorer's warm path --------------------------------------
    def solve(self, spec: CellSpec) -> CellOutcome:
        """Memo -> warm family session -> fresh session, in that order."""
        key = solve_key(spec)
        hit = self._memo.get(key)
        if hit is not None:
            length, registers = hit
            return CellOutcome(
                spec=spec,
                point=objective_point(spec, length, registers),
                length=length,
                registers=registers,
                elapsed=0.0,
                source="memo",
            )
        fam = family_key(spec)
        session = self._sessions.get(fam)
        t0 = time.perf_counter()
        if session is not None:
            session.set_resource_counts(_counts(spec))
            result = session.resolve(mode="solve")
            source = "warm"
        else:
            session = MutableSchedulingSession(
                bound_graph(spec),
                cell_model(spec),
                heuristic=spec.heuristic,
                beta=spec.beta,
                sigma=spec.sigma,
                backend=self.backend,
            )
            self._sessions[fam] = session
            result = session.resolve(mode="solve")
            source = "solve"
        outcome = _outcome(spec, result, time.perf_counter() - t0, source)
        self._memo[key] = (outcome.length, outcome.registers)
        return outcome


class ServeCellSolver:
    """Cell execution through a ``repro.serve`` daemon (``--via serve``).

    The clock axis travels as explicit per-unit latencies (a full
    unit-spec config), never as the daemon's ``clock`` option — that one
    selects ns-granularity *chained* scheduling, a different semantics
    than the explorer's integral latency model.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8347, client=None):
        if client is None:
            from repro.serve.client import ServeClient

            client = ServeClient(host, port)
        self.client = client

    def payload(self, spec: CellSpec) -> Dict[str, Any]:
        model = cell_model(spec)
        options: Dict[str, Any] = {"heuristic": spec.heuristic, "unfold": spec.unfold}
        if spec.sigma is not None:
            options["sigma"] = spec.sigma
        if spec.beta is not None:
            options["beta"] = spec.beta
        return {
            "graph": {"benchmark": spec.bench},
            "config": {
                "units": [
                    {
                        "name": u.name,
                        "count": u.count,
                        "latency": u.latency,
                        "pipelined": u.pipelined,
                    }
                    for u in model.units
                ],
                "binding": dict(model.binding),
            },
            "options": options,
        }

    def solve(self, spec: CellSpec) -> CellOutcome:
        from repro.dfg.io import _decode_id
        from repro.dfg.retiming import Retiming
        from repro.schedule.schedule import Schedule

        t0 = time.perf_counter()
        envelope = self.client.solve(self.payload(spec))
        elapsed = time.perf_counter() - t0
        if "error" in envelope:
            err = envelope["error"]
            raise ExploreError(
                f"serve rejected cell {spec.label()}: "
                f"{err.get('type', '?')}: {err.get('message', '?')}"
            )
        raw = envelope["result"]
        # Rebuild the schedule on the client-side twin of the daemon's
        # graph (same benchmark, same unfold function -> same node ids) so
        # registers come from the same lifetime analysis as local solves.
        graph = bound_graph(spec)
        model = cell_model(spec)
        start = {_decode_id(v): s for v, s in raw["starts"]}
        units = {
            _decode_id(v): inst for v, inst in raw["units"] if inst is not None
        }
        schedule = Schedule.from_complete(graph, model, start, units)
        retiming = Retiming({_decode_id(v): r for v, r in raw["retiming"]})
        registers = register_requirement(schedule, retiming, raw["length"])
        return CellOutcome(
            spec=spec,
            point=objective_point(spec, raw["length"], registers),
            length=raw["length"],
            registers=registers,
            elapsed=elapsed,
            source=f"serve:{envelope.get('cache', '?')}",
        )

    def close(self) -> None:
        self.client.close()


def run_grid(
    cells: Sequence[CellSpec],
    solver: Optional[CellSolver] = None,
    *,
    cold: bool = False,
    execute=None,
) -> List[CellOutcome]:
    """Run a fixed grid in the order given — the shared sweep loop.

    The benchmarks call this instead of hand-rolled ``for`` loops:
    ``cold=True`` is the exhaustive baseline, the default reuses via a
    :class:`CellSolver`, and ``execute`` swaps in a custom per-cell
    callable (the chained clock sweep) while keeping the same outcome
    accounting.
    """
    if execute is None:
        if solver is None:
            solver = CellSolver()
        execute = solver.solve_cold if cold else solver.solve
    return [execute(spec) for spec in cells]
