"""Lower bounds on static-schedule length under resource constraints.

The paper's LB column combines the iteration bound with resource-derived
bounds from the first author's thesis appendix (not included in the paper
text).  This module implements the standard, provably-valid pieces:

* **iteration bound** — ``ceil(max over cycles t(C) / d(C))``; no schedule
  of any retiming can beat it (Renfors-Neuvo);
* **resource bound** — each unit class must fit its workload:
  ``ceil(#ops / count)`` for pipelined units (one initiation per CS per
  unit) and ``ceil(#ops * latency / count)`` for non-pipelined units;
* **combined bound** — the max of the above.

Where the paper's appendix bound is sharper (elliptic 2A 1M: 17 vs our
16; all-pole 2A 1Mp/2A 2Mp/2A 2M: 9 vs our 8; all-pole 2A 1M: 10 vs our
8) EXPERIMENTS.md reports the gap explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from repro.dfg.graph import DFG, Timing
from repro.dfg.iteration_bound import fraction_ceil, iteration_bound
from repro.schedule.resources import ResourceModel


@dataclass(frozen=True)
class LowerBoundReport:
    """Breakdown of the combined lower bound."""

    iteration_bound: Fraction
    resource_bounds: Dict[str, int]
    combined: int

    @property
    def binding(self) -> str:
        """Which constraint is binding (``"cycles"`` or a unit-class name)."""
        ib_ceil = fraction_ceil(self.iteration_bound)
        best_unit = max(self.resource_bounds, key=self.resource_bounds.get, default="")
        if ib_ceil >= self.resource_bounds.get(best_unit, 0):
            return "cycles"
        return best_unit


def resource_bound(graph: DFG, model: ResourceModel) -> Dict[str, int]:
    """Per-unit-class workload bound on the schedule length."""
    work: Dict[str, int] = {}
    for v in graph.nodes:
        unit = model.unit_for_op(graph.op(v))
        work[unit.name] = work.get(unit.name, 0) + (1 if unit.pipelined else unit.latency)
    return {
        name: -(-amount // model.unit(name).count) for name, amount in work.items()
    }


def combined_lower_bound(
    graph: DFG,
    model: ResourceModel,
    timing: Optional[Timing] = None,
) -> LowerBoundReport:
    """``max(iteration bound, per-class resource bounds)``.

    Args:
        graph: the cyclic DFG.
        model: resource model (its latencies also define the timing unless
            ``timing`` overrides them).
    """
    tm = timing if timing is not None else model.timing()
    ib = iteration_bound(graph, tm)
    rb = resource_bound(graph, model)
    combined = max([fraction_ceil(ib), *rb.values()])
    return LowerBoundReport(iteration_bound=ib, resource_bounds=rb, combined=combined)


def lower_bound(graph: DFG, model: ResourceModel, timing: Optional[Timing] = None) -> int:
    """Shortcut for :func:`combined_lower_bound`'s scalar value."""
    return combined_lower_bound(graph, model, timing).combined
