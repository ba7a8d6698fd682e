"""Rotation scheduling over chained (time-unit) schedules.

Paper Section 3: "The basic rotation algorithm works for control steps
with chained operations."  This module drives the chained list scheduler
(:mod:`repro.schedule.chaining`) with the same three-step rotation recipe
as the integral engine: take the nodes *starting* in the first ``i``
control steps, bump their rotation count, shift the remainder up, and
partially reschedule only the rotated nodes (they chain into whatever
combinational slack the remaining schedule leaves open).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.dfg.graph import DFG, NodeId, Timing
from repro.dfg.retiming import Retiming
from repro.dfg.analysis import is_down_rotatable
from repro.schedule.chaining import (
    ChainedSchedule,
    ChainedScheduleEntry,
    chained_full_schedule,
)
from repro.errors import RotationError


@dataclass(frozen=True)
class ChainedRotationState:
    """Immutable rotation state over a chained schedule."""

    graph: DFG
    timing: Timing
    cs_length: int
    unit_counts: Mapping[str, int]
    op_units: Mapping[str, str]
    retiming: Retiming
    schedule: ChainedSchedule
    priority: object = "descendants"

    @classmethod
    def initial(
        cls,
        graph: DFG,
        timing: Timing,
        cs_length: int,
        unit_counts: Mapping[str, int],
        op_units: Mapping[str, str],
        priority="descendants",
    ) -> "ChainedRotationState":
        sched = chained_full_schedule(
            graph, timing, cs_length, unit_counts, op_units, priority=priority,
        )
        return cls(
            graph, timing, cs_length, dict(unit_counts), dict(op_units),
            Retiming.zero(), sched, priority,
        )

    @property
    def length(self) -> int:
        """Schedule length in control steps."""
        return self.schedule.length

    def down_rotate(self, size: int) -> "ChainedRotationState":
        """One down-rotation of ``size`` control steps."""
        if size < 1:
            raise RotationError(f"rotation size must be >= 1, got {size}")
        if size >= self.length:
            raise RotationError(
                f"rotation of size {size} illegal on length {self.length}"
            )
        first = self.schedule.first_cs
        moved = [
            v
            for v in self.graph.nodes
            if self.schedule.entry(v).cs - first < size
        ]
        if not is_down_rotatable(self.graph, moved, self.retiming):
            raise RotationError(
                f"prefix {moved!r} not down-rotatable"
            )  # pragma: no cover - schedule prefixes always are
        new_r = self.retiming + Retiming.of_set(moved)
        fixed: Dict[NodeId, ChainedScheduleEntry] = {}
        for v in self.graph.nodes:
            if v in moved:
                continue
            old = self.schedule.entry(v)
            fixed[v] = ChainedScheduleEntry(
                v, old.cs - first - size, old.offset, old.unit, old.instance
            )
        new_sched = chained_full_schedule(
            self.graph,
            self.timing,
            self.cs_length,
            self.unit_counts,
            self.op_units,
            new_r,
            self.priority,
            fixed=fixed,
            floor_time=0,
        )
        return ChainedRotationState(
            self.graph, self.timing, self.cs_length, self.unit_counts,
            self.op_units, new_r, new_sched, self.priority,
        )


def chained_rotation_schedule(
    graph: DFG,
    timing: Timing,
    cs_length: int,
    unit_counts: Mapping[str, int],
    op_units: Mapping[str, str],
    rotations: int = 16,
    priority="descendants",
) -> Tuple[ChainedRotationState, int]:
    """Size-1 rotation loop over a chained schedule.

    Returns ``(best state, best length)``; the best state is the first one
    achieving the shortest control-step count.
    """
    state = ChainedRotationState.initial(
        graph, timing, cs_length, unit_counts, op_units, priority
    )
    best_state, best_len = state, state.length
    for _ in range(rotations):
        if state.length <= 1:
            break
        state = state.down_rotate(1)
        if state.length < best_len:
            best_state, best_len = state, state.length
    return best_state, best_len
