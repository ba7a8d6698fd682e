"""Operation chaining: time-unit scheduling within fixed-length control
steps (paper Section 3: "The basic rotation algorithm works for control
steps with chained operations").

In this mode operation times are physical (e.g. nanoseconds) and a
control step has a fixed ``cs_length``; several *dependent* operations
may execute back-to-back inside one control step as long as their total
combinational time fits.  The paper's experimental technology is the
motivating example: 40 ns adders and 80 ns multipliers under a 50 ns
clock (with 10 ns latch margin) — there a multiply spans 2 CS and no two
adds chain; slow the clock to 100 ns and two adds chain while a multiply
fits one step.

:class:`ChainedScheduleEntry` places an op at ``(control step, offset)``
where ``offset`` is the start time inside the step.  The list scheduler
below mirrors :mod:`repro.schedule.list_scheduler` but tracks per-unit
occupancy in time units and intra-step arrival times, and it exposes the
same ``(full, partial)`` pair so rotation can drive it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.dfg.graph import DFG, NodeId, Timing
from repro.dfg.retiming import Retiming
from repro.dfg.analysis import (
    topological_order,
    zero_delay_adjacency,
    zero_delay_successors,
)
from repro.schedule.priorities import get_priority
from repro.errors import ResourceError, SchedulingError


@dataclass(frozen=True)
class ChainedScheduleEntry:
    """Placement of one op: control step, intra-step offset, unit instance."""

    node: NodeId
    cs: int
    offset: int
    unit: str
    instance: int

    @property
    def start_time(self) -> int:
        """Absolute start in time units requires the owning schedule's
        ``cs_length``; exposed there as :meth:`ChainedSchedule.start_time`."""
        return self.offset  # intra-step component only


class ChainedSchedule:
    """A schedule in (control step, offset) form with chaining."""

    def __init__(
        self,
        graph: DFG,
        timing: Timing,
        cs_length: int,
        unit_counts: Mapping[str, int],
        op_units: Mapping[str, str],
        entries: Mapping[NodeId, ChainedScheduleEntry],
    ):
        self.graph = graph
        self.timing = timing
        self.cs_length = cs_length
        self.unit_counts = dict(unit_counts)
        self.op_units = dict(op_units)
        self.entries = dict(entries)

    def entry(self, node: NodeId) -> ChainedScheduleEntry:
        return self.entries[node]

    def start_time(self, node: NodeId) -> int:
        e = self.entries[node]
        return e.cs * self.cs_length + e.offset

    def finish_time(self, node: NodeId) -> int:
        return self.start_time(node) + self.graph.time(node, self.timing)

    @property
    def first_cs(self) -> int:
        return min(e.cs for e in self.entries.values())

    @property
    def last_cs(self) -> int:
        """Last control step any operation's execution touches."""
        return max(
            (self.finish_time(v) - 1) // self.cs_length for v in self.entries
        )

    @property
    def length(self) -> int:
        """Schedule length in control steps."""
        return self.last_cs - self.first_cs + 1

    def chains(self) -> List[List[NodeId]]:
        """Maximal dependence chains executing within a single CS."""
        out: List[List[NodeId]] = []
        chained_into: Set[NodeId] = set()
        for v in topological_order(self.graph):
            if v in chained_into or v not in self.entries:
                continue
            chain = [v]
            cur = v
            extended = True
            while extended:
                extended = False
                for w in zero_delay_successors(self.graph, cur):
                    if (
                        w in self.entries
                        and self.entries[w].cs == self.entries[cur].cs
                        and self.start_time(w) == self.finish_time(cur)
                    ):
                        chain.append(w)
                        chained_into.add(w)
                        cur = w
                        extended = True
                        break
            if len(chain) > 1:
                out.append(chain)
        return out

    def violations(self, r: Optional[Retiming] = None) -> List[str]:
        """Precedence (under optional retiming ``r``), chaining-window and
        resource problems."""
        out: List[str] = []
        for e in self.graph.edges:
            dr = e.delay if r is None else r.dr(e)
            if dr == 0 and self.finish_time(e.src) > self.start_time(e.dst):
                out.append(f"{e.src}->{e.dst}: chained too early")
        for v in self.entries:
            entry = self.entries[v]
            if entry.offset + self.graph.time(v, self.timing) > self.cs_length:
                # spilling over the step boundary is only allowed from offset 0
                # (the multi-cycle case)
                if entry.offset != 0:
                    out.append(f"{v}: chain overflows the control step")
        busy: Dict[Tuple[str, int, int], List[NodeId]] = {}
        for v, entry in self.entries.items():
            t0 = self.start_time(v)
            for t in range(t0, t0 + self.graph.time(v, self.timing)):
                busy.setdefault((entry.unit, entry.instance, t), []).append(v)
        for key, nodes in busy.items():
            if len(nodes) > 1:
                out.append(f"unit {key[0]}[{key[1]}] double-booked at t={key[2]}")
        return out


def chained_full_schedule(
    graph: DFG,
    timing: Timing,
    cs_length: int,
    unit_counts: Mapping[str, int],
    op_units: Mapping[str, str],
    r: Optional[Retiming] = None,
    priority="descendants",
    fixed: Optional[Mapping[NodeId, ChainedScheduleEntry]] = None,
    floor_time: int = 0,
) -> ChainedSchedule:
    """List scheduling with chaining over the zero-delay DAG of ``Gr``.

    Args:
        graph: the DFG (times resolved through ``timing`` in time units).
        timing: op -> time units.
        cs_length: control-step length in the same time units.
        unit_counts: unit class -> instance count.
        op_units: op type -> unit class.
        r: optional retiming.
        priority: list priority (same registry as the integral scheduler).
        fixed: pre-placed entries that must not move (the partial form the
            rotation driver uses).
        floor_time: earliest time unit for newly placed operations.
    """
    if cs_length <= 0:
        raise SchedulingError(f"nonpositive control step length {cs_length}")
    for op in {graph.op(v) for v in graph.nodes}:
        if op not in op_units:
            raise ResourceError(f"op {op!r} has no unit binding")
        if op_units[op] not in unit_counts:
            raise ResourceError(f"unit {op_units[op]!r} has no count")

    prio = get_priority(priority)(graph, timing, r)
    zsucc, zpred = zero_delay_adjacency(graph, r)
    node_index = {v: i for i, v in enumerate(graph.nodes)}

    # busy[(unit, instance)] = list of (start, finish) intervals, time units
    busy: Dict[Tuple[str, int], List[Tuple[int, int]]] = {}

    def place(unit: str, t0: int, dur: int) -> Optional[int]:
        for k in range(unit_counts[unit]):
            intervals = busy.setdefault((unit, k), [])
            if all(f <= t0 or s >= t0 + dur for s, f in intervals):
                return k
        return None

    entries: Dict[NodeId, ChainedScheduleEntry] = {}
    finish: Dict[NodeId, int] = {}
    for v, entry in (fixed or {}).items():
        t0 = entry.cs * cs_length + entry.offset
        dur = graph.time(v, timing)
        busy.setdefault((entry.unit, entry.instance), []).append((t0, t0 + dur))
        entries[v] = entry
        finish[v] = t0 + dur
    todo = [v for v in graph.nodes if v not in entries]
    pending = {
        v: sum(1 for u in zpred[v] if u not in entries)
        for v in todo
    }
    ready = {v for v in todo if pending[v] == 0}
    unplaced = set(todo)
    guard = 0
    while unplaced:
        placed_any = False
        candidates = sorted(
            (v for v in ready if all(u in finish for u in zpred[v])),
            key=lambda v: (tuple(-x for x in prio[v]), node_index[v]),
        )
        for v in candidates:
            dur = graph.time(v, timing)
            t0 = max(
                [finish[u] for u in zpred[v]],
                default=floor_time,
            )
            t0 = max(t0, floor_time)
            placed = None
            for _ in range(4 * (len(graph.nodes) + 4) * cs_length):
                cs, off = divmod(t0, cs_length)
                if dur > cs_length and off != 0:
                    t0 = (cs + 1) * cs_length  # multi-cycle must align
                    continue
                if dur <= cs_length and off + dur > cs_length:
                    t0 = (cs + 1) * cs_length  # chain window exceeded
                    continue
                unit = op_units[graph.op(v)]
                k = place(unit, t0, dur)
                if k is None:
                    t0 += 1
                    continue
                busy[(unit, k)].append((t0, t0 + dur))
                placed = ChainedScheduleEntry(v, cs, off, unit, k)
                break
            if placed is None:  # pragma: no cover - the probe always lands
                raise SchedulingError(f"could not place {v!r}")
            entries[v] = placed
            finish[v] = t0 + dur
            unplaced.discard(v)
            ready.discard(v)
            placed_any = True
            for w in zsucc[v]:
                if w in unplaced:
                    pending[w] -= 1
                    if pending[w] == 0:
                        ready.add(w)
        guard += 1
        if not placed_any and guard > 4 * len(graph.nodes) + 16:
            raise SchedulingError("chained scheduler failed to converge")  # pragma: no cover

    return ChainedSchedule(graph, timing, cs_length, unit_counts, op_units, entries)


def paper_technology(cs_length_ns: int = 50) -> Tuple[Timing, int, Dict[str, int], Dict[str, str]]:
    """The paper's physical technology: 40 ns adds, 80 ns multiplies.

    Returns ``(timing, cs_length, unit_counts-template, op_units)`` with a
    1-adder/1-multiplier unit template the caller can adjust.
    """
    timing = Timing({"add": 40, "sub": 40, "cmp": 40, "mul": 80})
    unit_counts = {"adder": 1, "mult": 1}
    op_units = {"add": "adder", "sub": "adder", "cmp": "adder", "mul": "mult"}
    return timing, cs_length_ns, unit_counts, op_units
