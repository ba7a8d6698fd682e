"""JSONL trace export and import.

A trace file is line-delimited JSON: one header object followed by one
object per span event, in span *start* order (spans grafted from another
tracer follow as one block, see :meth:`~repro.obs.tracer.Tracer.graft`)::

    {"schema": "repro.obs/trace/v1", "meta": {...}, "events": 6204}
    {"i": 0, "parent": -1, "depth": 0, "name": "solve", "t0_ns": 0,
     "dur_ns": 131072345, "attrs": {"graph": "elliptic", ...}}
    {"i": 1, "parent": 0, "depth": 1, "name": "schedule.initial", ...}
    ...

The format round-trips exactly: parsing an emitted file reproduces the
same event tree (indices, parents, depths, names, attrs, durations).
:func:`validate_trace` checks the structural invariants the schema
promises — ``rotsched gate``'s trace smoke runs it on a freshly emitted
cell before every merge.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.tracer import TRACE_SCHEMA, SpanEvent, Tracer


class TraceError(ReproError):
    """A trace file violates the repro.obs trace schema."""


class Trace:
    """A parsed (or directly captured) span tree."""

    def __init__(self, meta: Dict[str, Any], events: List[SpanEvent]):
        self.meta = meta
        self.events = events

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "Trace":
        if tracer.open_spans:
            raise TraceError(
                f"cannot export a trace with {tracer.open_spans} open span(s)"
            )
        return cls(dict(tracer.meta), list(tracer.events))

    # ------------------------------------------------------------------
    def shape(self) -> Tuple:
        """Timing-free identity of the whole tree (determinism tests)."""
        return tuple(ev.shape() for ev in self.events)

    def children(self) -> List[List[int]]:
        """Child event indices per event, in start order."""
        kids: List[List[int]] = [[] for _ in self.events]
        for ev in self.events:
            if ev.parent >= 0:
                kids[ev.parent].append(ev.index)
        return kids

    def roots(self) -> List[SpanEvent]:
        return [ev for ev in self.events if ev.parent < 0]

    def render_tree(self, max_events: Optional[int] = None) -> str:
        """Indented one-line-per-span rendering (debugging / docs)."""
        lines = []
        for ev in self.events if max_events is None else self.events[:max_events]:
            dur_ms = ev.dur_ns / 1e6
            attrs = (
                " " + " ".join(f"{k}={v}" for k, v in sorted(ev.attrs.items()))
                if ev.attrs
                else ""
            )
            lines.append(f"{'  ' * ev.depth}{ev.name} {dur_ms:.3f}ms{attrs}")
        if max_events is not None and len(self.events) > max_events:
            lines.append(f"... {len(self.events) - max_events} more event(s)")
        return "\n".join(lines)


def write_trace(tracer: Tracer, path: str) -> int:
    """Emit a tracer's span tree as JSONL; returns the event count."""
    trace = Trace.from_tracer(tracer)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            json.dumps(
                {"schema": TRACE_SCHEMA, "meta": trace.meta, "events": len(trace.events)}
            )
            + "\n"
        )
        for ev in trace.events:
            fh.write(json.dumps(ev.as_dict(), separators=(",", ":")) + "\n")
    return len(trace.events)


def parse_trace(lines: Iterable[str]) -> Trace:
    """Parse JSONL lines (header first) into a :class:`Trace`."""
    it = iter(lines)
    header_line = None
    for raw in it:
        raw = raw.strip()
        if raw:
            header_line = raw
            break
    if header_line is None:
        raise TraceError("empty trace: no header line")
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as exc:
        raise TraceError(f"bad trace header: {exc}") from None
    if not isinstance(header, dict) or header.get("schema") != TRACE_SCHEMA:
        raise TraceError(
            f"unsupported trace schema {header.get('schema')!r} "
            f"(expected {TRACE_SCHEMA!r})" if isinstance(header, dict)
            else "trace header is not an object"
        )
    events: List[SpanEvent] = []
    for lineno, raw in enumerate(it, start=2):
        raw = raw.strip()
        if not raw:
            continue
        try:
            rec = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise TraceError(f"line {lineno}: bad JSON: {exc}") from None
        try:
            events.append(
                SpanEvent(
                    rec["i"],
                    rec["parent"],
                    rec["depth"],
                    rec["name"],
                    rec["t0_ns"],
                    rec.get("attrs", {}),
                    rec["dur_ns"],
                )
            )
        except (KeyError, TypeError) as exc:
            raise TraceError(f"line {lineno}: missing event field: {exc}") from None
    trace = Trace(header.get("meta", {}), events)
    declared = header.get("events")
    if declared is not None and declared != len(events):
        raise TraceError(
            f"header declares {declared} event(s) but file holds {len(events)}"
        )
    return trace


def read_trace(path: str) -> Trace:
    """Load a JSONL trace file written by :func:`write_trace`."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh)


def validate_trace(trace: Trace) -> List[str]:
    """Structural schema violations (empty list == valid).

    Checks: contiguous indices in start order, parents precede children,
    depths equal parent depth + 1 (0 at roots), durations non-negative,
    and children nested inside their parent's interval.
    """
    problems: List[str] = []
    events = trace.events
    for pos, ev in enumerate(events):
        tag = f"event {pos} ({ev.name!r})"
        if ev.index != pos:
            problems.append(f"{tag}: index {ev.index} != position {pos}")
            continue
        if ev.dur_ns < 0:
            problems.append(f"{tag}: negative/open duration {ev.dur_ns}")
        if ev.parent < 0:
            if ev.depth != 0:
                problems.append(f"{tag}: root span with depth {ev.depth}")
            continue
        if ev.parent >= pos:
            problems.append(f"{tag}: parent {ev.parent} does not precede it")
            continue
        parent = events[ev.parent]
        if ev.depth != parent.depth + 1:
            problems.append(
                f"{tag}: depth {ev.depth} != parent depth {parent.depth} + 1"
            )
        if ev.t0_ns < parent.t0_ns or (
            parent.dur_ns >= 0
            and ev.dur_ns >= 0
            and ev.t0_ns + ev.dur_ns > parent.t0_ns + parent.dur_ns
        ):
            problems.append(f"{tag}: not nested inside parent interval")
    return problems
