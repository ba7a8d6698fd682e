"""Span tracing for the rotation-scheduling pipeline.

A :class:`Tracer` records *spans*: named, nested, monotonic-clock-timed
intervals around the pipeline's phases (rotation loop, retiming, priority
repair, placement, wrap search) and the flat backend's integer kernels.
Spans form a tree — ``begin``/``end`` push and pop the open-span chain —
and every finished span becomes one :class:`SpanEvent` with a parent
index, depth, start offset and duration in nanoseconds, plus free-form
attributes.

The open-span chain lives in a :class:`contextvars.ContextVar`, not in
the tracer: each asyncio task and each thread has its own copy, so two
concurrent served requests build two separate trees instead of nesting
one inside the other.  The chain links carry their tracer, and a span's
parent is the innermost open span *of its own tracer*, so nested
tracers never cross-link.

Instrumentation sites are compiled in permanently but cost almost nothing
when tracing is off: the module-level :data:`active` tracer is the
:data:`NULL` no-op singleton by default, and every hot site guards on
``tracer.enabled`` (one attribute load and a branch) before touching the
clock.  Coarse sites use the ``with tracer.span(...)`` form; the hottest
per-rotation sites use the explicit ``begin``/``try``/``finally``/``end``
form so the disabled path never allocates.

Timings are observational only: tracing must never change scheduling
decisions, and the golden parity suite pins traced runs bit-identical to
untraced ones.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

#: Version tag written into trace headers; bump on incompatible changes.
TRACE_SCHEMA = "repro.obs/trace/v1"


class SpanEvent:
    """One finished (or still-open) span.

    ``t0_ns`` is the start offset relative to the tracer's first span, so
    exported traces are replayable without wall-clock anchoring; ``dur_ns``
    is -1 while the span is open.
    """

    __slots__ = ("index", "parent", "depth", "name", "t0_ns", "dur_ns", "attrs")

    def __init__(
        self,
        index: int,
        parent: int,
        depth: int,
        name: str,
        t0_ns: int,
        attrs: Dict[str, Any],
        dur_ns: int = -1,
    ):
        self.index = index
        self.parent = parent
        self.depth = depth
        self.name = name
        self.t0_ns = t0_ns
        self.dur_ns = dur_ns
        self.attrs = attrs

    def __reduce__(self):
        # Constructor args instead of the default slots-state dict: forked
        # explore lanes pickle every span they send back.
        return (SpanEvent, (
            self.index, self.parent, self.depth, self.name, self.t0_ns,
            self.attrs, self.dur_ns,
        ))

    def shape(self) -> Tuple:
        """Timing-free identity: what determinism tests compare across runs."""
        return (
            self.index,
            self.parent,
            self.depth,
            self.name,
            tuple(sorted(self.attrs.items())),
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "i": self.index,
            "parent": self.parent,
            "depth": self.depth,
            "name": self.name,
            "t0_ns": self.t0_ns,
            "dur_ns": self.dur_ns,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanEvent({self.name!r}, depth={self.depth}, dur_ns={self.dur_ns})"


class _SpanCloser:
    """Shared context manager returned by :meth:`Tracer.span` — the span is
    already begun, so entering is a no-op and exiting pops it."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __enter__(self) -> "_SpanCloser":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer.end()
        return False


#: The running context's open spans, innermost first, as linked
#: ``(tracer, event, outer_link)`` tuples (``None`` when none is open).
_OPEN: ContextVar[Optional[Tuple]] = ContextVar("repro_obs_open_spans", default=None)
_get_open = _OPEN.get
_set_open = _OPEN.set


class Tracer:
    """Collects a span tree over one (or more) scheduling runs."""

    enabled = True

    def __init__(self, meta: Optional[Dict[str, Any]] = None, clock=time.perf_counter_ns):
        self.meta: Dict[str, Any] = dict(meta or {})
        self.events: List[SpanEvent] = []
        self._clock = clock
        self._t0: Optional[int] = None
        self._closer = _SpanCloser(self)

    # ------------------------------------------------------------------
    def begin(self, name: str, **attrs: Any) -> None:
        """Open a span; in this context it becomes the parent of spans
        begun before end()."""
        now = self._clock()
        if self._t0 is None:
            self._t0 = now
        head = link = _get_open()
        while link is not None and link[0] is not self:
            link = link[2]
        if link is None:
            ev = SpanEvent(len(self.events), -1, 0, name, now - self._t0, attrs)
        else:
            outer = link[1]
            ev = SpanEvent(len(self.events), outer.index, outer.depth + 1, name, now - self._t0, attrs)
        self.events.append(ev)
        _set_open((self, ev, head))

    def end(self) -> None:
        """Close this context's innermost open span of this tracer."""
        head = _get_open()
        if head is not None and head[0] is self:
            ev = head[1]
            _set_open(head[2])
        else:
            # Another tracer's spans opened inside ours: unlink ours alone.
            others = []
            link = head
            while link is not None and link[0] is not self:
                others.append(link)
                link = link[2]
            if link is None:
                raise IndexError("end() without an open span")
            ev, rest = link[1], link[2]
            for tracer, other, _ in reversed(others):
                rest = (tracer, other, rest)
            _set_open(rest)
        ev.dur_ns = (self._clock() - self._t0) - ev.t0_ns

    def span(self, name: str, **attrs: Any) -> _SpanCloser:
        """``with tracer.span("solve", graph="elliptic"): ...`` — begins the
        span immediately and returns a shared closer (no per-call object)."""
        self.begin(name, **attrs)
        return self._closer

    def annotate(self, **attrs: Any) -> None:
        """Add attributes to this context's innermost open span of this
        tracer (facts known only once the span's work has returned)."""
        link = _get_open()
        while link is not None and link[0] is not self:
            link = link[2]
        if link is None:
            raise IndexError("annotate() without an open span")
        link[1].attrs.update(attrs)

    def graft(self, other: "Tracer") -> None:
        """Append ``other``'s spans under this context's innermost open span
        of this tracer (as roots when none is open).

        Indices, parents and depths are renumbered, and start offsets are
        rebased from ``other``'s first span onto this tracer's.  That is
        exact when both read one monotonic clock: the default
        ``perf_counter_ns`` is system-wide, so a forked worker's tracer,
        pickled back, grafts onto its parent's.
        """
        if other._t0 is None:
            return
        if self._t0 is None:
            self._t0 = other._t0
        link = _get_open()
        while link is not None and link[0] is not self:
            link = link[2]
        parent, depth = (link[1].index, link[1].depth + 1) if link is not None else (-1, 0)
        base = len(self.events)
        shift = other._t0 - self._t0
        for ev in other.events:
            self.events.append(SpanEvent(
                ev.index + base, ev.parent + base if ev.parent >= 0 else parent,
                ev.depth + depth, ev.name, ev.t0_ns + shift, ev.attrs, ev.dur_ns,
            ))

    # ------------------------------------------------------------------
    @property
    def open_spans(self) -> int:
        """Spans begun and not yet ended, in any context."""
        return sum(1 for ev in self.events if ev.dur_ns < 0)

    def shape(self) -> Tuple:
        """Timing-free tree identity of every recorded span, in start order."""
        return tuple(ev.shape() for ev in self.events)

    def total_ns(self) -> int:
        """Duration covered by the root spans (depth 0)."""
        return sum(ev.dur_ns for ev in self.events if ev.depth == 0 and ev.dur_ns >= 0)


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    A single module-level instance (:data:`NULL`) is installed whenever no
    tracer is active, so instrumentation sites can unconditionally read
    ``active.enabled`` without None checks at coarse sites.
    """

    enabled = False
    __slots__ = ()

    def begin(self, name: str, **attrs: Any) -> None:
        pass

    def end(self) -> None:
        pass

    def span(self, name: str, **attrs: Any) -> "_NullSpan":
        return _NULL_SPAN

    def annotate(self, **attrs: Any) -> None:
        pass

    @property
    def open_spans(self) -> int:
        return 0


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()

#: The disabled-tracer singleton.
NULL = NullTracer()

#: The tracer instrumentation sites report to.  Hot sites read this module
#: attribute directly (``tracer.active``) and guard on ``.enabled``.
active: Union[Tracer, NullTracer] = NULL


def current() -> Union[Tracer, NullTracer]:
    """The currently active tracer (:data:`NULL` when tracing is off)."""
    return active


def activate(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the active tracer and return it."""
    global active
    active = tracer
    return tracer


def deactivate() -> None:
    """Restore the no-op singleton."""
    global active
    active = NULL


@contextmanager
def tracing(
    meta: Optional[Dict[str, Any]] = None, tracer: Optional[Tracer] = None
) -> Iterator[Tracer]:
    """Activate a tracer for the duration of a block::

        with tracing(meta={"graph": "elliptic"}) as tr:
            rotation_schedule(graph, model)
        write_trace(tr, "trace.jsonl")

    The previously active tracer (usually :data:`NULL`) is restored on
    exit, even on error, so nested tracing blocks compose.
    """
    global active
    tr = tracer if tracer is not None else Tracer(meta)
    prev = active
    active = tr
    try:
        yield tr
    finally:
        active = prev
