"""The traced run: spans around every call into a layer, folded into the
per-layer table.

The benchmark's own spans are named ``bench.<call>``; the program's
spans (``solve``, ``kernel.*``, ``rotate.*`` ...) nest under them when
the program runs in this process.  Both are folded into self time per
name with :func:`repro.obs.profile.aggregate`.

Core, session, bound and protocol work of the serve daemon and of the
explorer's pool happens in other processes, out of reach of this
process's tracer.  So every traced run ends with an *attribution pass*:
the layers' public entry points are called here, on the workload's own
distinct inputs, each under a ``bench.*`` span.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List

from repro.bounds.lower_bounds import combined_lower_bound
from repro.core.scheduler import rotation_schedule
from repro.core.session import open_session
from repro.dfg.iteration_bound import iteration_bound
from repro.explore.bounds import cell_bound, clear_caches
from repro.obs import tracer as obs
from repro.obs.profile import aggregate
from repro.obs.tracer import SpanEvent
from repro.schedule.list_scheduler import full_schedule
from repro.serve.protocol import canonical_request, fingerprint, parse_request

from edits import edit_stream

#: Program span names folded into each core row (self time).
CORE_SPANS = {
    "core.list_schedule_ms": ("kernel.list_schedule", "list_schedule"),
    "core.wrap_period_ms": ("kernel.wrap_period", "wrap_period"),
    "core.rotate_ms": ("rotate.down", "rotate.up", "kernel.latest_fit", "latest_fit"),
    "core.priority_ms": ("kernel.priority_columns", "flat.derive"),
    "core.depth_reduction_ms": ("depth_reduction",),
}
#: Engine counters (``RotationResult.engine_metrics``), per solve.
ENGINE_COUNTERS = (
    "view_derives", "priority_full_rebuilds", "edges_rescanned",
    "grid_released_slots",
)
ENGINE_EXTRAS = ("chain_tip_reuses", "dirty_walk_aborts")
SERVE_TIERS = ("memory", "disk", "coalesced", "solved", "warm")
EXPLORE_COUNTERS = (
    "cells_solved", "pruned_bound", "pruned_dominated", "seeded_warm",
    "dedup_hits", "steal_count", "rounds",
)
#: Inputs the attribution pass visits (the first ones, in input order).
ATTRIBUTION_CAP = 16


class AttributionInput:
    """One distinct input: a graph factory, its model and request form."""

    def __init__(self, build, model, heuristic: str, payload: Dict[str, Any],
                 cellspec=None):
        self.build = build
        self.model = model
        self.heuristic = heuristic
        self.payload = payload
        self.cellspec = cellspec


class Engine:
    """Engine and session counters summed over a workload."""

    def __init__(self) -> None:
        self.solves = 0
        self.counters: Dict[str, int] = {}
        self.repairs = 0
        self.invalidated = 0
        self.kept = 0
        self.recompiles = 0

    def add_solve(self, result) -> None:
        self.solves += 1
        m = result.engine_metrics or {}
        for k, v in {**m.get("counters", {}), **m.get("extras", {})}.items():
            self.counters[k] = self.counters.get(k, 0) + v

    def add_session(self, session) -> None:
        m = session.metrics
        self.repairs += m["repairs"]
        self.invalidated += m["nodes_invalidated"]
        self.kept += m["nodes_kept"]
        self.recompiles += m["engine_recompiles"]


def attribute(inputs: Iterable[AttributionInput], engine: Engine, seed: int) -> None:
    """Call each layer's entry point on the inputs, under ``bench.*`` spans.

    Must run with a tracer active; the spans carry the measurements.
    """
    tr = obs.current()
    rng = random.Random(seed)
    for item in list(inputs)[:ATTRIBUTION_CAP]:
        graph = item.build()
        model = item.model
        with tr.span("bench.iteration_bound"):
            iteration_bound(graph, model.timing())
        with tr.span("bench.combined_lower_bound"):
            combined_lower_bound(graph, model)
        with tr.span("bench.full_schedule"):
            full_schedule(graph, model)
        with tr.span("bench.protocol"):
            with tr.span("bench.parse_request"):
                request = parse_request(item.payload)
            with tr.span("bench.canonical_request"):
                canonical = canonical_request(request)
            with tr.span("bench.fingerprint"):
                fingerprint(canonical)
        if item.cellspec is not None:
            clear_caches()
            with tr.span("bench.cell_bound"):
                cell_bound(item.cellspec)
        with tr.span("bench.rotation_schedule"):
            result = rotation_schedule(graph, model, item.heuristic)
        engine.add_solve(result)
        with tr.span("bench.open_session"):
            session = open_session(graph, model, heuristic=item.heuristic)
            session.resolve()
        edit = next(edit_stream(graph, model, rng))
        with tr.span("bench.apply_edit"):
            session.apply_edit(edit)
        with tr.span("bench.resolve"):
            session.resolve()
        engine.add_session(session)


def merged(event_lists) -> List[SpanEvent]:
    """The events of several tracers as one list (indices renumbered),
    so they fold together."""
    out: List[SpanEvent] = []
    for events in event_lists:
        off = len(out)
        for ev in events:
            out.append(SpanEvent(ev.index + off, ev.parent + off if ev.parent >= 0 else -1,
                                 ev.depth, ev.name, ev.t0_ns, ev.attrs, ev.dur_ns))
    return out


def _descends_from(events, names) -> List[bool]:
    """Per event: is it inside a span named one of ``names``?"""
    inside = [False] * len(events)
    for ev in events:  # parents precede children
        if ev.parent >= 0:
            parent = events[ev.parent]
            inside[ev.index] = inside[ev.parent] or parent.name in names
    return inside


def table(
    events,
    engine: Engine,
    workload: Dict[str, float],
) -> Dict[str, float]:
    """The per-layer values, from the trace, the counters and the
    workload's own figures (``workload`` supplies the rows only it can
    measure, such as serve tiers and explore counters)."""
    prof = aggregate(events)
    rows = prof.rows

    def calls(name: str) -> int:
        row = rows.get(name)
        return row.calls if row else 0

    def mean_cum_ms(*names: str) -> float:
        n = sum(calls(x) for x in names) or 1
        return sum(rows[x].cum_ns for x in names if x in rows) / 1e6 / n

    # Core self time, only inside cold solves (not session repairs).
    in_solve = _descends_from(events, ("bench.rotation_schedule",))
    solves = calls("bench.rotation_schedule") or 1
    child_ns = [0] * len(events)
    for ev in events:
        if ev.parent >= 0 and ev.dur_ns > 0:
            child_ns[ev.parent] += ev.dur_ns
    core_self: Dict[str, int] = {}
    for ev in events:
        if in_solve[ev.index]:
            core_self[ev.name] = core_self.get(ev.name, 0) + max(
                ev.dur_ns - child_ns[ev.index], 0
            )
    out: Dict[str, float] = {}
    out["dfg.iteration_bound_ms"] = mean_cum_ms("bench.iteration_bound")
    out["bounds.lower_bound_ms"] = mean_cum_ms("bench.combined_lower_bound")
    out["schedule.initial_ms"] = mean_cum_ms("bench.full_schedule")
    out["serve.protocol_ms"] = mean_cum_ms("bench.protocol")
    out["explore.bound_ms"] = mean_cum_ms("bench.cell_bound")
    rotations = engine.counters.get("rotations", 0)
    out["core.rotations"] = rotations / max(engine.solves, 1)
    solve_ns = rows["bench.rotation_schedule"].cum_ns if "bench.rotation_schedule" in rows else 0
    out["core.us_per_rotation"] = solve_ns / 1e3 / max(rotations, 1)
    for metric, names in CORE_SPANS.items():
        out[metric] = sum(core_self.get(n, 0) for n in names) / 1e6 / solves
    for k in ENGINE_COUNTERS + ENGINE_EXTRAS:
        out[f"engine.{k}"] = engine.counters.get(k, 0) / max(engine.solves, 1)
    out["session.apply_edit_ms"] = mean_cum_ms("bench.apply_edit")
    out["session.resolve_ms"] = mean_cum_ms("bench.resolve")
    touched = engine.invalidated + engine.kept
    out["session.invalidated_share"] = engine.invalidated / touched if touched else 0.0
    out["session.recompiles"] = engine.recompiles / max(engine.repairs, 1)
    for tier in SERVE_TIERS:
        out[f"serve.hit_share.{tier}"] = 0.0
        out[f"serve.tier_p50_x.{tier}"] = 0.0
    for k in ("serve.transport_share", "serve.cohorts", "serve.cohort_members",
              "serve.worker_crashes", "serve.warm_fallback_share", "explore.solved_share",
              "explore.cell_solve_share"):
        out[k] = 0.0
    for k in EXPLORE_COUNTERS:
        out[f"explore.{k}"] = 0.0
    out.update(workload)
    return out

