"""repro.obs — observability for the rotation-scheduling pipeline.

Four pieces, all stdlib-only:

* :mod:`repro.obs.tracer` — nested span tracing with a no-op default
  (:data:`~repro.obs.tracer.NULL`) so permanent instrumentation sites
  cost nearly nothing when tracing is off.
* :mod:`repro.obs.metrics` — the unified counters/gauges/timers/extras
  schema every producer (flat engine, fuzz runner, serve, explore) reports
  through.
* :mod:`repro.obs.export` / :mod:`repro.obs.profile` — JSONL trace
  round-tripping, structural validation, and the self-vs-cumulative
  per-span profile report.
* :mod:`repro.obs.perfcheck` — the perf-regression gate: one tier
  table replaying the cells pinned in ``PERF_PINS.json``, timed in
  reference-ms (wall time scaled by the frozen kernel of
  ``perfbench/common.py``); ``rotsched perfcheck --record`` rewrites it.
"""

from repro.obs.export import Trace, TraceError, parse_trace, read_trace, validate_trace, write_trace
from repro.obs.metrics import (
    EXPLORE_COUNTERS,
    EXPLORE_RECORD,
    METRICS_SCHEMA,
    MetricsRegistry,
    engine_metrics,
    explore_metrics,
    render_metrics,
)
from repro.obs.perfcheck import (
    MIN_EXPLORE_SPEEDUP,
    MIN_REPAIR_SPEEDUP,
    MIN_SERVE_SPEEDUP,
    PINS_FILE,
    TIERS,
    PerfReport,
    Tier,
    record_perfcheck,
    run_perfcheck,
)
from repro.obs.profile import Profile, ProfileRow, aggregate, profile_of, render_profile
from repro.obs.tracer import (
    NULL,
    TRACE_SCHEMA,
    NullTracer,
    SpanEvent,
    Tracer,
    activate,
    current,
    deactivate,
    tracing,
)

__all__ = [
    "NULL",
    "METRICS_SCHEMA",
    "TRACE_SCHEMA",
    "MIN_EXPLORE_SPEEDUP",
    "MIN_REPAIR_SPEEDUP",
    "MIN_SERVE_SPEEDUP",
    "PINS_FILE",
    "TIERS",
    "Tier",
    "MetricsRegistry",
    "NullTracer",
    "PerfReport",
    "Profile",
    "ProfileRow",
    "SpanEvent",
    "Trace",
    "TraceError",
    "Tracer",
    "activate",
    "aggregate",
    "current",
    "deactivate",
    "engine_metrics",
    "explore_metrics",
    "EXPLORE_COUNTERS",
    "EXPLORE_RECORD",
    "parse_trace",
    "profile_of",
    "read_trace",
    "render_metrics",
    "render_profile",
    "record_perfcheck",
    "run_perfcheck",
    "tracing",
    "validate_trace",
    "write_trace",
]
