"""repro.obs — observability for the rotation-scheduling pipeline.

Four pieces, all stdlib-only:

* :mod:`repro.obs.tracer` — nested span tracing with a no-op default
  (:data:`~repro.obs.tracer.NULL`) so permanent instrumentation sites
  cost nearly nothing when tracing is off.
* :mod:`repro.obs.metrics` — the unified counters/gauges/timers/extras
  schema every producer (flat engine, fuzz runner, serve) reports
  through; explore reports through the span tracer instead.
* :mod:`repro.obs.export` / :mod:`repro.obs.profile` — JSONL trace
  round-tripping, structural validation, and the self-vs-cumulative
  per-span profile report.
* :mod:`repro.obs.perfcheck` — the perf-regression gate: one tier
  table replaying the cells pinned in ``PERF_PINS.json``, timed in
  reference-ms (wall time scaled by the frozen kernel of
  ``perfbench/common.py``); ``rotsched perfcheck --record`` rewrites it.
"""

from repro._exports import export as _export

__all__ = _export(__name__, {
    ".export": "Trace TraceError parse_trace read_trace validate_trace write_trace",
    ".metrics": "METRICS_SCHEMA MetricsRegistry engine_metrics render_metrics",
    ".perfcheck": (
        "MIN_EXPLORE_SPEEDUP MIN_REPAIR_SPEEDUP MIN_SERVE_SPEEDUP PINS_FILE TIERS "
        "PerfReport Tier record_perfcheck run_perfcheck"
    ),
    ".profile": "Profile ProfileRow aggregate profile_of render_profile",
    ".tracer": (
        "NULL TRACE_SCHEMA NullTracer SpanEvent Tracer activate current deactivate tracing"
    ),
})
