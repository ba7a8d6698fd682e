"""The unified metrics registry: counters, gauges and timers, one schema.

Every metrics producer in the repo — the flat engine, the QA fuzz
runner and serve — reports through this schema so downstream consumers
(the CLI, perfcheck) read one shape::

    {
      "schema": "repro.obs/metrics/v1",
      "source": "repro.core.flat.engine",
      "backend": "flat",                  # producers may add tags
      "counters": {"rotations": 1173, ...},
      "gauges":   {"memory_entries": 18, ...},
      "timers":   {"cell": {"count": 378, "total_s": 5.9,
                             "min_s": ..., "max_s": ...}, ...},
      "extras":   {"chain_tip_reuses": 1156, ...}   # per-source specifics
    }

``counters`` are monotonically increasing integers, ``gauges`` are
point-in-time values, ``timers`` accumulate wall-time observations, and
``extras`` holds source-specific counters that do not exist for every
producer (the flat backend's chain-tip protocol, the fuzz runner's shrink
steps) — split out so a consumer can tell shared semantics from
backend-specific ones without guessing from key names.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

#: Version tag embedded in every registry snapshot.
METRICS_SCHEMA = "repro.obs/metrics/v1"


class _TimerHandle:
    """Context manager that observes one interval into a timer stat."""

    __slots__ = ("_registry", "_name", "_t0")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_TimerHandle":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._registry.observe(self._name, time.perf_counter() - self._t0)
        return False


class MetricsRegistry:
    """One producer's counters/gauges/timers, snapshot-able as a dict."""

    def __init__(self, source: str = "", **tags: Any):
        self.source = source
        self.tags: Dict[str, Any] = dict(tags)
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, Any] = {}
        self.timers: Dict[str, Dict[str, float]] = {}
        self.extras: Dict[str, int] = {}

    # -- counters ------------------------------------------------------
    def inc(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def set_counter(self, name: str, value: int) -> None:
        self.counters[name] = value

    # -- extras (source-specific counters) -----------------------------
    def inc_extra(self, name: str, delta: int = 1) -> None:
        self.extras[name] = self.extras.get(name, 0) + delta

    def set_extra(self, name: str, value: int) -> None:
        self.extras[name] = value

    # -- gauges --------------------------------------------------------
    def gauge(self, name: str, value: Any) -> None:
        self.gauges[name] = value

    # -- timers --------------------------------------------------------
    def timer(self, name: str) -> _TimerHandle:
        """``with registry.timer("cell"): ...`` accumulates one observation."""
        return _TimerHandle(self, name)

    def observe(self, name: str, seconds: float) -> None:
        stat = self.timers.get(name)
        if stat is None:
            self.timers[name] = {
                "count": 1,
                "total_s": seconds,
                "min_s": seconds,
                "max_s": seconds,
            }
            return
        stat["count"] += 1
        stat["total_s"] += seconds
        if seconds < stat["min_s"]:
            stat["min_s"] = seconds
        if seconds > stat["max_s"]:
            stat["max_s"] = seconds

    # -- snapshot ------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """The self-describing snapshot (see module docstring for shape)."""
        out: Dict[str, Any] = {"schema": METRICS_SCHEMA, "source": self.source}
        out.update(self.tags)
        out["counters"] = dict(self.counters)
        out["gauges"] = dict(self.gauges)
        out["timers"] = {k: dict(v) for k, v in self.timers.items()}
        out["extras"] = dict(self.extras)
        return out

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's stats in (counters/extras add, gauges
        overwrite, timers combine observation streams)."""
        for k, v in other.counters.items():
            self.inc(k, v)
        for k, v in other.extras.items():
            self.inc_extra(k, v)
        self.gauges.update(other.gauges)
        for k, stat in other.timers.items():
            mine = self.timers.get(k)
            if mine is None:
                self.timers[k] = dict(stat)
                continue
            mine["count"] += stat["count"]
            mine["total_s"] += stat["total_s"]
            mine["min_s"] = min(mine["min_s"], stat["min_s"])
            mine["max_s"] = max(mine["max_s"], stat["max_s"])


def engine_metrics(
    stats: Dict[str, int],
    backend: str,
    source: str,
    extras: Optional[Dict[str, int]] = None,
) -> Dict[str, Any]:
    """Absorb an :class:`~repro.core.engine.EngineStats` snapshot into the
    unified schema.

    ``stats`` supplies the counters every backend shares; ``extras`` the
    backend-specific ones (the flat engine's chain-tip / wrap-interval /
    dirty-walk counters), kept apart so ``stats()`` consumers and metrics
    consumers agree on which semantics are portable across backends.
    """
    reg = MetricsRegistry(source, backend=backend)
    for k, v in stats.items():
        reg.set_counter(k, v)
    for k, v in (extras or {}).items():
        reg.set_extra(k, v)
    return reg.as_dict()


def render_metrics(snapshot: Dict[str, Any], indent: str = "  ") -> str:
    """Human-readable one-value-per-line rendering of a snapshot."""
    lines = [f"metrics [{snapshot.get('source', '?')}]"]
    for tag in sorted(
        k
        for k in snapshot
        if k not in ("schema", "source", "counters", "gauges", "timers", "extras")
    ):
        lines.append(f"{indent}{tag}: {snapshot[tag]}")
    for section in ("counters", "extras", "gauges"):
        for k in sorted(snapshot.get(section, ())):
            lines.append(f"{indent}{section[:-1]} {k} = {snapshot[section][k]}")
    for k in sorted(snapshot.get("timers", ())):
        stat = snapshot["timers"][k]
        lines.append(
            f"{indent}timer {k}: n={stat['count']} total={stat['total_s']:.4f}s "
            f"min={stat['min_s']:.4f}s max={stat['max_s']:.4f}s"
        )
    return "\n".join(lines)
