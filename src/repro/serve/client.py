"""Blocking client + load generator for the scheduling service.

:class:`ServeClient` speaks the ``repro.serve/v1`` HTTP/JSON protocol
over a persistent ``http.client`` connection (stdlib only, keep-alive).
:func:`run_loadgen` drives a workload through N client threads and
reports latency percentiles, cache-level mix and solves/sec.
"""

from __future__ import annotations

import http.client
import json
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.serve.protocol import ServeError


class ServeClient:
    """A persistent HTTP/JSON connection to one serve daemon."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8347, timeout: float = 120.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def _request(self, method: str, path: str, payload: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
                data = resp.read()
                return json.loads(data.decode("utf-8"))
            except (http.client.HTTPException, ConnectionError, OSError):
                # One transparent reconnect (the server may have dropped an
                # idle keep-alive connection); then give up loudly.
                self.close()
                if attempt:
                    raise
        raise ServeError("unreachable")  # pragma: no cover

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def solve(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        return self._request("POST", "/solve", payload)

    def solve_batch(self, payloads: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
        out = self._request("POST", "/solve/batch", {"requests": list(payloads)})
        if "error" in out:
            raise ServeError(out["error"].get("message", "batch request failed"))
        return out["responses"]

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None


# ----------------------------------------------------------------------
# workloads + load generation
# ----------------------------------------------------------------------
def demo_workload(
    benchmarks: Sequence[str] = ("diffeq", "biquad", "allpole"),
    configs: Sequence[str] = ("2A1M", "2A1Mp"),
    repeats: int = 8,
    heuristic: str = "h2",
) -> List[Dict[str, Any]]:
    """A deterministic repeated-graph workload: each (benchmark, config)
    cell appears ``repeats`` times, round-robin interleaved so identical
    requests arrive both back-to-back (single-flight territory) and far
    apart (cache-hit territory)."""
    cells = [
        {
            "graph": {"benchmark": bench},
            "config": config,
            "options": {"heuristic": heuristic},
        }
        for bench in benchmarks
        for config in configs
    ]
    return [cells[i % len(cells)] for i in range(repeats * len(cells))]


@dataclass
class LoadgenReport:
    """Aggregate verdict of one load-generation run."""

    requests: int = 0
    errors: int = 0
    seconds: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    cache_levels: Dict[str, int] = field(default_factory=dict)
    #: Per-cache-tier latency attribution: every successful request's
    #: latency, keyed by the cache level that served it — so warm-path
    #: wins (memory/disk hits vs fresh solves) show up as numbers, not
    #: just counts.
    level_latencies_ms: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def solves_per_sec(self) -> float:
        return self.requests / self.seconds if self.seconds > 0 else 0.0

    @property
    def hit_rate(self) -> float:
        hits = sum(
            self.cache_levels.get(k, 0) for k in ("memory", "disk", "coalesced")
        )
        return hits / self.requests if self.requests else 0.0

    def percentile(self, q: float, latencies: Optional[List[float]] = None) -> float:
        """Latency percentile in milliseconds (nearest-rank); pass a
        per-tier list from ``level_latencies_ms`` to attribute by tier."""
        sample = self.latencies_ms if latencies is None else latencies
        if not sample:
            return 0.0
        ordered = sorted(sample)
        rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    def tier_summary(self) -> str:
        """Per-cache-tier latency attribution, one clause per tier."""
        if not self.level_latencies_ms:
            return "no per-tier data"
        clauses = []
        for level in sorted(self.level_latencies_ms):
            sample = self.level_latencies_ms[level]
            clauses.append(
                f"{level} n={len(sample)} "
                f"p50={self.percentile(50, sample):.1f}ms "
                f"max={max(sample):.1f}ms"
            )
        return ", ".join(clauses)

    def summary(self) -> str:
        return (
            f"{self.requests} requests in {self.seconds:.3f}s "
            f"({self.solves_per_sec:.1f} solves/sec), "
            f"hit rate {self.hit_rate:.0%}, "
            f"p50 {self.percentile(50):.1f}ms, p99 {self.percentile(99):.1f}ms, "
            f"{self.errors} error(s); levels {dict(sorted(self.cache_levels.items()))}; "
            f"tiers: {self.tier_summary()}"
        )


def run_loadgen(
    host: str = "127.0.0.1",
    port: int = 8347,
    workload: Optional[Sequence[Mapping[str, Any]]] = None,
    concurrency: int = 4,
) -> LoadgenReport:
    """Drive ``workload`` through ``concurrency`` client threads."""
    payloads = list(workload if workload is not None else demo_workload())
    jobs: "queue.Queue" = queue.Queue()
    for p in payloads:
        jobs.put(p)
    report = LoadgenReport(requests=len(payloads))
    lock = threading.Lock()

    def worker() -> None:
        client = ServeClient(host, port)
        try:
            while True:
                try:
                    payload = jobs.get_nowait()
                except queue.Empty:
                    return
                t0 = time.perf_counter()
                try:
                    envelope = client.solve(payload)
                except Exception:
                    envelope = {"error": {"type": "ClientError"}}
                latency = (time.perf_counter() - t0) * 1000.0
                with lock:
                    report.latencies_ms.append(latency)
                    if "error" in envelope:
                        report.errors += 1
                    else:
                        level = envelope.get("cache", "?")
                        report.cache_levels[level] = report.cache_levels.get(level, 0) + 1
                        report.level_latencies_ms.setdefault(level, []).append(latency)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(max(1, concurrency))]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    report.seconds = time.perf_counter() - t0
    return report
