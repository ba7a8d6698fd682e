"""Differential oracle for the scheduling service.

The serve cache promises that a cached answer is *bit-identical* to a
fresh solve of the same fingerprint.  :func:`check_serve_differential`
enforces that promise end to end: drive a set of requests through a live
:class:`~repro.serve.server.SchedulingService` twice (miss, then hit) and
compare each envelope's schedule bits against an independent in-process
``solve_canonical`` of the same canonical form.

Used three ways:

* ``tests/serve/test_oracle.py`` — golden cells, every cache level;
* ``rotsched gate`` serve smoke tier — in-process burst + oracle;
* ad hoc, against any workload the loadgen can produce.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.serve.protocol import (
    canonical_request,
    fingerprint,
    parse_request,
    request_fingerprint,
    schedule_bits,
    solve_canonical,
)

_DIFFEQ = {"graph": {"benchmark": "diffeq"}, "config": "2A1M"}

#: The golden serve cells: every benchmark x config pair the paper tables
#: pin, expressed as wire requests.  Small enough to solve fresh in the
#: gate, broad enough to cover both heuristics and pipelined mults.  The
#: last two are a key-order-permuted twin (one fingerprint-memo entry)
#: and a warm-path ``base`` + ``edits`` request.
GOLDEN_REQUESTS: List[Dict[str, Any]] = [
    _DIFFEQ,
    {"graph": {"benchmark": "diffeq"}, "config": "2A1Mp"},
    {"graph": {"benchmark": "biquad"}, "config": "2A1M",
     "options": {"heuristic": "h1"}},
    {"graph": {"benchmark": "allpole"}, "config": "2A1M"},
    {"graph": {"benchmark": "lattice"}, "config": "2A1Mp",
     "options": {"priority": "height"}},
    {"options": {"priority": "height"}, "config": "2A1Mp",
     "graph": {"benchmark": "lattice"}},
    {**_DIFFEQ, "base": request_fingerprint(_DIFFEQ),
     "edits": [{"edit": "set_delay", "src": 8, "dst": 10, "delay": 2}]},
]


@dataclass
class ServeOracleReport:
    """Verdict of one differential sweep."""

    requests: int = 0
    mismatches: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    cache_levels: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.errors

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        return (
            f"serve oracle {verdict}: {self.requests} request(s), "
            f"{len(self.mismatches)} mismatch(es), {len(self.errors)} error(s); "
            f"levels {dict(sorted(self.cache_levels.items()))}"
        )


def check_envelope(payload: Mapping[str, Any], envelope: Mapping[str, Any]) -> Optional[str]:
    """One envelope vs an independent fresh solve; a fault string or ``None``."""
    if "error" in envelope:
        return f"error envelope: {envelope['error']}"
    canonical = canonical_request(parse_request(payload))
    fp = fingerprint(canonical)
    if envelope.get("fingerprint") != fp:
        return f"fingerprint drift: server {envelope.get('fingerprint')!r} != client {fp!r}"
    fresh = solve_canonical(canonical)
    got = schedule_bits(envelope["result"])
    want = schedule_bits(fresh)
    if got != want:
        return f"cached != fresh for {fp[:12]} (level {envelope.get('cache')!r})"
    return None


def check_serve_differential(
    service,
    payloads: Optional[Sequence[Mapping[str, Any]]] = None,
    rounds: int = 2,
) -> ServeOracleReport:
    """Drive ``payloads`` through ``service`` ``rounds`` times; verify each.

    Round 1 exercises the miss path, later rounds the hit path — each
    envelope is compared bit-for-bit against an in-process fresh solve, so
    a stale or collided cache entry cannot hide behind a fast answer.
    """
    requests = list(payloads if payloads is not None else GOLDEN_REQUESTS)
    report = ServeOracleReport()

    async def sweep() -> None:
        for _ in range(max(1, rounds)):
            envelopes = await service.solve_many(requests)
            for payload, envelope in zip(requests, envelopes):
                report.requests += 1
                level = envelope.get("cache", "?")
                report.cache_levels[level] = report.cache_levels.get(level, 0) + 1
                fault = check_envelope(payload, envelope)
                if fault is None:
                    continue
                if "error envelope" in fault:
                    report.errors.append(fault)
                else:
                    report.mismatches.append(fault)

    asyncio.run(sweep())
    return report
