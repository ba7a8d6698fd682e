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
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.qa.oracles import check_lower_bound, check_modulo
from repro.schedule.verify import check_schedule
from repro.serve.protocol import (
    canonical_request,
    fingerprint,
    parse_request,
    request_fingerprint,
    schedule_bits,
    schedule_from_payload,
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


#: A sequential edit chain from a stored base: the first edit's repair is
#: seeded from the base's stored answer, the second repairs the session
#: the first left resident (one ``set_resource_counts`` edit: the model is
#: an edit like any other).
WARM_CHAIN_BASE: Dict[str, Any] = {"graph": {"benchmark": "elliptic"}, "config": "3A2M"}
WARM_CHAIN_EDITS: List[Dict[str, Any]] = [
    {"edit": "set_delay", "src": "c12", "dst": "h1", "delay": 1},
    {"edit": "set_resource_counts", "counts": {"mult": 1}},
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


def check_repaired(payload: Mapping[str, Any], envelope: Mapping[str, Any]) -> Optional[str]:
    """One warm answer certified by legality, not bits (a repair need not
    equal a fresh solve): :func:`~repro.schedule.verify.check_schedule`
    under the returned retiming, modulo legality at the returned length,
    and length >= the combined lower bound (skipped once an edit sets an
    explicit node time, as :mod:`repro.qa.incremental` does); a fault
    string or ``None``."""
    if "error" in envelope:
        return f"error envelope: {envelope['error']}"
    request = parse_request(payload)
    graph, model, result = request.graph, request.model, envelope["result"]
    schedule, retiming = schedule_from_payload(graph, model, result)
    problems = check_schedule(schedule, retiming)
    if not any(graph.explicit_time(v) is not None for v in graph.nodes):
        problems += [str(f) for f in check_lower_bound(graph, model, result["length"])]
    problems += [
        str(f) for f in check_modulo(graph, model, schedule.start_map, result["length"], retiming)
    ]
    if problems:
        return f"illegal warm answer for {envelope.get('fingerprint', '?')[:12]}: {problems[0]}"
    return None


def check_warm_chain(service) -> Tuple[List[str], List[str]]:
    """Solve :data:`WARM_CHAIN_BASE`, then each cumulative prefix of
    :data:`WARM_CHAIN_EDITS` naming the previous answer as ``base``, one
    request at a time; ``(warm paths, faults)``, certifying every warm
    answer with :func:`check_repaired`."""
    paths: List[str] = []
    faults: List[str] = []

    async def chain() -> None:
        envelope = await service.solve(WARM_CHAIN_BASE)
        if "error" in envelope:
            faults.append(f"base: error envelope: {envelope['error']}")
            return
        for k in range(1, len(WARM_CHAIN_EDITS) + 1):
            payload = {**WARM_CHAIN_BASE, "base": envelope["fingerprint"],
                       "edits": WARM_CHAIN_EDITS[:k]}
            envelope = await service.solve(payload)
            fault = check_repaired(payload, envelope)
            if fault is not None:
                faults.append(f"edit {k}: {fault}")
                return
            paths.append(envelope["result"]["session"]["warm"])

    asyncio.run(chain())
    return paths, faults
