"""Service-pipeline tests: cache levels, coalescing, warm path, batching,
removed-backend errors, and the cached-vs-fresh differential oracle."""

from __future__ import annotations

import asyncio
import sys

import pytest

from repro.qa import GOLDEN_REQUESTS, check_serve_differential
from repro.serve import build_service, schedule_bits
from repro.serve.pool import _SESSIONS, InlinePool
from repro.serve.protocol import (
    canonical_request,
    parse_request,
    request_fingerprint,
    solve_canonical,
)

DIFFEQ = {"graph": {"benchmark": "diffeq"}, "config": "2A1M"}


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def service():
    svc = build_service(inline=True)
    yield svc
    svc.close()


class TestCacheLevels:
    def test_miss_then_memory_hit(self, service):
        first = run(service.solve(DIFFEQ))
        second = run(service.solve(DIFFEQ))
        assert first["cache"] == "solved"
        assert second["cache"] == "memory"
        assert first["result"] == second["result"]
        assert first["fingerprint"] == second["fingerprint"]

    def test_disk_hit_after_restart(self, tmp_path):
        store = str(tmp_path / "artifacts")
        svc1 = build_service(inline=True, artifacts=store)
        first = run(svc1.solve(DIFFEQ))
        svc1.close()
        svc2 = build_service(inline=True, artifacts=store)
        second = run(svc2.solve(DIFFEQ))
        svc2.close()
        assert second["cache"] == "disk"
        assert second["result"] == first["result"]

    def test_bad_request_is_an_error_envelope(self, service):
        out = run(service.solve({"graph": {"benchmark": "nope"}, "config": "2A1M"}))
        assert out["cache"] == "error" and "error" in out
        out = run(service.solve({"config": "2A1M"}))
        assert "missing 'graph'" in out["error"]["message"]
        assert service.metrics.as_dict()["counters"]["bad_requests"] == 2

    def test_solver_error_is_not_cached(self, service):
        # A zero-delay cycle fails inside the worker; the error must come
        # back structured and must NOT poison the cache.
        from repro.dfg.graph import DFG
        from repro.dfg import io as dfg_io

        g = DFG("zdc")
        g.add_node("a", "add")
        g.add_node("b", "add")
        g.add_edge("a", "b", 0)
        g.add_edge("b", "a", 0)
        payload = {"graph": dfg_io.to_json_dict(g), "config": "1A1M"}
        out = run(service.solve(payload))
        assert out["cache"] == "error"
        assert out["error"]["type"] == "ReproError"
        assert len(service.cache.memory) == 0


class TestSingleFlight:
    def test_concurrent_identical_requests_solve_once(self, service):
        async def burst():
            return await service.solve_many([DIFFEQ] * 6)

        envelopes = run(burst())
        levels = sorted(e["cache"] for e in envelopes)
        assert levels.count("solved") == 1
        assert levels.count("coalesced") == 5
        assert len({str(e["result"]) for e in envelopes}) == 1
        counters = service.metrics.as_dict()["counters"]
        assert counters["coalesced"] == 5 and counters["misses"] == 1

    def test_cohort_batching_shares_one_worker_call(self, service):
        # Same model+options, different graphs, same tick -> one cohort.
        burst = [
            {"graph": {"benchmark": b}, "config": "2A1M"}
            for b in ("diffeq", "biquad", "allpole")
        ]
        envelopes = run(service.solve_many(burst))
        assert all(e["cache"] == "solved" for e in envelopes)
        counters = service.metrics.as_dict()["counters"]
        assert counters["cohorts"] == 1
        assert counters["cohort_members"] == 3
        for payload, envelope in zip(burst, envelopes):
            fresh = solve_canonical(canonical_request(parse_request(payload)))
            assert schedule_bits(envelope["result"]) == schedule_bits(fresh)


class TestWarmPath:
    def test_edit_chain_repairs_in_place(self, service):
        _SESSIONS.clear()
        base = run(service.solve(DIFFEQ))
        edits1 = [{"edit": "set_delay", "src": 8, "dst": 10, "delay": 2}]
        warm1 = run(service.solve({**DIFFEQ, "base": base["fingerprint"],
                                   "edits": edits1}))
        assert warm1["result"]["session"] == {"repaired": False}  # cold build
        edits2 = edits1 + [{"edit": "add_edge", "src": 4, "dst": 9, "delay": 2}]
        warm2 = run(service.solve({**DIFFEQ, "base": warm1["fingerprint"],
                                   "edits": edits2}))
        assert warm2["result"]["session"]["repaired"] is True
        fresh = solve_canonical(canonical_request(parse_request(
            {**DIFFEQ, "edits": edits2}
        )))
        assert schedule_bits(warm2["result"]) == schedule_bits(fresh)

    def test_edit_chain_repairs_across_shards(self):
        """On a real two-shard pool, the second edit of a chain repairs on
        the worker that holds the session, even when the first edit's
        fingerprint hashes to the other shard."""
        from repro.serve.pool import ShardedPool

        shard_of = ShardedPool(workers=2).shard_of
        base_fp = request_fingerprint(DIFFEQ)
        edits1 = next(
            e for e in (
                [{"edit": "set_delay", "src": 8, "dst": 10, "delay": d}]
                for d in range(1, 64)
            )
            if shard_of(request_fingerprint({**DIFFEQ, "edits": e})) != shard_of(base_fp)
        )
        edits2 = edits1 + [{"edit": "add_edge", "src": 4, "dst": 9, "delay": 2}]

        async def main():
            svc = build_service(workers=2)
            try:
                base = await svc.solve(DIFFEQ)
                warm1 = await svc.solve({**DIFFEQ, "base": base["fingerprint"],
                                         "edits": edits1})
                warm2 = await svc.solve({**DIFFEQ, "base": warm1["fingerprint"],
                                         "edits": edits2})
                return warm1, warm2
            finally:
                svc.close()

        warm1, warm2 = run(main())
        assert warm1["result"]["session"] == {"repaired": False}  # first edit: cold
        assert warm2["result"]["session"]["repaired"] is True
        fresh = solve_canonical(canonical_request(parse_request(
            {**DIFFEQ, "edits": edits2}
        )))
        assert schedule_bits(warm2["result"]) == schedule_bits(fresh)

    def test_warm_fingerprint_matches_direct_request(self, service):
        # base is an acceleration hint, never a cache-key input.
        edits = [{"edit": "set_exec_time", "node": 3, "time": 2}]
        warm = run(service.solve({**DIFFEQ, "base": "0" * 64, "edits": edits}))
        assert warm["fingerprint"] == request_fingerprint({**DIFFEQ, "edits": edits})
        again = run(service.solve({**DIFFEQ, "edits": edits}))
        assert again["cache"] == "memory"
        assert schedule_bits(again["result"]) == schedule_bits(warm["result"])

    def test_prefix_mismatch_falls_back_cold_but_correct(self, service):
        _SESSIONS.clear()
        base = run(service.solve(DIFFEQ))
        warm1 = run(service.solve({
            **DIFFEQ, "base": base["fingerprint"],
            "edits": [{"edit": "add_edge", "src": 4, "dst": 9, "delay": 2}],
        }))
        # Different first edit: the resident session must not be reused.
        warm2 = run(service.solve({
            **DIFFEQ, "base": warm1["fingerprint"],
            "edits": [{"edit": "set_exec_time", "node": 3, "time": 3}],
        }))
        assert warm2["result"]["session"] == {"repaired": False}
        fresh = solve_canonical(canonical_request(parse_request({
            **DIFFEQ,
            "edits": [{"edit": "set_exec_time", "node": 3, "time": 3}],
        })))
        assert schedule_bits(warm2["result"]) == schedule_bits(fresh)


class TestNumpyDegradation:
    """Serving needs no numpy: with it unimportable, requests for the
    removed backends get a structured error and cohorts still solve as a
    sequential flat loop."""

    @pytest.fixture(autouse=True)
    def no_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)

    def test_vector_backend_request_degrades_to_structured_error(self, service):
        for backend in ("vector", "views"):
            out = run(service.solve({**DIFFEQ, "options": {"backend": backend}}))
            assert out["cache"] == "error"
            assert out["error"]["type"] == "ServeError"
            assert f"unknown backend {backend!r}" in out["error"]["message"]

    def test_cohort_falls_back_to_sequential_flat(self, service):
        burst = [
            {"graph": {"benchmark": b}, "config": "2A1M"}
            for b in ("diffeq", "biquad")
        ]
        envelopes = run(service.solve_many(burst))
        for payload, envelope in zip(burst, envelopes):
            assert "error" not in envelope
            fresh = solve_canonical(canonical_request(parse_request(payload)))
            assert schedule_bits(envelope["result"]) == schedule_bits(fresh)


class TestDifferentialOracle:
    def test_golden_cells_cached_equals_fresh(self, tmp_path):
        service = build_service(inline=True, artifacts=str(tmp_path / "a"))
        try:
            report = check_serve_differential(service, rounds=2)
        finally:
            service.close()
        assert report.ok, report.summary()
        assert report.requests == 2 * len(GOLDEN_REQUESTS)
        assert report.cache_levels.get("memory") == len(GOLDEN_REQUESTS)

    def test_oracle_catches_a_poisoned_cache(self, service):
        # Sanity-check the oracle itself: corrupt one cached entry and the
        # sweep must flag it.
        first = run(service.solve(DIFFEQ))
        poisoned = dict(first["result"])
        poisoned["length"] = poisoned["length"] + 1
        service.cache.memory.put(first["fingerprint"], poisoned)
        report = check_serve_differential(service, payloads=[DIFFEQ], rounds=1)
        assert not report.ok and report.mismatches


class TestStats:
    def test_hit_rate_and_shape(self, service):
        run(service.solve(DIFFEQ))
        run(service.solve(DIFFEQ))
        stats = service.stats()
        assert stats["hit_rate"] == 0.5
        assert stats["workers"] == 1 and stats["worker_crashes"] == 0
        assert stats["cache"]["memory"]["size"] == 1
        assert stats["metrics"]["source"] == "repro.serve"
