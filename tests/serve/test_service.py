"""Service-pipeline tests: cache levels, the fingerprint memo, coalescing,
shard routing, per-request span trees, warm path, removed-backend errors,
and the cached-vs-fresh differential oracle."""

from __future__ import annotations

import asyncio
import sys

import pytest

from repro.obs import tracing
from repro.qa import GOLDEN_REQUESTS, check_repaired, check_serve_differential
from repro.serve import build_service, schedule_bits
from repro.serve import server as server_mod
from repro.serve.pool import _SESSIONS, SESSION_CAP, InlinePool, ShardedPool
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

    @pytest.mark.parametrize("key", ["beta", "sigma", "clock", "cap", "unfold", "chain_rotations"])
    @pytest.mark.parametrize("value", ["x", [1]])
    def test_non_integer_option_is_a_serve_error(self, service, key, value):
        out = run(service.solve({**DIFFEQ, "options": {key: value}}))
        assert out["cache"] == "error"
        assert out["error"]["type"] == "ServeError"
        assert repr(key) in out["error"]["message"]

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


class TestFingerprintMemo:
    @pytest.fixture
    def parses(self, monkeypatch):
        """Count the service's ``parse_request`` calls."""
        calls = []
        real = server_mod.parse_request

        def counting(payload):
            calls.append(payload)
            return real(payload)

        monkeypatch.setattr(server_mod, "parse_request", counting)
        return calls

    def test_repeat_skips_the_parse(self, service, parses):
        first = run(service.solve(DIFFEQ))
        second = run(service.solve(DIFFEQ))
        assert (first["cache"], second["cache"]) == ("solved", "memory")
        assert second["fingerprint"] == first["fingerprint"] == request_fingerprint(DIFFEQ)
        assert schedule_bits(second["result"]) == schedule_bits(first["result"])
        assert len(parses) == 1
        counters = service.metrics.as_dict()["counters"]
        assert counters["fp_memo_misses"] == 1 and counters["fp_memo_hits"] == 1

    def test_key_order_permutation_shares_the_entry(self, service, parses):
        payload = {"options": {"cap": 8, "heuristic": "h1"}, "config": "2A1M",
                   "graph": {"benchmark": "diffeq"}}
        twin = {"graph": {"benchmark": "diffeq"}, "config": "2A1M",
                "options": {"heuristic": "h1", "cap": 8}}
        first = run(service.solve(payload))
        second = run(service.solve(twin))
        assert second["cache"] == "memory"
        assert second["fingerprint"] == first["fingerprint"]
        assert len(service.fp_memo) == 1 and len(parses) == 1

    def test_parse_errors_are_not_memoized(self, service, parses):
        bad = {"graph": {"benchmark": "nope"}, "config": "2A1M"}
        outs = [run(service.solve(bad)) for _ in range(2)]
        assert all(o["cache"] == "error" and "error" in o for o in outs)
        assert service.metrics.as_dict()["counters"]["bad_requests"] == 2
        assert len(service.fp_memo) == 0 and len(parses) == 2

    def test_object_payload_bypasses_the_memo(self, service, parses):
        from repro.suite.registry import get_benchmark

        payload = {"graph": get_benchmark("diffeq"), "config": "2A1M"}
        first = run(service.solve(payload))
        second = run(service.solve(payload))
        assert (first["cache"], second["cache"]) == ("solved", "memory")
        assert first["fingerprint"] == request_fingerprint(DIFFEQ)
        assert len(service.fp_memo) == 0 and len(parses) == 2
        counters = service.metrics.as_dict()["counters"]
        assert "fp_memo_hits" not in counters and "fp_memo_misses" not in counters

    def test_oracle_catches_a_poisoned_memo_entry(self, service):
        other = {"graph": {"benchmark": "biquad"}, "config": "2A1M"}
        run(service.solve(DIFFEQ))
        wrong = run(service.solve(other))["fingerprint"]
        service.fp_memo.put(server_mod._memo_key(DIFFEQ), wrong)
        report = check_serve_differential(service, payloads=[DIFFEQ], rounds=1)
        assert not report.ok
        assert any("fingerprint drift" in m for m in report.mismatches)

    def test_stale_entry_never_dispatches_under_its_fingerprint(self, service):
        # A memo entry naming an uncached fingerprint sends the request
        # down the parse path, which answers under the parsed fingerprint
        # and replaces the entry.
        service.fp_memo.put(server_mod._memo_key(DIFFEQ), "0" * 64)
        out = run(service.solve(DIFFEQ))
        assert out["cache"] == "solved"
        assert out["fingerprint"] == request_fingerprint(DIFFEQ)
        assert service.fp_memo.get(server_mod._memo_key(DIFFEQ)) == out["fingerprint"]
        assert "0" * 64 not in service.cache.memory

    def test_parse_span_only_on_the_parse_path(self, service):
        with tracing() as tr:
            run(service.solve(DIFFEQ))
            run(service.solve(DIFFEQ))
        names = [e.name for e in tr.events]
        assert names.count("serve.request") == 2
        assert names.count("serve.parse") == 1


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


class RecordingPool:
    """Two shards, run in-process, recording each ``submit`` call."""

    workers = 2
    crashes = 0
    shard_of = ShardedPool.shard_of

    def __init__(self):
        self.calls = []

    async def submit(self, shard, fn, *args):
        self.calls.append((shard, fn.__name__, args[0]))
        return await InlinePool().submit(shard, fn, *args)

    def shutdown(self):
        pass


class TestRouting:
    def test_concurrent_misses_submit_to_their_own_shard(self):
        # Same model and options, different graphs, one tick: each miss is
        # its own worker call on the shard of its own fingerprint.
        burst = [
            {"graph": {"benchmark": b}, "config": "2A1M"}
            for b in ("diffeq", "allpole", "biquad")
        ]
        pool = RecordingPool()
        service = server_mod.SchedulingService(pool=pool)
        envelopes = run(service.solve_many(burst))
        assert all(e["cache"] == "solved" for e in envelopes)
        fps = [e["fingerprint"] for e in envelopes]
        assert sorted(pool.calls) == sorted(
            (pool.shard_of(fp), "solve_one", fp) for fp in fps
        )
        assert {shard for shard, _, _ in pool.calls} == {0, 1}
        for payload, envelope in zip(burst, envelopes):
            fresh = solve_canonical(canonical_request(parse_request(payload)))
            assert schedule_bits(envelope["result"]) == schedule_bits(fresh)


class TestTracing:
    def test_concurrent_misses_give_one_tree_per_request(self, service):
        burst = [
            {"graph": {"benchmark": b}, "config": "2A1M"}
            for b in ("diffeq", "biquad")
        ]
        with tracing() as tr:
            run(service.solve_many(burst))
        assert tr.open_spans == 0
        roots = [e for e in tr.events if e.parent == -1]
        assert [e.name for e in roots] == ["serve.request", "serve.request"]

        def root_of(ev):
            while ev.parent != -1:
                ev = tr.events[ev.parent]
            return ev.index

        solves = [e for e in tr.events if e.name == "serve.solve"]
        assert sorted(root_of(e) for e in solves) == sorted(e.index for e in roots)
        for ev in tr.events:
            if ev.parent != -1:
                assert ev.depth == tr.events[ev.parent].depth + 1

    def test_one_store_span_per_miss_and_none_per_hit(self, tmp_path):
        store = str(tmp_path / "artifacts")
        svc = build_service(inline=True, artifacts=store)
        with tracing() as tr:
            run(svc.solve(DIFFEQ))                                     # miss
            run(svc.solve(DIFFEQ))                                     # memory
            run(svc.solve({**DIFFEQ, "options": {"heuristic": "h1"}}))  # miss
        svc.close()
        names = [e.name for e in tr.events]
        assert names.count("serve.request") == 3
        assert names.count("serve.store") == 2
        solves = {e.index for e in tr.events if e.name == "serve.solve"}
        assert all(e.parent in solves for e in tr.events if e.name == "serve.store")

        restarted = build_service(inline=True, artifacts=store)
        with tracing() as tr:
            out = run(restarted.solve(DIFFEQ))
        restarted.close()
        assert out["cache"] == "disk"
        assert "serve.store" not in [e.name for e in tr.events]


class TestWarmPath:
    def test_fallback_is_counted(self, service):
        _SESSIONS.clear()
        edits1 = [{"edit": "set_delay", "src": 8, "dst": 10, "delay": 2}]
        # No answer is stored under this base, so nothing seeds a repair.
        warm1 = run(service.solve({**DIFFEQ, "base": "0" * 64, "edits": edits1}))
        assert warm1["result"]["session"] == {
            "repaired": False, "warm": "cold", "reason": "no_session",
        }
        assert service.stats()["metrics"]["counters"]["warm_fallbacks"] == 1
        edits2 = edits1 + [{"edit": "add_edge", "src": 4, "dst": 9, "delay": 2}]
        warm2 = run(service.solve({**DIFFEQ, "base": warm1["fingerprint"], "edits": edits2}))
        assert warm2["result"]["session"] == {"repaired": True, "warm": "resident"}
        counters = service.stats()["metrics"]["counters"]
        assert counters["warm_solves"] == 2 and counters["warm_fallbacks"] == 1
        assert "warm_seeded" not in counters
        # three solved dispatches (two warm, one cold) and one hit
        run(service.solve(DIFFEQ))
        run(service.solve(DIFFEQ))
        assert service.stats()["hit_rate"] == 0.25

    def test_edit_chain_repairs_in_place(self, service):
        _SESSIONS.clear()
        base = run(service.solve(DIFFEQ))
        edits1 = [{"edit": "set_delay", "src": 8, "dst": 10, "delay": 2}]
        payload1 = {**DIFFEQ, "base": base["fingerprint"], "edits": edits1}
        warm1 = run(service.solve(payload1))
        # the first edit repairs the stored base answer
        assert warm1["result"]["session"] == {"repaired": True, "warm": "seeded"}
        edits2 = edits1 + [{"edit": "add_edge", "src": 4, "dst": 9, "delay": 2}]
        payload2 = {**DIFFEQ, "base": warm1["fingerprint"], "edits": edits2}
        warm2 = run(service.solve(payload2))
        assert warm2["result"]["session"] == {"repaired": True, "warm": "resident"}
        assert check_repaired(payload1, warm1) is None
        assert check_repaired(payload2, warm2) is None
        # on this chain the repairs also equal a fresh solve
        fresh = solve_canonical(canonical_request(parse_request(
            {**DIFFEQ, "edits": edits2}
        )))
        assert schedule_bits(warm2["result"]) == schedule_bits(fresh)
        counters = service.stats()["metrics"]["counters"]
        assert counters["warm_solves"] == 2 and counters["warm_seeded"] == 1
        assert "warm_fallbacks" not in counters

    def test_edit_chain_repairs_across_shards(self):
        """On a real two-shard pool, the first edit of a chain is seeded on
        its base's shard and the second repairs on the worker that holds
        the session, even when the first edit's fingerprint hashes to the
        other shard."""
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
                payload2 = {**DIFFEQ, "base": warm1["fingerprint"], "edits": edits2}
                warm2 = await svc.solve(payload2)
                return warm1, payload2, warm2
            finally:
                svc.close()

        warm1, payload2, warm2 = run(main())
        assert warm1["result"]["session"] == {"repaired": True, "warm": "seeded"}
        assert warm2["result"]["session"] == {"repaired": True, "warm": "resident"}
        assert check_repaired(payload2, warm2) is None
        fresh = solve_canonical(canonical_request(parse_request(
            {**DIFFEQ, "edits": edits2}
        )))
        assert schedule_bits(warm2["result"]) == schedule_bits(fresh)

    def test_mismatched_branch_keeps_the_base_session(self, service):
        """A request whose edits do not extend the resident session's
        leaves it resident, so a later branch that does extend it repairs."""
        _SESSIONS.clear()
        base = run(service.solve(DIFFEQ))
        edits1 = [{"edit": "set_delay", "src": 8, "dst": 10, "delay": 2}]
        warm1 = run(service.solve({**DIFFEQ, "base": base["fingerprint"], "edits": edits1}))
        other = run(service.solve({
            **DIFFEQ, "base": warm1["fingerprint"],
            "edits": [{"edit": "set_exec_time", "node": 3, "time": 3}],
        }))
        assert other["result"]["session"] == {
            "repaired": False, "warm": "cold", "reason": "prefix",
        }
        edits2 = edits1 + [{"edit": "add_edge", "src": 4, "dst": 9, "delay": 2}]
        payload2 = {**DIFFEQ, "base": warm1["fingerprint"], "edits": edits2}
        warm2 = run(service.solve(payload2))
        assert warm2["result"]["session"] == {"repaired": True, "warm": "resident"}
        assert check_repaired(payload2, warm2) is None

    def test_resource_count_edit_and_its_undo_stay_warm(self, service):
        """Sessions are keyed on the options alone: a ``set_resource_counts``
        edit, and the edit that undoes it, repair like any other edit."""
        _SESSIONS.clear()
        base = run(service.solve(DIFFEQ))
        chain = [
            {"edit": "set_resource_counts", "counts": {"adder": 1}},
            {"edit": "set_delay", "src": 8, "dst": 10, "delay": 2},
            {"edit": "set_resource_counts", "counts": {"adder": 2}},
        ]
        fp, paths = base["fingerprint"], []
        for k in range(1, len(chain) + 1):
            payload = {**DIFFEQ, "base": fp, "edits": chain[:k]}
            warm = run(service.solve(payload))
            assert warm["cache"] == "solved"
            assert check_repaired(payload, warm) is None
            paths.append(warm["result"]["session"]["warm"])
            fp = warm["fingerprint"]
        assert paths == ["seeded", "resident", "resident"]
        assert "warm_fallbacks" not in service.stats()["metrics"]["counters"]

    def test_corrupted_stored_base_is_rejected(self, service):
        """A stored base answer that is not a legal schedule of the base
        never seeds a repair: the request is built cold, bit for bit a
        fresh solve."""
        from repro.dfg.io import _decode_id
        from repro.serve.protocol import schedule_from_payload

        _SESSIONS.clear()
        base = run(service.solve(DIFFEQ))
        answer = dict(base["result"])
        request = parse_request(DIFFEQ)
        schedule, retiming = schedule_from_payload(request.graph, request.model, answer)
        edge = next(
            e for e in request.graph.edges
            if retiming.dr(e) == 0 and schedule.start(e.src) != schedule.start(e.dst)
        )
        # start the edge's head with its tail, before the tail's result exists
        answer["starts"] = [
            [v, schedule.start(edge.src) if _decode_id(v) == edge.dst else s]
            for v, s in answer["starts"]
        ]
        service.cache.memory.put(base["fingerprint"], answer)
        edits = [{"edit": "set_delay", "src": 8, "dst": 10, "delay": 2}]
        warm = run(service.solve({**DIFFEQ, "base": base["fingerprint"], "edits": edits}))
        assert warm["result"]["session"] == {
            "repaired": False, "warm": "cold", "reason": "seed_rejected",
        }
        fresh = solve_canonical(canonical_request(parse_request({**DIFFEQ, "edits": edits})))
        assert schedule_bits(warm["result"]) == schedule_bits(fresh)

    def test_warm_spans_name_their_path(self, service):
        _SESSIONS.clear()
        edits1 = [{"edit": "set_delay", "src": 8, "dst": 10, "delay": 2}]
        edits2 = edits1 + [{"edit": "add_edge", "src": 4, "dst": 9, "delay": 2}]
        with tracing() as tr:
            base = run(service.solve(DIFFEQ))
            warm1 = run(service.solve({**DIFFEQ, "base": base["fingerprint"], "edits": edits1}))
            run(service.solve({**DIFFEQ, "base": warm1["fingerprint"], "edits": edits2}))
            run(service.solve({**DIFFEQ, "base": "0" * 64, "edits": edits2[1:]}))
        attrs = [
            {k: v for k, v in ev.attrs.items() if k != "fp"}
            for ev in tr.events if ev.name == "serve.solve"
        ]
        assert attrs == [
            {},
            {"warm": "seeded"},
            {"warm": "resident"},
            {"warm": "cold", "reason": "no_session"},
        ]

    def test_residency_is_bounded_and_chains_still_repair(self):
        """The shard map of warm sessions is an LRU of what the workers
        can hold; after it overflows, a fresh chain still repairs on the
        shard that holds its session."""
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
                cap = svc._residency.maxsize
                for i in range(cap + 5):
                    svc._residency.put(f"{i:064x}", i % 2)
                sizes = [cap, len(svc._residency)]
                base = await svc.solve(DIFFEQ)
                warm1 = await svc.solve({**DIFFEQ, "base": base["fingerprint"],
                                         "edits": edits1})
                warm2 = await svc.solve({**DIFFEQ, "base": warm1["fingerprint"],
                                         "edits": edits2})
                return sizes + [len(svc._residency)], warm2
            finally:
                svc.close()

        (cap, full, after), warm2 = run(main())
        assert cap == 2 * SESSION_CAP
        assert full == after == cap
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
        assert warm2["result"]["session"] == {
            "repaired": False, "warm": "cold", "reason": "prefix",
        }
        fresh = solve_canonical(canonical_request(parse_request({
            **DIFFEQ,
            "edits": [{"edit": "set_exec_time", "node": 3, "time": 3}],
        })))
        assert schedule_bits(warm2["result"]) == schedule_bits(fresh)


class TestNumpyDegradation:
    """Serving needs no numpy: with it unimportable, requests for the
    removed backends get a structured error and concurrent misses still
    solve on the flat backend."""

    @pytest.fixture(autouse=True)
    def no_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)

    def test_vector_backend_request_degrades_to_structured_error(self, service):
        for backend in ("vector", "views"):
            out = run(service.solve({**DIFFEQ, "options": {"backend": backend}}))
            assert out["cache"] == "error"
            assert out["error"]["type"] == "ServeError"
            assert f"unknown backend {backend!r}" in out["error"]["message"]

    def test_concurrent_misses_equal_fresh(self, service):
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


    def test_check_repaired_catches_an_illegal_warm_answer(self, service):
        edits = [{"edit": "set_delay", "src": 8, "dst": 10, "delay": 2}]
        payload = {**DIFFEQ, "base": "0" * 64, "edits": edits}
        warm = run(service.solve(payload))
        assert check_repaired(payload, warm) is None
        short = {**warm, "result": {**warm["result"], "length": 1}}
        assert "illegal warm answer" in check_repaired(payload, short)


class TestStats:
    def test_hit_rate_and_shape(self, service):
        run(service.solve(DIFFEQ))
        run(service.solve(DIFFEQ))
        stats = service.stats()
        assert stats["hit_rate"] == 0.5
        assert stats["workers"] == 1 and stats["worker_crashes"] == 0
        assert stats["cache"]["memory"]["size"] == 1
        assert stats["metrics"]["source"] == "repro.serve"
        counters = stats["metrics"]["counters"]
        assert counters["fp_memo_hits"] == 1 and counters["fp_memo_misses"] == 1
        assert stats["metrics"]["gauges"]["fp_memo_size"] == 1
