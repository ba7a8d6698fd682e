"""HTTP front-end and sharded-pool tests: endpoints, keep-alive, loadgen,
deterministic shard routing, and worker-crash recovery."""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

import repro
from repro.serve import (
    ServeClient,
    build_service,
    demo_workload,
    run_loadgen,
    start_server,
)
from repro.serve.pool import ShardedPool, solve_one
from repro.serve.protocol import request_fingerprint

DIFFEQ = {"graph": {"benchmark": "diffeq"}, "config": "2A1M"}


async def _serve(service, fn):
    """Run blocking client code ``fn(port)`` against a live server."""
    server = await start_server(service, port=0)
    port = server.sockets[0].getsockname()[1]
    loop = asyncio.get_running_loop()
    try:
        return await loop.run_in_executor(None, fn, port)
    finally:
        server.close()
        await server.wait_closed()


def with_server(fn, **build_kwargs):
    async def main():
        service = build_service(inline=True, **build_kwargs)
        try:
            return await _serve(service, fn)
        finally:
            service.close()

    return asyncio.run(main())


class TestHttpEndpoints:
    def test_healthz_solve_stats_over_one_keepalive_connection(self):
        def drive(port):
            client = ServeClient(port=port)
            try:
                health = client.health()
                first = client.solve(DIFFEQ)
                second = client.solve(DIFFEQ)
                stats = client.stats()
            finally:
                client.close()
            return health, first, second, stats

        health, first, second, stats = with_server(drive)
        assert health["ok"] is True
        assert first["cache"] == "solved" and second["cache"] == "memory"
        assert first["result"] == second["result"]
        assert stats["hit_rate"] == 0.5

    def test_batch_endpoint(self):
        def drive(port):
            client = ServeClient(port=port)
            try:
                return client.solve_batch([DIFFEQ, DIFFEQ, {
                    "graph": {"benchmark": "biquad"}, "config": "2A1M",
                }])
            finally:
                client.close()

        responses = with_server(drive)
        assert len(responses) == 3
        assert responses[0]["result"] == responses[1]["result"]
        assert {r["fingerprint"] for r in responses} == {
            request_fingerprint(DIFFEQ),
            request_fingerprint({"graph": {"benchmark": "biquad"}, "config": "2A1M"}),
        }

    def test_error_statuses(self):
        import http.client
        import json

        def drive(port):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                out = []
                for method, path, body in [
                    ("GET", "/nope", None),
                    ("POST", "/solve", b"{broken"),
                    ("POST", "/solve", json.dumps({"config": "2A1M"}).encode()),
                    ("POST", "/solve/batch", json.dumps({"requests": "x"}).encode()),
                ]:
                    conn.request(method, path, body=body)
                    resp = conn.getresponse()
                    out.append((resp.status, json.loads(resp.read())))
                return out
            finally:
                conn.close()

        results = with_server(drive)
        assert [status for status, _ in results] == [404, 400, 400, 400]
        assert results[1][1]["error"]["type"] == "BadJSON"
        assert "missing 'graph'" in results[2][1]["error"]["message"]

    def test_non_integer_option_answers_400(self):
        import http.client
        import json

        def drive(port):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                out = []
                for options in ({"beta": "x"}, {"cap": [1]}):
                    body = json.dumps({**DIFFEQ, "options": options}).encode()
                    conn.request("POST", "/solve", body=body)
                    resp = conn.getresponse()
                    out.append((resp.status, json.loads(resp.read())))
                return out
            finally:
                conn.close()

        results = with_server(drive)
        assert [status for status, _ in results] == [400, 400]
        assert [r["error"]["type"] for _, r in results] == ["ServeError", "ServeError"]
        assert "'beta'" in results[0][1]["error"]["message"]
        assert "'cap'" in results[1][1]["error"]["message"]

    def test_loadgen_demo_workload(self, tmp_path):
        report = with_server(
            lambda port: run_loadgen(
                port=port, workload=demo_workload(repeats=3), concurrency=3
            ),
            artifacts=str(tmp_path / "artifacts"),
        )
        assert report.errors == 0
        assert report.requests == 18
        # 6 distinct cells: everything after the first solves is a hit.
        assert report.hit_rate >= 0.5
        assert report.percentile(50) <= report.percentile(99)
        assert "hit rate" in report.summary()


class TestShardedPool:
    def test_routing_is_deterministic_and_bounded(self):
        pool = ShardedPool(workers=3)
        fp = request_fingerprint(DIFFEQ)
        assert pool.shard_of(fp) == pool.shard_of(fp)
        assert 0 <= pool.shard_of(fp) < 3
        pool.shutdown()
        with pytest.raises(Exception):
            ShardedPool(workers=0)

    def test_solves_in_worker_processes(self):
        async def main():
            service = build_service(workers=2)
            try:
                first = await service.solve(DIFFEQ)
                second = await service.solve(DIFFEQ)
                return first, second
            finally:
                service.close()

        first, second = asyncio.run(main())
        assert first["cache"] == "solved" and second["cache"] == "memory"
        assert first["result"] == second["result"]

    def test_worker_crash_returns_structured_error_and_recovers(self):
        async def main():
            pool = ShardedPool(workers=1)
            try:
                fp = request_fingerprint(DIFFEQ)
                # Warm the shard up, then SIGKILL its worker process.
                pid = await asyncio.wrap_future(pool._executor(0).submit(os.getpid))
                os.kill(pid, signal.SIGKILL)
                from repro.serve.protocol import canonical_request, parse_request

                canonical = canonical_request(parse_request(DIFFEQ))
                crashed = await pool.submit(0, solve_one, fp, canonical)
                recovered = await pool.submit(0, solve_one, fp, canonical)
                return pool.crashes, crashed, recovered
            finally:
                pool.shutdown()

        crashes, crashed, recovered = asyncio.run(main())
        assert crashes == 1
        assert crashed["error"]["type"] == "WorkerCrash"
        assert "error" not in recovered and recovered["mode"] == "rotation"

    def test_crash_surfaces_in_service_envelope_not_a_hang(self):
        async def main():
            service = build_service(workers=1)
            try:
                pool = service.pool
                pid = await asyncio.wrap_future(pool._executor(0).submit(os.getpid))
                os.kill(pid, signal.SIGKILL)
                out = await asyncio.wait_for(service.solve(DIFFEQ), timeout=60)
                stats = service.stats()
                retry = await service.solve(DIFFEQ)
                return out, stats, retry
            finally:
                service.close()

        out, stats, retry = asyncio.run(main())
        assert out["cache"] == "error"
        assert out["error"]["type"] == "WorkerCrash"
        assert stats["worker_crashes"] == 1
        assert "error" not in retry  # shard rebuilt, request re-solvable


def _live_group_members(pgid: int):
    """PIDs of the process group's members that still run (zombies excluded)."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        state, _ppid, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            alive.append(int(entry))
    return alive


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads the process group from /proc")
class TestDaemonProcess:
    def test_sigterm_shuts_the_worker_pool_down(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", str(port), "--workers", "2"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
        )
        client = ServeClient(port=port, timeout=60.0)
        try:
            deadline = time.monotonic() + 60
            while True:
                try:
                    if client.health().get("ok"):
                        break
                except OSError:
                    pass
                assert proc.poll() is None and time.monotonic() < deadline, "daemon never came up"
                time.sleep(0.05)
            # one miss per shard, so both workers are running
            pool, by_shard = ShardedPool(2), {}
            for config in ("1A1M", "2A1M", "2A2M", "3A2M", "1A2M", "3A3M"):
                payload = dict(DIFFEQ, config=config)
                by_shard.setdefault(pool.shard_of(request_fingerprint(payload)), payload)
            assert sorted(by_shard) == [0, 1]
            for payload in by_shard.values():
                assert "error" not in client.solve(payload)
            assert len(_live_group_members(proc.pid)) >= 3  # the daemon and its two workers

            proc.terminate()
            proc.wait(timeout=10)
            deadline = time.monotonic() + 5
            while _live_group_members(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _live_group_members(proc.pid) == []
        finally:
            client.close()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=10)
