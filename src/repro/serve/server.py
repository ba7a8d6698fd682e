"""The scheduling service and its stdlib-asyncio HTTP/JSON front end.

:class:`SchedulingService` is the transport-independent core, one
pipeline per request::

    parse → canonicalize → fingerprint → L1/L2 cache → single-flight →
    micro-batcher → worker pool → cache insert → respond

* **Single-flight**: concurrent requests with one fingerprint share one
  in-flight solve (an ``asyncio.Future``); only the first dispatches.
* **Micro-batching**: misses arriving in the same event-loop tick (or
  inside ``batch_window`` seconds) that share a (model, options) cohort
  key are dispatched as *one* worker call
  (:func:`repro.serve.pool.solve_cohort`), solved one after another on
  one shard.
* **Warm path**: a request carrying ``base`` + ``edits`` routes to the
  shard whose worker holds the base session and repairs instead of
  re-searching.

Every response envelope carries the fingerprint, the cache level
(``"memory" | "disk" | "coalesced" | "solved"``) and the wall time;
``result`` holds only schedule bits (see
:func:`repro.serve.protocol.result_payload`) so the differential oracle
can compare cached and fresh answers bit for bit.

The HTTP layer is a hand-rolled HTTP/1.1 server over
``asyncio.start_server`` — requests and responses are small JSON bodies,
keep-alive is supported, and no third-party dependency is involved.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ReproError
from repro.obs import tracer as _obs
from repro.obs.metrics import METRICS_SCHEMA, MetricsRegistry
from repro.serve.cache import ArtifactStore, TwoLevelCache
from repro.serve.pool import InlinePool, ShardedPool
from repro.serve.protocol import (
    PROTOCOL,
    ServeError,
    canonical_request,
    fingerprint,
    parse_request,
)

_MAX_BODY = 32 * 1024 * 1024


def _cohort_key(canonical: Mapping[str, Any]) -> str:
    """Requests sharing this key may solve as one worker-call cohort."""
    return json.dumps(
        {"model": canonical["model"], "options": canonical["options"]},
        sort_keys=True,
        separators=(",", ":"),
    )


class SchedulingService:
    """The transport-independent solve pipeline (see module docstring)."""

    def __init__(
        self,
        pool=None,
        cache: Optional[TwoLevelCache] = None,
        batch_window: float = 0.0,
    ):
        self.pool = pool if pool is not None else InlinePool()
        self.cache = cache if cache is not None else TwoLevelCache()
        self.batch_window = batch_window
        self.metrics = MetricsRegistry("repro.serve")
        self._inflight: Dict[str, asyncio.Future] = {}
        #: cohort key -> [(fp, canonical, future)] awaiting dispatch
        self._pending: Dict[str, List[Tuple[str, Mapping[str, Any], asyncio.Future]]] = {}
        #: fingerprint -> shard holding its warm session (warm-path routing)
        self._residency: Dict[str, int] = {}

    # ------------------------------------------------------------------
    async def solve(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """One request, end to end; never raises for request-level faults —
        malformed input and solver errors come back as error envelopes."""
        t0 = time.perf_counter()
        self.metrics.inc("requests")
        tr = _obs.active
        traced = tr.enabled
        if traced:
            tr.begin("serve.request")
        try:
            try:
                request = parse_request(payload)
                canonical = canonical_request(request)
                fp = fingerprint(canonical)
            except ReproError as exc:
                self.metrics.inc("bad_requests")
                return self._envelope(None, "error", t0, error={
                    "type": type(exc).__name__, "message": str(exc),
                })
            if traced:
                tr.begin("serve.lookup", fp=fp[:12])
            cached, level = self.cache.lookup(fp)
            if traced:
                tr.end()
            if cached is not None:
                self.metrics.inc(f"hits_{level}")
                self.metrics.observe("serve.hit_seconds", time.perf_counter() - t0)
                return self._envelope(fp, level, t0, result=cached)

            existing = self._inflight.get(fp)
            if existing is not None:
                self.metrics.inc("coalesced")
                result = await asyncio.shield(existing)
                return self._envelope(fp, "coalesced", t0, result=result)

            loop = asyncio.get_running_loop()
            future: asyncio.Future = loop.create_future()
            self._inflight[fp] = future
            try:
                if traced:
                    tr.begin("serve.solve", fp=fp[:12])
                try:
                    result = await self._dispatch(fp, canonical, request, future)
                finally:
                    if traced:
                        tr.end()
            finally:
                self._inflight.pop(fp, None)
            if "error" in result:
                self.metrics.inc("errors")
                return self._envelope(fp, "error", t0, error=result["error"])
            self.metrics.inc("misses")
            self.metrics.observe("serve.solve_seconds", time.perf_counter() - t0)
            return self._envelope(fp, "solved", t0, result=result)
        finally:
            if traced:
                tr.end()

    async def solve_many(self, payloads: List[Mapping[str, Any]]) -> List[Dict[str, Any]]:
        """Concurrent solves — misses sharing a cohort key batch together."""
        return list(await asyncio.gather(*(self.solve(p) for p in payloads)))

    # ------------------------------------------------------------------
    async def _dispatch(self, fp, canonical, request, future: asyncio.Future):
        """Route one miss (owns ``future``; always resolves it)."""
        try:
            if request.edits:
                # The session lands on the shard that runs this solve, so
                # the next edit in the chain must be routed there too.
                shard = self._residency.get(request.base) if request.base else None
                if shard is None:
                    shard = self.pool.shard_of(request.base or fp)
                result = await self.pool.solve_warm(
                    fp, canonical, request.base, request.edits, shard=shard
                )
                self._residency[fp] = shard
                self.metrics.inc("warm_solves")
            else:
                result = await self._batched_solve(fp, canonical)
            if "error" not in result:
                self.cache.insert(fp, canonical, result)
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
            raise
        if not future.done():
            future.set_result(result)
        return result

    async def _batched_solve(self, fp, canonical) -> Dict[str, Any]:
        """Enqueue into the cohort micro-batcher and await the verdict."""
        loop = asyncio.get_running_loop()
        key = _cohort_key(canonical)
        slot: asyncio.Future = loop.create_future()
        bucket = self._pending.get(key)
        if bucket is None:
            bucket = self._pending[key] = []
            if self.batch_window > 0:
                loop.call_later(self.batch_window, lambda: asyncio.ensure_future(self._drain(key)))
            else:
                loop.call_soon(lambda: asyncio.ensure_future(self._drain(key)))
        bucket.append((fp, canonical, slot))
        return await slot

    async def _drain(self, key: str) -> None:
        items = self._pending.pop(key, None)
        if not items:
            return
        try:
            if len(items) == 1:
                fp, canonical, slot = items[0]
                result = await self.pool.solve(fp, canonical)
                results = [result]
            else:
                self.metrics.inc("cohorts")
                self.metrics.inc("cohort_members", len(items))
                results = await self.pool.solve_cohort(
                    [(fp, canonical) for fp, canonical, _ in items]
                )
        except BaseException as exc:
            for _, _, slot in items:
                if not slot.done():
                    slot.set_exception(exc)
            return
        for (_, _, slot), result in zip(items, results):
            if not slot.done():
                slot.set_result(result)

    # ------------------------------------------------------------------
    def _envelope(self, fp, cache_level, t0, result=None, error=None) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "protocol": PROTOCOL,
            "fingerprint": fp,
            "cache": cache_level,
            "elapsed_seconds": round(time.perf_counter() - t0, 6),
        }
        if error is not None:
            out["error"] = dict(error)
        else:
            out["result"] = result
        return out

    def stats(self) -> Dict[str, Any]:
        counters = self.metrics.as_dict()["counters"]
        hits = sum(counters.get(k, 0) for k in ("hits_memory", "hits_disk")) + counters.get("coalesced", 0)
        answered = hits + counters.get("misses", 0) + counters.get("warm_solves", 0)
        return {
            "schema": METRICS_SCHEMA,
            "metrics": self.metrics.as_dict(),
            "cache": self.cache.stats(),
            "workers": getattr(self.pool, "workers", 1),
            "worker_crashes": getattr(self.pool, "crashes", 0),
            "hit_rate": round(hits / answered, 4) if answered else 0.0,
        }

    def close(self) -> None:
        self.pool.shutdown()


def build_service(
    workers: int = 2,
    cache_size: int = 512,
    artifacts: Optional[str] = None,
    inline: bool = False,
    batch_window: float = 0.0,
) -> SchedulingService:
    """Assemble a service: pool + two-level cache + metrics."""
    pool = InlinePool() if inline else ShardedPool(workers)
    store = ArtifactStore(artifacts) if artifacts else None
    return SchedulingService(
        pool=pool, cache=TwoLevelCache(cache_size, store), batch_window=batch_window
    )


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------
async def _read_request(reader: asyncio.StreamReader):
    """``(method, path, body)`` of one HTTP/1.1 request, or ``None`` at EOF."""
    line = await reader.readline()
    if not line:
        return None
    try:
        method, path, _version = line.decode("latin-1").split(None, 2)
    except ValueError:
        raise ServeError(f"malformed request line {line!r}")
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                length = int(value.strip())
            except ValueError:
                raise ServeError(f"bad Content-Length {value.strip()!r}")
    if length > _MAX_BODY:
        raise ServeError(f"request body of {length} bytes exceeds the {_MAX_BODY} limit")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), path, body


def _http_response(status: int, payload: Mapping[str, Any]) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found", 500: "Internal Server Error"}.get(status, "OK")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


async def _handle_one(service: SchedulingService, method: str, path: str, body: bytes):
    """``(status, payload)`` for one parsed request."""
    if method == "GET" and path == "/healthz":
        return 200, {"ok": True, "protocol": PROTOCOL}
    if method == "GET" and path == "/stats":
        return 200, service.stats()
    if method == "POST" and path in ("/solve", "/solve/batch"):
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except ValueError as exc:
            return 400, {"error": {"type": "BadJSON", "message": str(exc)}}
        if path == "/solve":
            envelope = await service.solve(payload)
        else:
            requests = payload.get("requests")
            if not isinstance(requests, list):
                return 400, {"error": {"type": "ServeError", "message": "/solve/batch body needs a 'requests' list"}}
            envelope = {"responses": await service.solve_many(requests)}
        status = 400 if "error" in envelope else 200
        return status, envelope
    return 404, {"error": {"type": "NotFound", "message": f"{method} {path}"}}


async def _handle_connection(service: SchedulingService, reader, writer) -> None:
    try:
        await _connection_loop(service, reader, writer)
    except asyncio.CancelledError:
        # Server shutdown cancels live keep-alive connections; that is a
        # normal exit, not an error worth a traceback.
        pass


async def _connection_loop(service: SchedulingService, reader, writer) -> None:
    try:
        while True:
            try:
                parsed = await _read_request(reader)
            except (ServeError, asyncio.IncompleteReadError):
                break
            if parsed is None:
                break
            method, path, body = parsed
            try:
                status, payload = await _handle_one(service, method, path, body)
            except Exception as exc:  # pragma: no cover - last-resort guard
                status, payload = 500, {"error": {"type": "InternalError", "message": str(exc)}}
            writer.write(_http_response(status, payload))
            await writer.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - client went away
            pass


async def start_server(service: SchedulingService, host: str = "127.0.0.1", port: int = 8347):
    """An ``asyncio.Server`` bound and listening (caller manages lifetime)."""
    return await asyncio.start_server(
        lambda r, w: _handle_connection(service, r, w), host, port
    )


def run_server(
    host: str = "127.0.0.1",
    port: int = 8347,
    workers: int = 2,
    cache_size: int = 512,
    artifacts: Optional[str] = None,
    inline: bool = False,
    batch_window: float = 0.0,
    ready=None,
) -> None:
    """Blocking entry point (``rotsched serve``); Ctrl-C stops it."""

    async def main():
        service = build_service(workers, cache_size, artifacts, inline, batch_window)
        server = await start_server(service, host, port)
        if ready is not None:
            ready(server)
        try:
            async with server:
                await server.serve_forever()
        finally:
            service.close()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
