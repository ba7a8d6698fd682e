"""The scheduling service and its stdlib-asyncio HTTP/JSON front end.

:class:`SchedulingService` is the transport-independent core, one
pipeline per request::

    fingerprint memo → [parse → canonicalize → fingerprint] → L1/L2 cache →
    single-flight → worker pool → cache insert → respond

* **Fingerprint memo**: an LRU from each payload's sorted-key JSON digest
  to its fingerprint (a pure function of the payload).  The bracketed
  parse runs only on a memo miss or a dispatch; parse errors are never
  memoized, and payloads that are not JSON-able bypass the memo.
* **Single-flight**: concurrent requests with one fingerprint share one
  in-flight solve (an ``asyncio.Future``); only the first dispatches.
* **Dispatch**: every miss is one worker call.  A cold miss runs on the
  shard of its own fingerprint; a warm request (``base`` + ``edits``)
  runs on the shard whose worker holds the base session and repairs
  instead of re-searching.  The service remembers which shard holds each
  warm answer's session in an LRU sized to what the workers keep.  A
  chain's first edit, whose base no shard holds, goes to the base's
  shard with the base's stored answer, which seeds the repair.

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
import hashlib
import json
import signal
import time
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ReproError
from repro.obs import tracer as _obs
from repro.obs.metrics import METRICS_SCHEMA, MetricsRegistry
from repro.serve.cache import ArtifactStore, LRUCache, TwoLevelCache
from repro.serve.pool import SESSION_CAP, InlinePool, ShardedPool, solve_one, solve_warm
from repro.serve.protocol import (
    PROTOCOL,
    ServeError,
    SolveRequest,
    canonical_request,
    fingerprint,
    parse_request,
)

_MAX_BODY = 32 * 1024 * 1024

#: Entries of the payload -> fingerprint memo.  An entry is ~250 B, so a
#: full memo stays near 4 MB while covering far more requests than the
#: response cache holds.
FP_MEMO_SIZE = 16384


def _memo_key(payload: Any) -> Optional[bytes]:
    """The memo key of a wire payload, or ``None`` if it is not JSON-able."""
    try:
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        return None
    return hashlib.sha256(blob.encode("utf-8")).digest()


class SchedulingService:
    """The transport-independent solve pipeline (see module docstring)."""

    def __init__(self, pool=None, cache: Optional[TwoLevelCache] = None):
        self.pool = pool if pool is not None else InlinePool()
        self.cache = cache if cache is not None else TwoLevelCache()
        self.metrics = MetricsRegistry("repro.serve")
        #: memo key of a wire payload -> its fingerprint
        self.fp_memo = LRUCache(FP_MEMO_SIZE)
        self._inflight: Dict[str, asyncio.Future] = {}
        #: fingerprint -> shard holding its warm session (warm-path
        #: routing); the workers keep no more sessions than this
        self._residency = LRUCache(self.pool.workers * SESSION_CAP)

    # ------------------------------------------------------------------
    async def solve(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """One request, end to end; never raises for request-level faults —
        malformed input and solver errors come back as error envelopes."""
        t0 = time.perf_counter()
        self.metrics.inc("requests")
        tr = _obs.active
        with tr.span("serve.request"):
            key = _memo_key(payload)
            fp = self.fp_memo.get(key) if key is not None else None
            if fp is not None:
                self.metrics.inc("fp_memo_hits")
                answered = await self._answer_stored(fp, t0, tr)
                if answered is not None:
                    return answered
            elif key is not None:
                self.metrics.inc("fp_memo_misses")
            try:
                with tr.span("serve.parse"):
                    request = parse_request(payload)
                    canonical = canonical_request(request)
                    parsed_fp = fingerprint(canonical)
            except ReproError as exc:
                self.metrics.inc("bad_requests")
                return self._envelope(None, "error", t0, error={
                    "type": type(exc).__name__, "message": str(exc),
                })
            if key is not None:
                self.fp_memo.put(key, parsed_fp)
            if parsed_fp != fp:
                # A memo miss (or an entry the parse disagrees with, now
                # replaced): consult the cache tiers under the parsed key.
                fp = parsed_fp
                answered = await self._answer_stored(fp, t0, tr)
                if answered is not None:
                    return answered

            loop = asyncio.get_running_loop()
            future: asyncio.Future = loop.create_future()
            self._inflight[fp] = future
            try:
                with tr.span("serve.solve", fp=fp[:12]):
                    result = await self._dispatch(fp, canonical, request, future)
                    if request.edits and "error" not in result:
                        meta = result["session"]
                        tr.annotate(**{k: meta[k] for k in ("warm", "reason") if k in meta})
            finally:
                self._inflight.pop(fp, None)
            if "error" in result:
                self.metrics.inc("errors")
                return self._envelope(fp, "error", t0, error=result["error"])
            self.metrics.inc("misses")
            self.metrics.observe("serve.solve_seconds", time.perf_counter() - t0)
            return self._envelope(fp, "solved", t0, result=result)

    async def _answer_stored(self, fp: str, t0: float, tr) -> Optional[Dict[str, Any]]:
        """The envelope for ``fp`` from a cache tier or an in-flight solve,
        or ``None`` when the request has to be dispatched."""
        with tr.span("serve.lookup", fp=fp[:12]):
            cached, level = self.cache.lookup(fp)
        if cached is not None:
            self.metrics.inc(f"hits_{level}")
            self.metrics.observe("serve.hit_seconds", time.perf_counter() - t0)
            return self._envelope(fp, level, t0, result=cached)
        existing = self._inflight.get(fp)
        if existing is not None:
            self.metrics.inc("coalesced")
            result = await asyncio.shield(existing)
            return self._envelope(fp, "coalesced", t0, result=result)
        return None

    async def solve_many(self, payloads: List[Mapping[str, Any]]) -> List[Dict[str, Any]]:
        """Concurrent solves, answered in request order."""
        return list(await asyncio.gather(*(self.solve(p) for p in payloads)))

    # ------------------------------------------------------------------
    async def _dispatch(self, fp, canonical, request, future: asyncio.Future):
        """Route one miss to its shard (owns ``future``; always resolves it)."""
        try:
            if request.edits:
                # The session lands on the shard that runs this solve, so
                # the next edit in the chain must be routed there too.
                shard = self._residency.get(request.base) if request.base else None
                seed = None
                if shard is None:
                    shard = self.pool.shard_of(request.base or fp)
                    seed = self._stored_base(request)
                result = await self.pool.submit(
                    shard, solve_warm, fp, canonical, request.base, list(request.edits), seed
                )
                self.metrics.inc("warm_solves")
                if "error" not in result:
                    # an error registered no session: nothing to route to
                    self._residency.put(fp, shard)
                    warm = result["session"]["warm"]
                    if warm != "resident":
                        self.metrics.inc("warm_fallbacks" if warm == "cold" else "warm_seeded")
            else:
                result = await self.pool.submit(self.pool.shard_of(fp), solve_one, fp, canonical)
            if "error" not in result:
                with _obs.active.span("serve.store", fp=fp[:12]):
                    self.cache.insert(fp, canonical, result)
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
            raise
        if not future.done():
            future.set_result(result)
        return result

    def _stored_base(self, request: SolveRequest):
        """``(canonical form, answer)`` of a chain start's base, to seed its
        repair: ``request.base`` must be the fingerprint of this very
        request without ``base`` and ``edits``, and its answer a
        rotation-mode one in a cache tier.  ``None`` otherwise."""
        if request.base is None:
            return None
        answer, _level = self.cache.lookup(request.base)
        if answer is None or answer.get("mode") != "rotation":
            return None
        graph, model = request.unedited
        canonical = canonical_request(SolveRequest(graph, model, request.options))
        return (canonical, answer) if fingerprint(canonical) == request.base else None

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
        self.metrics.gauge("fp_memo_size", len(self.fp_memo))
        counters = self.metrics.as_dict()["counters"]
        hits = sum(counters.get(k, 0) for k in ("hits_memory", "hits_disk")) + counters.get("coalesced", 0)
        # "misses" counts every solved dispatch, warm ones included
        answered = hits + counters.get("misses", 0)
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
) -> SchedulingService:
    """Assemble a service: pool + two-level cache + metrics."""
    pool = InlinePool() if inline else ShardedPool(workers)
    store = ArtifactStore(artifacts) if artifacts else None
    return SchedulingService(pool=pool, cache=TwoLevelCache(cache_size, store))


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
    ready=None,
) -> None:
    """Blocking entry point (``rotsched serve``); Ctrl-C or SIGTERM stops
    it, and either way the worker pool is shut down before it returns."""

    async def main():
        service = build_service(workers, cache_size, artifacts, inline)
        server = await start_server(service, host, port)
        if ready is not None:
            ready(server)
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
        try:
            async with server:
                await stop.wait()
        finally:
            service.close()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
