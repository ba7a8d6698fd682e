"""Worker pools for cache misses: sharded processes, cohorts, sessions.

:class:`ShardedPool` owns N single-worker ``ProcessPoolExecutor`` shards.
A request is routed by its fingerprint — ``shard = int(fp[:16], 16) % N``
— so repeated solves of one graph always land on the worker that already
compiled it, and the per-worker session store (warm re-solves) never has
to migrate.  A crashed worker produces a *structured error response* (the
client is never left hanging) and the shard is rebuilt for the next
request.

Three worker entry points, all pure functions of their payloads:

* :func:`solve_one` — a single canonical request;
* :func:`solve_cohort` — a same-model cohort solved member by member in
  one worker call, so the cohort shares one shard and one round trip;
* :func:`solve_warm` — a warm re-solve of an edited graph through a
  worker-resident :class:`~repro.core.session.MutableSchedulingSession`
  (repair, not re-search); the session store is keyed by fingerprint so
  an edit chain keeps hitting its own session.

:class:`InlinePool` runs the same entry points synchronously in-process —
the gate smoke tier and the tests use it to avoid fork costs.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError

#: Worker-resident sessions: fingerprint -> (session, applied_edits, cfg_key).
#: Bounded LRU; lives in the worker process (one per shard).
_SESSIONS: "OrderedDict[str, Any]" = OrderedDict()
_SESSION_CAP = 32

#: Size-1 down-rotations a warm repair runs before answering
#: (``MutableSchedulingSession.resolve(polish=...)``).  A bare repair keeps
#: every untouched placement, so along an edit chain its answers drift
#: above a cold search's: geomean length / lower bound over the paper
#: cells' single-edit chains is 1.13 bare, 1.09 after four rotations and
#: 1.06 cold.  The rotations are cheap on the memoized engine.
WARM_POLISH = 4


def _session_cfg_key(canonical: Mapping[str, Any]) -> str:
    """Everything besides the graph that a resident session bakes in."""
    import json

    return json.dumps(
        {"model": canonical["model"], "options": canonical["options"]},
        sort_keys=True,
        separators=(",", ":"),
    )


def _error_payload(kind: str, exc: BaseException) -> Dict[str, Any]:
    return {"error": {"type": kind, "message": f"{type(exc).__name__}: {exc}"}}


def solve_one(fp: str, canonical: Mapping[str, Any]) -> Dict[str, Any]:
    """Solve one canonical request; exceptions become structured errors."""
    from repro.serve.protocol import solve_canonical

    try:
        return solve_canonical(canonical)
    except ReproError as exc:
        return _error_payload("ReproError", exc)
    except Exception as exc:  # pragma: no cover - defensive
        return _error_payload("InternalError", exc)


def solve_cohort(
    items: Sequence[Tuple[str, Mapping[str, Any]]]
) -> List[Dict[str, Any]]:
    """Solve a same-(model, options) cohort in one worker call: each
    member in order through :func:`solve_one`, so one member's error
    never spoils the others."""
    return [solve_one(fp, canonical) for fp, canonical in items]


def solve_warm(
    fp: str,
    canonical: Mapping[str, Any],
    base_fp: Optional[str],
    edits: Sequence[Mapping[str, Any]],
) -> Dict[str, Any]:
    """Warm re-solve: repair the base session instead of re-searching.

    The canonical form already describes the *edited* graph, so a cold
    build from it is always a correct fallback; a resident session for
    ``base_fp`` just makes it cheap.  A chained request must send its
    full edit list (graph spec + edits = final graph; ``base`` is only an
    acceleration hint) — the session remembers which prefix it already
    applied and replays just the suffix.  A prefix or model/options
    mismatch silently falls back to the cold build.  The repaired session
    is re-registered under ``fp`` so the next edit in the chain stays
    warm.
    """
    from repro.serve.protocol import (
        graph_from_canonical,
        model_from_canonical,
        result_payload,
    )

    try:
        edits = list(edits)
        cfg_key = _session_cfg_key(canonical)
        session = None
        repaired = False
        entry = _SESSIONS.pop(base_fp, None) if base_fp else None
        if entry is not None:
            base_session, applied, base_cfg = entry
            if base_cfg == cfg_key and edits[: len(applied)] == applied:
                session = base_session
                for op in edits[len(applied):]:
                    session.apply_edit(op)
                repaired = True
        opts = canonical["options"]
        if session is None:
            from repro.core.session import MutableSchedulingSession

            session = MutableSchedulingSession(
                graph_from_canonical(canonical),
                model_from_canonical(canonical),
                heuristic=opts["heuristic"],
                beta=opts["beta"],
                sigma=opts["sigma"],
                priority=opts["priority"],
                cap=opts["cap"],
                backend=opts["backend"] if opts["backend"] != "naive" else "flat",
                copy_graph=False,
            )
        result = session.resolve(polish=WARM_POLISH)
        payload = result_payload(result)
        payload_meta = {"repaired": repaired and session.metrics["repairs"] > 0}
        _SESSIONS[fp] = (session, edits, cfg_key)
        while len(_SESSIONS) > _SESSION_CAP:
            _SESSIONS.popitem(last=False)
        return {**payload, "session": payload_meta}
    except ReproError as exc:
        return _error_payload("ReproError", exc)
    except Exception as exc:  # pragma: no cover - defensive
        return _error_payload("InternalError", exc)


class ShardedPool:
    """N single-worker process shards with deterministic fingerprint routing."""

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ReproError(f"worker count must be >= 1, got {workers}")
        self.workers = workers
        self._shards: List[Optional[ProcessPoolExecutor]] = [None] * workers
        self.crashes = 0

    def shard_of(self, fp: str) -> int:
        return int(fp[:16], 16) % self.workers

    def _executor(self, shard: int) -> ProcessPoolExecutor:
        ex = self._shards[shard]
        if ex is None:
            ex = ProcessPoolExecutor(max_workers=1)
            self._shards[shard] = ex
        return ex

    async def _submit(self, shard: int, fn, *args) -> Dict[str, Any]:
        try:
            future = self._executor(shard).submit(fn, *args)
            return await asyncio.wrap_future(future)
        except BrokenProcessPool as exc:
            # The worker died mid-request (OOM, SIGKILL, hard crash).
            # Rebuild the shard and hand the caller a structured error —
            # a hung client would be strictly worse than a failed request.
            self.crashes += 1
            broken = self._shards[shard]
            self._shards[shard] = None
            if broken is not None:
                broken.shutdown(wait=False, cancel_futures=True)
            return _error_payload("WorkerCrash", exc)

    async def solve(self, fp: str, canonical: Mapping[str, Any]) -> Dict[str, Any]:
        return await self._submit(self.shard_of(fp), solve_one, fp, canonical)

    async def solve_cohort(
        self, items: Sequence[Tuple[str, Mapping[str, Any]]]
    ) -> List[Dict[str, Any]]:
        # Cohorts route by their first member so the whole batch shares one
        # worker's compile caches.
        shard = self.shard_of(items[0][0])
        out = await self._submit(shard, solve_cohort, list(items))
        if isinstance(out, dict) and "error" in out:
            return [out for _ in items]
        return out

    async def solve_warm(
        self,
        fp: str,
        canonical: Mapping[str, Any],
        base_fp: Optional[str],
        edits: Sequence[Mapping[str, Any]],
        shard: int,
    ) -> Dict[str, Any]:
        """Run the warm solve on ``shard``: the one holding ``base_fp``'s
        session, which the caller tracks."""
        return await self._submit(shard, solve_warm, fp, canonical, base_fp, list(edits))

    def shutdown(self) -> None:
        for i, ex in enumerate(self._shards):
            if ex is not None:
                ex.shutdown(wait=False, cancel_futures=True)
                self._shards[i] = None


class InlinePool:
    """Same interface as :class:`ShardedPool`, executed in-process.

    Used by the gate smoke tier, the perfcheck serve cell and most tests:
    no fork cost, fully deterministic, and the session store lives in this
    process (handy for asserting warm-path behaviour).
    """

    workers = 1
    crashes = 0

    def shard_of(self, fp: str) -> int:
        return 0

    async def solve(self, fp: str, canonical: Mapping[str, Any]) -> Dict[str, Any]:
        return solve_one(fp, canonical)

    async def solve_cohort(
        self, items: Sequence[Tuple[str, Mapping[str, Any]]]
    ) -> List[Dict[str, Any]]:
        return solve_cohort(list(items))

    async def solve_warm(
        self,
        fp: str,
        canonical: Mapping[str, Any],
        base_fp: Optional[str],
        edits: Sequence[Mapping[str, Any]],
        shard: int,
    ) -> Dict[str, Any]:
        return solve_warm(fp, canonical, base_fp, edits)

    def shutdown(self) -> None:
        pass
