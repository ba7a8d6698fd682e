"""Worker pools for cache misses: sharded processes and sessions.

:class:`ShardedPool` owns N single-worker ``ProcessPoolExecutor`` shards.
The caller picks the shard — a cold miss goes to its fingerprint's,
``shard_of(fp) = int(fp[:16], 16) % N``, so repeated solves of one graph
always land on the worker that already compiled it, and a warm re-solve
goes to the shard holding its base session.  Each miss is one
``submit(shard, fn, *args)`` call.  A crashed worker produces a
*structured error response* (the client is never left hanging) and the
shard is rebuilt for the next request.

Two worker entry points, both pure functions of their payloads:

* :func:`solve_one` — a single canonical request;
* :func:`solve_warm` — a warm re-solve of an edited graph that repairs
  a schedule of its base instead of re-searching: the worker-resident
  :class:`~repro.core.session.MutableSchedulingSession` stored under the
  base's fingerprint (an edit chain keeps hitting its own session), or,
  for a chain's first edit, a fresh session seeded from the base's stored
  answer.  The store is keyed on the options alone: the model is an edit
  like any other, checked against the request after the replay.  Any
  failed check — options, edit prefix, model, a rejected seed — falls
  back to a cold build, and the answer says which path it took.

:class:`InlinePool` runs the same entry points in-process — the gate
smoke tier and the tests use it to avoid fork costs.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.session import MutableSchedulingSession
from repro.errors import ReproError
from repro.serve.protocol import (
    canonical_graph,
    canonical_model,
    graph_from_canonical,
    model_from_canonical,
    result_payload,
    schedule_from_payload,
    solve_canonical,
)

#: Worker-resident sessions: fingerprint -> (session, applied_edits, options).
#: Bounded LRU; lives in the worker process (one per shard).
_SESSIONS: "OrderedDict[str, Any]" = OrderedDict()
SESSION_CAP = 32

#: Size-1 down-rotations a warm repair runs before answering
#: (``MutableSchedulingSession.resolve(polish=...)``).  A bare repair keeps
#: every untouched placement, so along an edit chain its answers drift
#: above a cold search's: geomean length / lower bound over the paper
#: cells' single-edit chains is 1.13 bare, 1.09 after four rotations and
#: 1.06 cold.  The rotations are cheap on the memoized engine.
WARM_POLISH = 4


def _error_payload(kind: str, exc: BaseException) -> Dict[str, Any]:
    return {"error": {"type": kind, "message": f"{type(exc).__name__}: {exc}"}}


def solve_one(fp: str, canonical: Mapping[str, Any]) -> Dict[str, Any]:
    """Solve one canonical request; exceptions become structured errors."""
    try:
        return solve_canonical(canonical)
    except ReproError as exc:
        return _error_payload("ReproError", exc)
    except Exception as exc:  # pragma: no cover - defensive
        return _error_payload("InternalError", exc)


def _open_session(canonical: Mapping[str, Any], options: Mapping[str, Any]):
    """A fresh session on ``canonical``'s graph and model."""
    return MutableSchedulingSession(
        graph_from_canonical(canonical),
        model_from_canonical(canonical),
        heuristic=options["heuristic"],
        beta=options["beta"],
        sigma=options["sigma"],
        priority=options["priority"],
        cap=options["cap"],
        backend=options["backend"] if options["backend"] != "naive" else "flat",
        copy_graph=False,
    )


def _resident(base_fp: Optional[str], options, edits) -> Tuple[Any, Optional[str]]:
    """``(session, None)``: the session resident under ``base_fp`` with
    ``edits``' suffix replayed; or ``(None, reason)``.  A mismatched
    session stays resident for a later request that matches it."""
    entry = _SESSIONS.get(base_fp) if base_fp else None
    if entry is None:
        return None, "no_session"
    session, applied, base_options = entry
    if base_options != options:
        return None, "options"
    if edits[: len(applied)] != applied:
        return None, "prefix"
    del _SESSIONS[base_fp]  # the replay moves it on; it returns under fp
    for op in edits[len(applied):]:
        session.apply_edit(op)
    return session, None


def _seeded(seed, options, edits) -> Tuple[Any, Optional[str]]:
    """``(session, None)``: a session on the stored base answer ``seed``
    (its canonical form and result payload) with every edit applied; or
    ``(None, "seed_rejected")`` when the answer is not a legal schedule of
    the base."""
    base_canonical, answer = seed
    session = _open_session(base_canonical, options)
    try:
        session.seed(*schedule_from_payload(session.graph, session.model, answer))
    except ReproError:
        return None, "seed_rejected"
    for op in edits:
        session.apply_edit(op)
    return session, None


def solve_warm(
    fp: str,
    canonical: Mapping[str, Any],
    base_fp: Optional[str],
    edits: Sequence[Mapping[str, Any]],
    seed: Optional[Tuple[Mapping[str, Any], Mapping[str, Any]]] = None,
) -> Dict[str, Any]:
    """Warm re-solve: repair a schedule of the base instead of re-searching.

    The canonical form already describes the *edited* graph, so a cold
    build from it is always a correct fallback; a schedule of the base
    just makes it cheap.  A chained request must send its full edit list
    (graph spec + edits = final graph; ``base`` is only an acceleration
    hint).  The repaired schedule comes from, in order:

    * ``"resident"`` — the session resident under ``base_fp`` (keyed on
      the options alone), replaying just the edit suffix beyond the prefix
      it already applied;
    * ``"seeded"`` — with none resident, a session on the base's stored
      answer ``seed = (base canonical form, result payload)``, checked by
      :meth:`~repro.core.session.MutableSchedulingSession.seed`, replaying
      every edit;
    * ``"cold"`` — a full solve of the canonical form, when neither
      applies (``reason``: ``no_session``, ``options``, ``prefix``,
      ``seed_rejected``) or the replayed session's graph or model is not
      the canonical one (``model``).

    The answer's ``session`` meta names the path (``warm``, plus
    ``reason`` when cold); ``repaired`` is true unless it is cold.  The
    session is registered under ``fp`` so the next edit in the chain
    stays warm.
    """
    try:
        edits = list(edits)
        options = canonical["options"]
        session, reason = _resident(base_fp, options, edits)
        warm = "resident"
        if session is None and reason == "no_session" and seed is not None:
            session, reason = _seeded(seed, options, edits)
            warm = "seeded"
        if session is not None and (
            canonical_model(session.model) != canonical["model"]
            or canonical_graph(session.graph) != canonical["graph"]
        ):
            session, reason = None, "model"
        if session is None:
            session, warm = _open_session(canonical, options), "cold"
        result = session.resolve(polish=WARM_POLISH)
        meta: Dict[str, Any] = {"repaired": warm != "cold", "warm": warm}
        if warm == "cold":
            meta["reason"] = reason
        _SESSIONS[fp] = (session, edits, options)
        while len(_SESSIONS) > SESSION_CAP:
            _SESSIONS.popitem(last=False)
        return {**result_payload(result), "session": meta}
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

    async def submit(self, shard: int, fn, *args) -> Dict[str, Any]:
        """Run ``fn(*args)`` on ``shard``'s worker."""
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

    async def submit(self, shard: int, fn, *args) -> Dict[str, Any]:
        # Yield once first, so concurrent in-process requests interleave
        # (and coalesce) as they do on the process pool.
        await asyncio.sleep(0)
        return fn(*args)

    def shutdown(self) -> None:
        pass
