"""Rotation phases and the paper's two heuristics (Section 5).

A *rotation phase* of size ``i`` performs ``beta`` down-rotations of size
``i``, halving the size whenever it reaches the current schedule length
(rotations of size >= length are illegal).  The two heuristics drive
phases differently:

* **Heuristic 1** runs phases of sizes ``1..sigma`` *independently*, each
  restarting from the initial list schedule of the original DFG — more
  predictable, embarrassingly parallel, good for studying the effect of
  rotation size.
* **Heuristic 2** runs phases in *decreasing* size order, each phase
  continuing from the previous phase's rotation function and re-seeding
  its schedule with ``FullSchedule(G_R)`` — the retimed graph "exposes
  more faces" of the DFG.  This is the heuristic behind the paper's
  reported results (it wins on the elliptic filter's 2A 1Mp case).

Schedule quality is the *wrapped* length (Section 4): for single-cycle
graphs it coincides with the span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.dfg.graph import DFG
from repro.dfg.retiming import Retiming
from repro.schedule.resources import ResourceModel
from repro.schedule.schedule import Schedule
from repro.core.engine import make_engine, strip_funcs
from repro.core.rotation import RotationState
from repro.core.wrapping import WrappedSchedule, wrap
from repro.obs import tracer as _obs


@dataclass
class BestTracker:
    """Keeps the shortest wrapped length seen and the states achieving it.

    The paper's ``(Lopt, Q)`` pair: ``Q`` collects distinct optimal
    schedules ("the number of optimal schedules found ranges from 15 to
    35"); ``cap`` bounds memory.
    """

    cap: int = 64
    length: Optional[int] = None
    entries: List[Tuple[RotationState, WrappedSchedule]] = field(default_factory=list)
    _seen: Set[Tuple] = field(default_factory=set)
    offers: int = 0

    def offer(self, state: RotationState) -> WrappedSchedule:
        """Score a state (wrapped length) and record it if it ties or wins."""
        self.offers += 1
        wrapped = state.wrapped()
        if self.length is None or wrapped.period < self.length:
            self.length = wrapped.period
            self.entries = [(state, wrapped)]
            self._seen = {self._key(state)}
        elif wrapped.period == self.length and len(self.entries) < self.cap:
            key = self._key(state)
            if key not in self._seen:
                self._seen.add(key)
                self.entries.append((state, wrapped))
        return wrapped

    @staticmethod
    def _key(state: RotationState) -> Tuple:
        # Normalized start times + rotation counts in node order — the same
        # identity the old frozenset pair expressed, but cached on the state
        # (states are immutable) and cheaper to build and hash.
        return state.fingerprint()

    def merge(self, other: "BestTracker") -> None:
        """Fold another tracker in, as if its offers had been made here.

        Used by the parallel :func:`heuristic_1` path: each worker tracks
        its own phase, and merging the workers' trackers *in phase order*
        reproduces the sequential tracker exactly (a worker tracker with
        the same cap never drops an entry the sequential run would have
        kept, because its duplicates of already-seen schedules only ever
        shrink its entry list relative to the merged one).
        """
        self.offers += other.offers
        if other.length is None:
            return
        if self.length is None or other.length < self.length:
            self.length = other.length
            self.entries = list(other.entries[: self.cap])
            self._seen = {self._key(s) for s, _ in self.entries}
        elif other.length == self.length:
            for state, wrapped in other.entries:
                if len(self.entries) >= self.cap:
                    break
                key = self._key(state)
                if key not in self._seen:
                    self._seen.add(key)
                    self.entries.append((state, wrapped))

    @property
    def best_state(self) -> RotationState:
        return self.entries[0][0]

    @property
    def best_wrapped(self) -> WrappedSchedule:
        return self.entries[0][1]


def rotation_phase(
    state: RotationState,
    size: int,
    beta: int,
    best: BestTracker,
) -> RotationState:
    """The paper's ``RotationPhase``: ``beta`` rotations of (nominal) size
    ``size``, halving the size while it reaches the schedule length."""
    with _obs.active.span("phase", size=size, beta=beta):
        current = size
        for _ in range(beta):
            length = state.length
            while current >= length and current > 1:
                current = (current + 1) // 2  # ceil(i/2)
            if current >= length:
                break  # schedule of length 1 cannot be rotated further
            state = state.down_rotate(current)
            best.offer(state)
        return state


def _h1_phase_worker(payload) -> BestTracker:
    """Run one heuristic-1 phase in a worker process.

    Rebuilds the (deterministic) initial schedule locally rather than
    shipping it, and does *not* offer it — the parent offers the initial
    state exactly once, like the sequential path.
    """
    graph, model, priority, size, beta, cap, backend = payload
    state = RotationState.initial(
        graph, model, priority, engine=make_engine(backend, graph, model, priority)
    )
    local = BestTracker(cap=cap)
    rotation_phase(state, size, beta, local)
    return local


def _rebind_tracker(
    tracker: BestTracker, graph: DFG, model: ResourceModel, priority
) -> BestTracker:
    """Re-anchor a worker tracker's states onto the caller's graph object.

    Workers schedule a func-stripped copy of the graph (node callables do
    not pickle and never affect scheduling); start times and retimings are
    identical, so rebuilding each state on the original graph and
    re-wrapping reproduces the sequential tracker's entries bit for bit.
    """
    out = BestTracker(cap=tracker.cap)
    out.offers = tracker.offers
    out.length = tracker.length
    for state, _wrapped in tracker.entries:
        rebound = RotationState(
            graph,
            model,
            state.retiming,
            Schedule(graph, model, state.schedule.start_map, state.schedule.unit_map),
            priority,
            state.trace,
        )
        out.entries.append((rebound, wrap(rebound.schedule, rebound.retiming)))
        out._seen.add(BestTracker._key(rebound))
    return out


def _run_phases_parallel(
    graph: DFG,
    model: ResourceModel,
    priority,
    beta: int,
    cap: int,
    sizes: Sequence[int],
    workers: int,
    backend: str,
) -> Optional[List[BestTracker]]:
    """Run independent phases across processes; None when the pool or the
    payload cannot be used (caller falls back to the sequential loop)."""
    import pickle

    try:
        from concurrent.futures import ProcessPoolExecutor

        payload_graph = strip_funcs(graph)
        # Fail fast on unpicklable models/priorities before spawning.
        pickle.dumps((payload_graph, model, priority))
        results: List[Optional[BestTracker]] = [None] * len(sizes)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(
                    _h1_phase_worker,
                    (payload_graph, model, priority, size, beta, cap, backend),
                ): i
                for i, size in enumerate(sizes)
            }
            for future, i in futures.items():
                results[i] = future.result()
        return results  # type: ignore[return-value]
    except Exception:
        return None


def heuristic_1(
    graph: DFG,
    model: ResourceModel,
    beta: Optional[int] = None,
    sigma: Optional[int] = None,
    priority="descendants",
    cap: int = 64,
    engine=None,
    workers: Optional[int] = None,
) -> BestTracker:
    """Independent phases of sizes ``1..sigma``, each from the initial
    schedule of the original DFG (rotation function reset to zero).

    Args:
        graph: cyclic DFG to schedule.
        model: resource model.
        beta: rotations per phase (default ``2 * |V|``).
        sigma: largest phase size (default: initial schedule length - 1).
        priority: list-scheduling priority.
        cap: max number of tied-optimal schedules retained.
        engine: ``None`` shares one default-backend engine across phases,
            ``False`` runs cache-free, or pass a prebuilt engine.
        workers: run the (independent) phases in a process pool of this
            size; results are merged in phase order, so the outcome is
            identical to the sequential run.  Falls back to sequential
            execution when multiprocessing is unavailable.
    """
    if engine is None:
        engine = make_engine(None, graph, model, priority)
    backend = "naive" if engine is False else engine.backend_name
    initial = RotationState.initial(graph, model, priority, engine=engine)
    best = BestTracker(cap=cap)
    best.offer(initial)
    if beta is None:
        beta = max(8, 2 * graph.num_nodes)
    if sigma is None:
        sigma = max(1, initial.length - 1)
    sizes = list(range(1, sigma + 1))
    if workers is not None and workers > 1 and len(sizes) > 1:
        trackers = _run_phases_parallel(
            graph, model, priority, beta, cap, sizes, workers, backend
        )
        if trackers is not None:
            for tracker in trackers:
                best.merge(_rebind_tracker(tracker, graph, model, priority))
            return best
    for size in sizes:
        rotation_phase(initial, size, beta, best)
    return best


def heuristic_2(
    graph: DFG,
    model: ResourceModel,
    beta: Optional[int] = None,
    sigma: Optional[int] = None,
    priority="descendants",
    cap: int = 64,
    engine=None,
    workers: Optional[int] = None,
) -> BestTracker:
    """Cascaded phases in decreasing size order with ``FullSchedule(G_R)``
    re-seeding between phases (the paper's reported heuristic).

    ``engine`` is shared across re-seedings (its per-retiming view cache
    makes the re-seed schedules nearly free when a retiming recurs);
    ``workers`` is accepted for signature parity with :func:`heuristic_1`
    but ignored — the phases form a chain and cannot run concurrently.
    """
    del workers  # phases are sequentially dependent
    if engine is None:
        engine = make_engine(None, graph, model, priority)
    state = RotationState.initial(graph, model, priority, engine=engine)
    best = BestTracker(cap=cap)
    best.offer(state)
    if beta is None:
        beta = max(8, 2 * graph.num_nodes)
    if sigma is None:
        sigma = max(1, state.length - 1)
    for size in range(sigma, 0, -1):
        state = rotation_phase(state, size, beta, best)
        # Re-seed the next phase from a fresh list schedule of G_R.
        state = RotationState.initial(
            graph, model, priority, retiming=state.retiming, engine=engine
        )
        best.offer(state)
    return best


HEURISTICS = {"h1": heuristic_1, "h2": heuristic_2}
