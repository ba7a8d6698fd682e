"""Rotation phases and the paper's two heuristics (Section 5).

A *rotation phase* of size ``i`` performs ``beta`` down-rotations of size
``i``, halving the size whenever it reaches the current schedule length
(rotations of size >= length are illegal).  The two heuristics drive
phases differently:

* **Heuristic 1** runs phases of sizes ``1..sigma`` *independently*, each
  restarting from the initial list schedule of the original DFG — more
  predictable, good for studying the effect of rotation size.
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
from typing import Dict, List, Optional, Set, Tuple

from repro.dfg.graph import DFG
from repro.schedule.resources import ResourceModel
from repro.core.engine import make_engine
from repro.core.rotation import RotationState
from repro.core.wrapping import WrappedSchedule
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

    def replayed(self, count: int) -> None:
        """Count ``count`` offers replayed from a lap of a phase (see
        :func:`rotation_phase`).  Every replayed state repeats the
        schedule of one offered already, so the length cannot change;
        subclasses that record something per offer override this hook."""
        self.offers += count

    def admit_tie(self, key: Tuple, mint) -> bool:
        """Record a replayed state that ties the current length.

        ``key`` is its fingerprint; ``mint()`` builds the state and runs
        only when the key is new.  Returns False, admitting nothing, once
        ``cap`` entries are held.
        """
        if len(self.entries) >= self.cap:
            return False
        if key not in self._seen:
            self._seen.add(key)
            state = mint()
            self.entries.append((state, state.wrapped()))
        return True

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
    ``size``, halving the size while it reaches the schedule length.

    A rotation is a pure function of the schedule, the unit binding, the
    retimed delays ``dr`` and the size, so once the phase is back in a
    pre-rotation state it has been in (rotation counts aside) it repeats
    that lap, ``R`` advancing by the lap's displacement each time round.
    The flat engine then replays the rest of the phase in one step,
    bit-identical; the naive path, the parity oracle, runs every rotation.
    """
    with _obs.active.span("phase", size=size, beta=beta):
        current = size
        eng = state.engine
        laps = eng is not None and eng.compatible_with(state)
        seen: Dict[Tuple, int] = {}
        visited: List[RotationState] = []
        for it in range(beta):
            length = state.length
            while current >= length and current > 1:
                current = (current + 1) // 2  # ceil(i/2)
            if current >= length:
                break  # schedule of length 1 cannot be rotated further
            if laps:
                # ``current`` never grows, so a repeated key has rotated
                # by the same size all the way round its lap.
                j = seen.setdefault((eng.lap_key(state), current), it)
                if j != it:
                    lap = visited[j + 1:]
                    lap.append(state)
                    return eng.replay_lap(visited[j], lap, beta - it, best)
                visited.append(state)
            state = state.down_rotate(current)
            best.offer(state)
        return state


def heuristic_1(
    graph: DFG,
    model: ResourceModel,
    beta: Optional[int] = None,
    sigma: Optional[int] = None,
    priority="descendants",
    cap: int = 64,
    engine=None,
    tracker: Optional[BestTracker] = None,
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
        tracker: the tracker to fill (default: a fresh ``BestTracker(cap)``;
            the convergence sweep passes a recording one).
    """
    if engine is None:
        engine = make_engine(None, graph, model, priority)
    initial = RotationState.initial(graph, model, priority, engine=engine)
    best = tracker if tracker is not None else BestTracker(cap=cap)
    best.offer(initial)
    if beta is None:
        beta = max(8, 2 * graph.num_nodes)
    if sigma is None:
        sigma = max(1, initial.length - 1)
    for size in range(1, sigma + 1):
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
    tracker: Optional[BestTracker] = None,
) -> BestTracker:
    """Cascaded phases in decreasing size order with ``FullSchedule(G_R)``
    re-seeding between phases (the paper's reported heuristic).

    ``engine`` is shared across re-seedings (its ``dr``-keyed initial
    schedule memo makes a re-seed nearly free when a structure recurs).
    Other arguments as in :func:`heuristic_1`.
    """
    if engine is None:
        engine = make_engine(None, graph, model, priority)
    state = RotationState.initial(graph, model, priority, engine=engine)
    best = tracker if tracker is not None else BestTracker(cap=cap)
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
