"""Lap replay parity: skipping a phase's repeated laps changes nothing.

:func:`repro.core.phases.rotation_phase` replays the rest of a phase in
one step once the flat engine sees a pre-rotation state come round again
(see :meth:`repro.core.flat.engine.FlatEngine.replay_lap`).  This suite
keeps the literal loop — one rotation and one offer per step — and pins
the replaying phase against it: the tracker's entries in order, its offer
count, every phase's final state, and the full scheduling result.

Each cell runs twice: the full search (an unbounded tracker), where most
phases repeat a lap, and the default search, whose tracker carries the
lower bound and stops once its entries are certified.  The literal loop
applies the same stop, one offer at a time.
"""

import pytest

from repro.core import phases
from repro.core.engine import make_engine
from repro.core.flat import FlatEngine
from repro.core.phases import BestTracker, search_bound
from repro.core.rotation import RotationState
from repro.core.scheduler import finish, rotation_schedule
from repro.report import convergence
from repro.schedule.resources import ResourceModel
from repro.suite import BENCHMARKS
from repro.suite.random_graphs import random_dfg

REPLAYING_PHASE = phases.rotation_phase

CONFIGS = {
    "1A1M": ResourceModel.adders_mults(1, 1),
    "2A1M": ResourceModel.adders_mults(2, 1),
    "2A1Mp": ResourceModel.adders_mults(2, 1, pipelined_mults=True),
    "3A2M": ResourceModel.adders_mults(3, 2),
    "2A2Mp": ResourceModel.adders_mults(2, 2, pipelined_mults=True),
}


def literal_phase(state, size, beta, best):
    """The paper's ``RotationPhase`` run one rotation at a time."""
    current = size
    for _ in range(beta):
        if best.done:
            break
        length = state.length
        while current >= length and current > 1:
            current = (current + 1) // 2
        if current >= length:
            break
        state = state.down_rotate(current)
        best.offer(state)
    return state


def state_bits(state):
    sched = state.schedule
    return (
        [(sched.start(v), sched.unit_index(v)) for v in state.graph.nodes],
        state.retiming,
        state.trace,
    )


def entry_bits(best):
    return [
        (s.fingerprint(), w.period, state_bits(s), w.schedule.start_map)
        for s, w in best.entries
    ]


class Tracker(BestTracker):
    """Notes whether a lap replay ended the search (a replay counts its
    offers after admitting its ties)."""

    replay_stopped = False

    def replayed(self, count):
        super().replayed(count)
        self.replay_stopped |= self.done


def solve(graph, model, heuristic, phase, monkeypatch, bounded):
    """``heuristic`` with ``phase`` as the rotation phase, then the
    scheduler's ``finish``; returns the result, the tracker and every
    phase's final state.  The tracker is unbounded (the full search)
    unless ``bounded`` gives it the default search's bound."""
    finals = []

    def recording_phase(state, size, beta, best):
        out = phase(state, size, beta, best)
        finals.append(out)
        return out

    engine = make_engine(None, graph, model, "descendants")
    best = Tracker(bound=search_bound(graph, model) if bounded else None)
    with monkeypatch.context() as m:
        m.setattr(phases, "rotation_phase", recording_phase)
        phases.HEURISTICS[heuristic](graph, model, engine=engine, tracker=best)
    result = finish(best, engine, graph, model, heuristic, best.initial_length, 0.0)[0]
    return result, best, finals


def same_result(got, ref):
    assert got.length == ref.length
    assert got.schedule.start_map == ref.schedule.start_map
    assert got.retiming == ref.retiming
    assert got.optimal_count == ref.optimal_count
    assert got.rotations_performed == ref.rotations_performed
    assert [(a.schedule.start_map, a.retiming) for a in got.alternates] == [
        (a.schedule.start_map, a.retiming) for a in ref.alternates
    ]


def assert_same_search(graph, model, heuristic, monkeypatch, bounded=False):
    args = (graph, model, heuristic)
    ref, ref_best, ref_finals = solve(*args, literal_phase, monkeypatch, bounded)
    got, best, finals = solve(*args, REPLAYING_PHASE, monkeypatch, bounded)
    same_result(got, ref)
    if bounded:  # the default search, as rotation_schedule runs it
        same_result(got, rotation_schedule(*args))
    assert best.offers == ref_best.offers
    assert best.length == ref_best.length
    assert entry_bits(best) == entry_bits(ref_best)
    assert [state_bits(s) for s in finals] == [state_bits(s) for s in ref_finals]
    # The logical rotation count is kept; replay answers its share, and
    # every other rotation places on the chain-tip grid or a reseeded one.
    ref_stats, stats = ref.engine_metrics, got.engine_metrics
    counters = stats["counters"]
    assert counters["rotations"] == ref_stats["counters"]["rotations"]
    extras = stats["extras"]
    assert ref_stats["extras"]["rotations_replayed"] == 0
    assert (
        counters["grid_delta_rotations"] + counters["grid_reseeds"]
        + extras["rotations_replayed"]
    ) == counters["rotations"]
    return extras, best


@pytest.mark.parametrize("heuristic", ["h1", "h2"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
def test_paper_cells_replay_like_the_literal_loop(bench, config, heuristic, monkeypatch):
    extras, _ = assert_same_search(
        BENCHMARKS[bench].build(), CONFIGS[config], heuristic, monkeypatch
    )
    assert extras["lap_replays"] > 0


@pytest.mark.parametrize("heuristic", ["h1", "h2"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
def test_stopped_paper_cells_replay_like_the_literal_loop(bench, config, heuristic, monkeypatch):
    assert_same_search(
        BENCHMARKS[bench].build(), CONFIGS[config], heuristic, monkeypatch, bounded=True
    )


def test_a_replay_can_end_the_search(monkeypatch):
    """The replay stops at the tie that fills the cap at the bound, and
    counts only the offers up to it."""
    extras, best = assert_same_search(
        BENCHMARKS["allpole"].build(), CONFIGS["3A2M"], "h1", monkeypatch, bounded=True
    )
    assert best.done and best.replay_stopped
    assert extras["rotations_replayed"] > 0


@pytest.mark.parametrize("seed", range(6))
def test_random_graphs_replay_like_the_literal_loop(seed, monkeypatch):
    graph = random_dfg(10 + 3 * seed, seed=seed)
    config = sorted(CONFIGS)[seed % len(CONFIGS)]
    for heuristic in ("h1", "h2"):
        for bounded in (False, True):
            assert_same_search(graph, CONFIGS[config], heuristic, monkeypatch, bounded)


def test_cap_filling_mid_replay():
    """Ties admitted by a replay stop exactly where the literal loop's
    offers would have filled the cap."""
    admitted = []

    class Tracker(BestTracker):
        def admit_tie(self, key, mint):
            before = len(self.entries)
            ok = super().admit_tie(key, mint)
            admitted.append((len(self.entries) > before, ok))
            return ok

    graph, model = BENCHMARKS["diffeq"].build(), CONFIGS["1A1M"]
    beta = 2 * graph.num_nodes
    outs = []
    for phase, tracker in ((literal_phase, BestTracker(cap=4)), (REPLAYING_PHASE, Tracker(cap=4))):
        initial = RotationState.initial(graph, model, engine=FlatEngine(graph, model))
        tracker.offer(initial)
        outs.append((tracker, phase(initial, 12, beta, tracker)))
    (ref, ref_final), (got, final) = outs
    # the replay admitted ties, then found the cap full
    assert any(added for added, _ in admitted)
    assert admitted[-1] == (False, False)
    assert len(got.entries) == got.cap
    assert got.offers == ref.offers
    assert entry_bits(got) == entry_bits(ref)
    assert state_bits(final) == state_bits(ref_final)


def test_recording_tracker_curves_are_unchanged(monkeypatch):
    """Replayed offers reach ``RecordingTracker`` through its hook, so the
    convergence curves match the literal loop's point for point."""
    graph, model = BENCHMARKS["biquad"].build(), CONFIGS["2A1M"]
    curves = {}
    for name, phase in (("literal", literal_phase), ("replay", REPLAYING_PHASE)):
        with monkeypatch.context() as m:
            m.setattr(convergence, "rotation_phase", phase)
            curves[name] = (
                convergence.phase_size_sweep(graph, model, [1, 2, 3], beta=40),
                convergence.heuristic_sweep(graph, model),
            )
    assert curves["replay"] == curves["literal"]
