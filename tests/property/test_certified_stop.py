"""The certified stop changes nothing but the count of rotations run.

A heuristic's own tracker carries ``combined_lower_bound`` and ends the
search once the best length meets it with ``cap`` tied optima held: no
later offer can change the tracker's entries, and ``finish`` reads only
those.  So the stopped search must report exactly what the full search
(an unbounded tracker) reports, on every result field except
``rotations_performed``, ``elapsed_seconds`` and the engine counters —
and the flat engine, which replays repeated laps, must stop at the same
offer as the naive path, which runs every rotation.
"""

import dataclasses

import pytest

from repro.bounds import combined_lower_bound
from repro.core.engine import make_engine
from repro.core.phases import HEURISTICS, BestTracker, search_bound
from repro.core.scheduler import RotationResult, finish, rotation_schedule
from repro.core.wrapping import WrappedSchedule
from repro.qa.oracles import check_parity
from repro.qa.runner import config_model
from repro.schedule.schedule import Schedule
from repro.suite import BENCHMARKS
from repro.suite.random_graphs import random_dfg, random_dsp_kernel

#: Fields the stop may move: how long the search ran, and what it cost.
MOVABLE = {"rotations_performed", "elapsed_seconds", "engine_stats", "engine_metrics"}
CONFIGS = ("1A1M", "2A1M", "2A1Mp", "3A2M")
GRAPHS = [("dfg", s) for s in range(6)] + [("dsp", s) for s in range(6)]


def build(kind, seed):
    if kind == "dfg":
        return random_dfg(10 + 2 * seed, seed=seed)
    return random_dsp_kernel(3 + seed % 5, seed=seed)


def bits(value):
    """A comparable projection of one result field."""
    if isinstance(value, Schedule):
        return value.start_map, {v: value.unit_index(v) for v in value.start_map}
    if isinstance(value, WrappedSchedule):
        return bits(value.schedule), value.retiming, value.period, value.depth
    if isinstance(value, tuple):
        return [bits(v) for v in value]
    return value


def surface(result):
    return {
        f.name: bits(getattr(result, f.name))
        for f in dataclasses.fields(RotationResult)
        if f.name not in MOVABLE
    }


def full_search(graph, model, heuristic, priority):
    engine = make_engine(None, graph, model, priority)
    best = HEURISTICS[heuristic](
        graph, model, priority=priority, engine=engine, tracker=BestTracker()
    )
    return finish(best, engine, graph, model, heuristic, best.initial_length, 0.0)[0]


@pytest.mark.parametrize("priority", ["descendants", "combined"])
@pytest.mark.parametrize("heuristic", ["h1", "h2"])
@pytest.mark.parametrize("config", CONFIGS)
def test_stopped_search_reports_the_full_search(config, heuristic, priority):
    model = config_model(config)
    stopped_early = 0
    for kind, seed in GRAPHS:
        graph = build(kind, seed)
        label = f"{kind}{seed} {config} {heuristic} {priority}"
        assert search_bound(graph, model) == combined_lower_bound(graph, model).combined
        full = full_search(graph, model, heuristic, priority)
        flat = rotation_schedule(graph, model, heuristic, priority=priority)
        naive = rotation_schedule(graph, model, heuristic, priority=priority, backend="naive")
        assert surface(flat) == surface(full), label
        assert not check_parity(flat, naive, label)  # rotations_performed too
        assert flat.rotations_performed <= full.rotations_performed, label
        stopped_early += flat.rotations_performed < full.rotations_performed
    assert stopped_early  # the grid exercises the stop, not only full searches


@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
def test_bound_is_the_combined_lower_bound(bench):
    graph = BENCHMARKS[bench].build()
    for config in CONFIGS:
        model = config_model(config)
        assert search_bound(graph, model) == combined_lower_bound(graph, model).combined


def test_exec_time_overrides_run_the_full_search():
    """Occupancy ignores explicit node times, so the override-aware bound
    is no bound on the scheduler: no stop, the same offers as an
    explicitly unbounded tracker."""
    graph, model = BENCHMARKS["elliptic"].build(), config_model("3A2M")
    default = rotation_schedule(graph, model, "h2")
    graph.set_exec_time(graph.nodes[0], 3)
    assert search_bound(graph, model) is None
    got = rotation_schedule(graph, model, "h2")
    want = full_search(graph, model, "h2", "descendants")
    assert surface(got) == surface(want)
    assert got.rotations_performed == want.rotations_performed
    assert got.rotations_performed > default.rotations_performed
