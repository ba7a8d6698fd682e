"""Unit tests for the default (flat) rotation engine's counters and plumbing."""

import pickle
import random

import pytest

from repro.dfg import io as dfg_io
from repro.dfg.graph import DFG
from repro.core.engine import make_engine
from repro.core.flat import FlatEngine
from repro.core.phases import BestTracker, heuristic_2
from repro.core.rotation import RotationState
from repro.core.scheduler import finish, rotation_schedule
from repro.schedule.resources import ResourceModel
from repro.suite import diffeq, elliptic
from repro.errors import RotationError


def random_cyclic_dfg(seed: int) -> DFG:
    """A random DFG whose every cycle carries a delay (legal for rotation)."""
    rng = random.Random(seed)
    n = rng.randint(8, 14)
    g = DFG(f"rand{seed}")
    for i in range(n):
        g.add_node(i, "mul" if rng.random() < 0.35 else "add")
    for i in range(n - 1):
        g.add_edge(i, i + 1, 0 if rng.random() < 0.6 else 1)
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u < v:
            g.add_edge(u, v, 0 if rng.random() < 0.5 else 1)
        else:
            g.add_edge(u, v, rng.randint(1, 2))  # back edges must carry delay
    return g


class TestViewDerivation:
    """A rotation derives adjacency and sort keys for the moved nodes only
    (``FlatEngine._moved_subgraph``); every priority must still reproduce
    the naive path's placements."""

    @pytest.mark.parametrize("seed", range(6))
    def test_derived_views_match_full_builds(self, seed):
        """Before every rotation of a random down-rotation walk, the moved
        nodes' rotated ``dr``, zero-delay adjacency and sort keys equal a
        from-scratch build of the same ``dr``, under every priority whose
        keys the moved subgraph determines."""
        for priority in ("descendants", "height", "combined"):
            self._check_walk(random_cyclic_dfg(seed), seed, priority)

    @staticmethod
    def _check_walk(graph, seed, priority):
        model = ResourceModel.adders_mults(2, 2)
        engine = FlatEngine(graph, model, priority)
        state = RotationState.initial(graph, model, priority=priority, engine=engine)
        rng = random.Random(seed + 1000)
        checked = 0
        for _ in range(25):
            if state.length <= 1:
                break
            size = rng.randint(1, state.length - 1)
            rec = engine._rec_for(state)
            moved = [i for i, s in enumerate(rec.starts) if s < size]
            dr, zsucc, zpred, skey = engine._moved_subgraph(
                rec, moved, lambda: "illegal", lambda: state.retiming
            )
            rv = list(rec.rv)
            for i in moved:
                rv[i] += 1
            assert dr == engine._dr_of(rv)
            fresh = FlatEngine(graph, model, priority)._sv_for(dr, lambda: state.retiming)
            for v in range(len(rec.starts)):
                if v in moved:
                    assert sorted(zsucc[v]) == sorted(fresh.zsucc[v])
                    assert sorted(zpred[v]) == sorted(fresh.zpred[v])
                else:
                    assert zsucc[v] is None and zpred[v] is None
            assert [skey[v] for v in moved] == [fresh.skey[v] for v in moved]
            checked += len(moved)
            state = state.down_rotate(size)
        assert checked > 0

    @pytest.mark.parametrize("priority", ["height", "combined", "mobility"])
    def test_other_priorities_stay_consistent(self, priority):
        graph = diffeq()
        model = ResourceModel.unit_time(1, 1)
        state = RotationState.initial(graph, model, priority=priority)
        naive = RotationState.initial(graph, model, priority=priority, engine=False)
        for _ in range(6):
            state = state.down_rotate(1)
            naive = naive.down_rotate(1)
            assert state.schedule.normalized().start_map == naive.schedule.normalized().start_map

    @pytest.mark.parametrize("priority", ["descendants", "height", "combined", "mobility"])
    @pytest.mark.parametrize("seed", range(8))
    def test_priority_walk_matches_naive(self, seed, priority):
        """A seeded walk of mixed down/up rotations: after every step the
        flat engine's start map, unit binding and retiming equal the naive
        path's.  Up-rotation always runs the naive path, so every
        down-rotation after one checks that the engine picks up a state it
        did not mint."""
        graph = random_cyclic_dfg(seed)
        model = ResourceModel.adders_mults(2, 1)
        flat = RotationState.initial(graph, model, priority=priority)
        naive = RotationState.initial(graph, model, priority=priority, engine=False)
        assert flat.engine is not None
        rng = random.Random(seed + 2000)
        for _ in range(30):
            if naive.length <= 1:
                break
            size = rng.randint(1, naive.length - 1)
            if rng.random() < 0.7:
                flat, naive = flat.down_rotate(size), naive.down_rotate(size)
            else:
                flat, naive = flat.up_rotate(size), naive.up_rotate(size)
            fs, ns = flat.schedule.normalized(), naive.schedule.normalized()
            assert fs.start_map == ns.start_map
            assert fs.unit_map == ns.unit_map
            assert flat.retiming == naive.retiming


class TestEngineStats:
    def test_h2_run_populates_counters(self):
        # The full search (an unbounded tracker): the certified stop ends
        # this cell's default search before any rotation repeats.
        graph, model = elliptic(), ResourceModel.adders_mults(3, 2)
        engine = make_engine(None, graph, model, "descendants")
        best = heuristic_2(graph, model, engine=engine, tracker=BestTracker())
        result = finish(best, engine, graph, model, "h2", best.initial_length, 0.0)[0]
        stats = result.engine_stats
        assert stats["rotations"] > 0
        assert stats["view_builds"] >= 1
        assert stats["initial_schedules"] > 1  # h2 re-seeds between phases
        # Chained rotations ride the delta grid; re-seeds only happen when
        # rotating a state that is no longer the engine's chain tip.
        assert stats["grid_delta_rotations"] > 0
        # Struct views serve whole-graph placements only; rotation misses
        # scan the moved nodes' incident edges on top of those builds.
        assert stats["view_builds"] + stats["view_hits"] <= stats["initial_schedules"]
        assert stats["edges_rescanned"] > stats["view_builds"] * len(elliptic().edges)
        extras = result.engine_metrics["extras"]
        assert extras["rotations_replayed"] > 0
        assert extras["wrap_memo_hits"] > 0
        assert extras["realize_memo_hits"] > 0

    def test_rotating_an_old_state_reseeds_the_grid(self):
        graph = diffeq()
        model = ResourceModel.unit_time(1, 1)
        engine = FlatEngine(graph, model)
        s0 = RotationState.initial(graph, model, engine=engine)
        s0.down_rotate(1)  # moves the chain tip past s0
        # A rotation of s0 must reseed, not corrupt the tip's grid.
        again = s0.down_rotate(2)
        assert engine.stats()["grid_reseeds"] >= 1
        # and the reseeded result still matches the naive path
        naive = RotationState.initial(graph, model, engine=False).down_rotate(2)
        assert again.schedule.normalized().start_map == naive.schedule.normalized().start_map

    def test_incompatible_engine_is_rejected(self):
        graph, other = diffeq(), elliptic()
        model = ResourceModel.unit_time(1, 1)
        engine = FlatEngine(other, model)
        with pytest.raises(RotationError):
            RotationState.initial(graph, model, engine=engine)


class TestPickling:
    def test_states_pickle_without_their_engine(self):
        # the JSON round trip drops the benchmark's node closures
        graph = dfg_io.from_json_dict(dfg_io.to_json_dict(diffeq()))
        state = RotationState.initial(graph, ResourceModel.unit_time(1, 1))
        assert state.engine is not None
        clone = pickle.loads(pickle.dumps(state))
        assert clone.engine is None and clone.engine_token is None
        assert clone.schedule.start_map == state.schedule.start_map
        # and the clone still rotates (it just rebuilds caches lazily)
        assert clone.down_rotate(1).length == state.down_rotate(1).length
