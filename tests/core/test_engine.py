"""Unit tests for the default (flat) rotation engine's counters and plumbing."""

import pickle
import random

import pytest

from repro.dfg import io as dfg_io
from repro.dfg.graph import DFG
from repro.core.flat import FlatEngine
from repro.core.rotation import RotationState
from repro.core.scheduler import rotation_schedule
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
    """The flat engine derives each rotation's struct view (adjacency and
    priority sort keys) from its parent's; every priority must still
    reproduce the naive path's placements."""

    @pytest.mark.parametrize("seed", range(6))
    def test_derived_views_match_full_builds(self, seed):
        """After every rotation of a random walk, the incrementally derived
        struct view equals a from-scratch build of the same ``dr``."""
        graph = random_cyclic_dfg(seed)
        model = ResourceModel.adders_mults(2, 2)
        engine = FlatEngine(graph, model)
        state = RotationState.initial(graph, model, engine=engine)
        rng = random.Random(seed + 1000)
        for _ in range(25):
            if state.length <= 1:
                break
            state = state.down_rotate(rng.randint(1, state.length - 1))
            dr = engine._vstates[state.engine_token].dr
            view = engine._svs[dr]
            fresh = FlatEngine(graph, model)._sv_for(dr, lambda: state.retiming)
            assert [sorted(x) for x in view.zsucc] == [sorted(x) for x in fresh.zsucc]
            assert [sorted(x) for x in view.zpred] == [sorted(x) for x in fresh.zpred]
            assert view.skey == fresh.skey
            assert view.reach == fresh.reach
        assert engine.stats()["view_derives"] > 0

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


class TestEngineStats:
    def test_h2_run_populates_counters(self):
        result = rotation_schedule(elliptic(), ResourceModel.adders_mults(3, 2), "h2")
        stats = result.engine_stats
        assert stats["rotations"] > 0
        assert stats["view_derives"] > 0
        assert stats["view_builds"] >= 1
        assert stats["initial_schedules"] > 1  # h2 re-seeds between phases
        # Chained rotations ride the delta grid; re-seeds only happen when
        # rotating a state that is no longer the engine's chain tip.
        assert stats["grid_delta_rotations"] > 0
        assert stats["priority_entries_reused"] > 0
        assert result.engine_metrics["extras"]["rotation_memo_hits"] > 0

    def test_rotating_an_old_state_reseeds_the_grid(self):
        graph = diffeq()
        model = ResourceModel.unit_time(1, 1)
        engine = FlatEngine(graph, model)
        s0 = RotationState.initial(graph, model, engine=engine)
        s0.down_rotate(1)  # moves the chain tip past s0
        # A new transition from s0 (size 2 is no memo hit) must reseed,
        # not corrupt the tip's grid.
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
