"""Golden parity suite: the flat backend must be pure speed.

Every ``(benchmark, resource config, heuristic)`` cell runs the full
heuristic under both backends — ``flat`` (integer kernels over CSR
snapshots, lap replay and memos) and ``naive`` (recompute everything) — and
asserts the outcomes are identical down to the schedule bits, start
maps, retimings and the set of tied-optimal schedules.  Any divergence
means a cache leaked stale state into a decision.
"""

import pytest

from repro.core.engine import BACKENDS
from repro.core.scheduler import rotation_schedule
from repro.schedule.resources import ResourceModel
from repro.serve.protocol import result_payload, schedule_bits
from repro.suite import BENCHMARKS

#: backends pinned against naive on every golden cell.
FAST_BACKENDS = tuple(b for b in BACKENDS if b != "naive")

CONFIGS = {
    "2A2M": ResourceModel.adders_mults(2, 2),
    "3A2M": ResourceModel.adders_mults(3, 2),
    "2A1Mp": ResourceModel.adders_mults(2, 1, pipelined_mults=True),
}


@pytest.mark.parametrize("heuristic", ["h1", "h2"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
def test_backends_match_naive_path(bench, config, heuristic):
    graph = BENCHMARKS[bench].build()
    model = CONFIGS[config]
    results = {
        backend: rotation_schedule(graph, model, heuristic=heuristic, backend=backend)
        for backend in FAST_BACKENDS + ("naive",)
    }
    naive = results["naive"]
    assert naive.engine_stats is None
    for backend in FAST_BACKENDS:
        fast = results[backend]
        assert schedule_bits(result_payload(fast)) == schedule_bits(
            result_payload(naive)
        ), backend
        assert fast.length == naive.length, backend
        assert fast.initial_length == naive.initial_length, backend
        assert fast.rotations_performed == naive.rotations_performed, backend
        assert fast.retiming == naive.retiming, backend
        assert fast.schedule.start_map == naive.schedule.start_map, backend
        assert fast.optimal_count == naive.optimal_count, backend
        # Same tied-optimal set, in the same discovery order.
        assert [a.schedule.start_map for a in fast.alternates] == [
            a.schedule.start_map for a in naive.alternates
        ], backend
        assert fast.engine_stats is not None and fast.engine_stats["rotations"] > 0


def test_trace_parity_on_a_rotation_walk():
    """Step-by-step rotations agree on every intermediate state, not just
    the heuristic's final answer."""
    from repro.core.engine import make_engine
    from repro.core.rotation import RotationState

    graph = BENCHMARKS["lattice"].build()
    model = CONFIGS["2A2M"]
    slow = RotationState.initial(graph, model, engine=False)
    fast = {
        backend: RotationState.initial(
            graph, model, engine=make_engine(backend, graph, model)
        )
        for backend in FAST_BACKENDS
    }
    for step in [1, 2, 1, 3, 1, 1, 2, 1]:
        slow = slow.down_rotate(step)
        for backend in fast:
            state = fast[backend] = fast[backend].down_rotate(step)
            assert state.retiming == slow.retiming, backend
            assert (
                state.schedule.normalized().start_map
                == slow.schedule.normalized().start_map
            ), backend
            assert state.trace[-1] == slow.trace[-1], backend
            assert state.wrapped().period == slow.wrapped().period, backend


def test_up_rotation_parity():
    """Up-rotation runs the naive latest-fit path on every backend; on a
    down/up walk the fast engines pick up the states it returns and keep
    matching the naive path."""
    from repro.core.engine import make_engine
    from repro.core.rotation import RotationState

    graph = BENCHMARKS["elliptic"].build()
    model = CONFIGS["3A2M"]
    slow = RotationState.initial(graph, model, engine=False)
    fast = {
        backend: RotationState.initial(
            graph, model, engine=make_engine(backend, graph, model)
        )
        for backend in FAST_BACKENDS
    }
    for kind, step in [("d", 2), ("d", 1), ("u", 1), ("d", 3), ("u", 2), ("u", 1)]:
        if kind == "d":
            slow = slow.down_rotate(step)
        else:
            slow = slow.up_rotate(step)
        for backend in fast:
            prev = fast[backend]
            state = fast[backend] = (
                prev.down_rotate(step) if kind == "d" else prev.up_rotate(step)
            )
            assert state.retiming == slow.retiming, backend
            assert (
                state.schedule.normalized().start_map
                == slow.schedule.normalized().start_map
            ), backend
            assert state.trace[-1] == slow.trace[-1], backend
            assert state.wrapped().period == slow.wrapped().period, backend
