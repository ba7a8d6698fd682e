"""Property tests for the flat-array scheduling core (``repro.core.flat``).

Each flat kernel is pinned against its dict-based counterpart in
``repro.dfg.analysis`` / ``repro.schedule`` over seeded random graphs —
including tuple-id unfolded graphs and multi-edges with distinct delays —
plus a ``FlatGraph`` -> ``DFG`` round-trip identity.  The engine's
transition memos and lazy objects are pinned in ``test_vector.py``.
"""

import random

import pytest

from repro.core.flat import (
    FlatGraph,
    FlatModel,
    flat_heights,
    flat_mobility,
    flat_reach,
    flat_topological_order,
    flat_wrap_period,
    retimed_delays,
    zero_delay_lists,
)
from repro.core.rotation import RotationState
from repro.core.wrapping import wrap
from repro.dfg.analysis import (
    descendant_reach,
    height_times,
    retimed_delay,
    topological_order,
    zero_delay_adjacency,
)
from repro.dfg.graph import DFG
from repro.dfg.retiming import Retiming
from repro.dfg.unfold import unfold
from repro.errors import ZeroDelayCycleError
from repro.schedule.list_scheduler import full_schedule
from repro.schedule.priorities import mobility_priority
from repro.schedule.resources import ResourceModel
from repro.suite.random_graphs import random_dfg, random_dsp_kernel

MODEL = ResourceModel.adders_mults(2, 1)


def multi_edge_graph() -> DFG:
    """Parallel edges with distinct delays between the same node pair."""
    g = DFG("multi")
    for name, op in [("a", "add"), ("b", "mul"), ("c", "add")]:
        g.add_node(name, op)
    g.add_edge("a", "b", 0)
    g.add_edge("a", "b", 1)  # parallel, different delay
    g.add_edge("a", "b", 2)
    g.add_edge("b", "c", 0)
    g.add_edge("c", "a", 1)
    g.add_edge("c", "a", 3)
    return g


def sample_graphs():
    graphs = [
        ("random8", random_dfg(8, seed=3)),
        ("random14", random_dfg(14, seed=11)),
        ("dsp", random_dsp_kernel(taps=4, seed=5)),
        ("unfolded", unfold(random_dfg(6, seed=7), 3)),  # tuple node ids
        ("multi_edge", multi_edge_graph()),
    ]
    return graphs


def legal_retimings(graph, count=4, seed=0):
    """Zero plus a few random legal retimings (all retimed delays >= 0,
    zero-delay subgraph acyclic)."""
    rng = random.Random(seed)
    out = [Retiming.zero()]
    nodes = graph.nodes
    attempts = 0
    while len(out) < count + 1 and attempts < 120:
        attempts += 1
        r = Retiming({v: rng.randint(0, 1) for v in nodes})
        if any(retimed_delay(e, r) < 0 for e in graph.edges):
            continue
        try:
            topological_order(graph, r)
        except ZeroDelayCycleError:
            continue
        out.append(r)
    return out


@pytest.mark.parametrize("tag,graph", sample_graphs())
def test_retimed_delays_matches_analysis(tag, graph):
    fg = FlatGraph(graph)
    for r in legal_retimings(graph):
        dr = retimed_delays(fg, fg.rvec(r))
        for k, e in enumerate(graph.edges):
            assert dr[k] == retimed_delay(e, r)


@pytest.mark.parametrize("tag,graph", sample_graphs())
def test_zero_delay_lists_and_topo_match(tag, graph):
    fg = FlatGraph(graph)
    for r in legal_retimings(graph):
        dr = retimed_delays(fg, fg.rvec(r))
        zsucc, zpred = zero_delay_lists(fg, dr)
        succs, preds = zero_delay_adjacency(graph, r)
        for v, i in fg.index.items():
            assert [fg.nodes[w] for w in zsucc[i]] == succs[v]
            assert [fg.nodes[w] for w in zpred[i]] == preds[v]
        order = flat_topological_order(zsucc)
        assert order is not None
        assert [fg.nodes[i] for i in order] == topological_order(graph, r)


def test_flat_topological_order_detects_cycles():
    g = DFG("cycle")
    g.add_node("a", "add")
    g.add_node("b", "add")
    g.add_edge("a", "b", 0)
    g.add_edge("b", "a", 0)
    fg = FlatGraph(g)
    dr = retimed_delays(fg, fg.rvec(Retiming.zero()))
    assert flat_topological_order(zero_delay_lists(fg, dr)[0]) is None


@pytest.mark.parametrize("tag,graph", sample_graphs())
def test_priority_intermediates_match(tag, graph):
    fg = FlatGraph(graph)
    fm = FlatModel(fg, MODEL)
    timing = MODEL.timing()
    for r in legal_retimings(graph):
        dr = retimed_delays(fg, fg.rvec(r))
        zsucc, _ = zero_delay_lists(fg, dr)
        order = flat_topological_order(zsucc)
        reach = flat_reach(zsucc, order)
        dict_reach = descendant_reach(graph, r)
        for v, i in fg.index.items():
            got = {fg.nodes[j] for j in range(fg.n) if reach[i] >> j & 1}
            assert got == dict_reach[v]
        heights = flat_heights(fm.node_time, zsucc, order)
        dict_heights = height_times(graph, timing, r)
        assert {v: heights[i] for v, i in fg.index.items()} == dict_heights
        mob = flat_mobility(fm.node_time, zsucc, order)
        dict_mob = mobility_priority(graph, timing, r)
        assert {v: (mob[i],) for v, i in fg.index.items()} == dict_mob


@pytest.mark.parametrize("priority", ["descendants", "height", "combined", "mobility"])
@pytest.mark.parametrize("tag,graph", sample_graphs())
def test_flat_full_schedule_matches_list_scheduler(tag, graph, priority):
    from repro.core.flat.engine import FlatEngine

    engine = FlatEngine(graph, MODEL, priority)
    for r in legal_retimings(graph, count=2):
        state = engine.initial_state(r)
        reference = full_schedule(graph, MODEL, r, priority).normalized()
        assert state.schedule.start_map == reference.start_map
        for v in graph.nodes:
            assert state.schedule.unit_index(v) == reference.unit_index(v)


@pytest.mark.parametrize("tag,graph", sample_graphs())
def test_flat_wrap_period_matches_wrap(tag, graph):
    fg = FlatGraph(graph)
    fm = FlatModel(fg, MODEL)
    for r in legal_retimings(graph, count=2):
        sched = full_schedule(graph, MODEL, r).normalized()
        starts = [sched.start(v) for v in fg.nodes]
        dr = retimed_delays(fg, fg.rvec(r))
        assert flat_wrap_period(fg, fm, starts, dr) == wrap(sched, r).period


@pytest.mark.parametrize("tag,graph", sample_graphs())
def test_rotation_walk_parity_on_random_graphs(tag, graph):
    """Down- and up-rotations through the flat engine match the naive path
    state by state (starts, retimings, wrapped periods)."""
    fast = RotationState.initial(graph, MODEL)
    slow = RotationState.initial(graph, MODEL, engine=False)
    rng = random.Random(42)
    for _ in range(6):
        if slow.length <= 1:
            break
        size = rng.randint(1, min(3, slow.length - 1))
        fast, slow = fast.down_rotate(size), slow.down_rotate(size)
        assert fast.retiming == slow.retiming
        assert (
            fast.schedule.normalized().start_map
            == slow.schedule.normalized().start_map
        )
        assert fast.wrapped().period == slow.wrapped().period


@pytest.mark.parametrize("tag,graph", sample_graphs())
def test_flatgraph_roundtrip_identity(tag, graph):
    from repro.dfg.io import to_json_dict

    rebuilt = FlatGraph(graph).to_dfg()
    assert rebuilt.nodes == graph.nodes  # tuple ids survive as tuples
    for v in graph.nodes:
        assert rebuilt.op(v) == graph.op(v)
        assert rebuilt.explicit_time(v) == graph.explicit_time(v)
        assert rebuilt.attrs(v) == graph.attrs(v)
    assert [
        (e.src, e.dst, e.delay, graph.edge_init(e)) for e in graph.edges
    ] == [(e.src, e.dst, e.delay, rebuilt.edge_init(e)) for e in rebuilt.edges]
    # The canonical serialized forms agree wholesale.
    a, b = to_json_dict(graph), to_json_dict(rebuilt)
    a.pop("name"), b.pop("name")
    assert a == b


def test_flat_grid_double_booking_raises():
    from repro.core.flat.kernels import FlatGrid
    from repro.errors import SchedulingError

    g = DFG("tiny")
    g.add_node("x", "add")
    g.add_node("y", "add")
    g.add_edge("x", "y", 1)
    fg = FlatGraph(g)
    fm = FlatModel(fg, ResourceModel.adders_mults(1, 1))
    grid = FlatGrid(fm)
    assert grid.place(0, 0) == 0
    assert grid.find(1, 0) == -1  # one adder, already taken
    assert grid.place(1, 0) == -1
    with pytest.raises(SchedulingError):
        grid.occupy(1, 0, 0)
    grid.release(0, 0, 0)
    assert grid.place(1, 0) == 0


def test_flat_engine_rejects_callable_priority():
    graph = random_dfg(6, seed=1)
    from repro.core.flat.engine import FlatEngine

    with pytest.raises(ValueError):
        FlatEngine(graph, MODEL, priority=lambda g, t, r: {})


def test_make_engine_backend_resolution():
    from repro.core.engine import make_engine
    from repro.core.flat.engine import FlatEngine

    graph = random_dfg(6, seed=2)
    assert isinstance(make_engine(None, graph, MODEL), FlatEngine)
    assert isinstance(make_engine("flat", graph, MODEL), FlatEngine)
    assert make_engine("naive", graph, MODEL) is False
    # Callable priorities fall back to the naive path transparently.
    fn = lambda g, t, r: {v: (0,) for v in g.nodes}  # noqa: E731
    assert make_engine("flat", graph, MODEL, priority=fn) is False
    for gone in ("array", "views"):
        with pytest.raises(ValueError):
            make_engine(gone, graph, MODEL)


def test_callable_priority_default_backend_matches_naive():
    """A callable priority on the default backend runs the naive path and
    answers bit for bit what ``backend="naive"`` answers."""
    from repro.core.scheduler import rotation_schedule
    from repro.serve.protocol import result_payload, schedule_bits

    graph = random_dsp_kernel(taps=4, seed=5)

    def by_op_then_degree(g, timing, r):
        return {v: (g.op(v) == "mul", len(g.out_edges(v))) for v in g.nodes}

    default = rotation_schedule(graph, MODEL, priority=by_op_then_degree)
    naive = rotation_schedule(graph, MODEL, priority=by_op_then_degree, backend="naive")
    assert default.engine_stats is None  # no engine ran
    assert schedule_bits(result_payload(default)) == schedule_bits(result_payload(naive))

