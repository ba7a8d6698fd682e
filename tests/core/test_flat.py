"""Property tests for the flat-array scheduling core (``repro.core.flat``).

Each flat kernel is pinned against its dict-based counterpart in
``repro.dfg.analysis`` / ``repro.schedule`` over seeded random graphs —
including tuple-id unfolded graphs and multi-edges with distinct delays —
plus a ``FlatGraph`` -> ``DFG`` round-trip identity and the compile of
randomly edited benchmark graphs against the DFG's own incidence API.
The engine's determinism, struct views and lazy objects are pinned in
``test_vector.py``.
"""

import random
import re

import pytest

from repro import diffeq, elliptic, lattice
from repro.core.flat import (
    FlatGraph,
    FlatModel,
    flat_heights,
    flat_mobility,
    flat_priority_columns,
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
from repro.errors import SchedulingError, ZeroDelayCycleError
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


def mutate(graph: DFG, rng: random.Random, fresh_counter: list) -> None:
    """One random in-place structural/timing mutation."""
    kind = rng.randrange(6)
    nodes = graph.nodes
    if kind == 0:  # add node
        node = f"fx{fresh_counter[0]}"
        fresh_counter[0] += 1
        graph.add_node(node, rng.choice(["add", "mul"]))
        if nodes:
            graph.add_edge(rng.choice(nodes), node, rng.randint(1, 2))
    elif kind == 1 and graph.num_nodes > 3:  # remove node
        graph.remove_node(rng.choice(nodes))
    elif kind == 2 and len(nodes) >= 2:  # add edge
        graph.add_edge(rng.choice(nodes), rng.choice(nodes), rng.randint(0, 3))
    elif kind == 3 and graph.num_edges > 1:  # remove edge
        graph.remove_edge(rng.choice(graph.edges))
    elif kind == 4 and graph.num_edges:  # set delay
        graph.set_delay(rng.choice(graph.edges), rng.randint(0, 3))
    elif kind == 5 and nodes:  # set exec time
        graph.set_exec_time(rng.choice(nodes), rng.randint(1, 3))


@pytest.mark.parametrize("bench", [diffeq, elliptic, lattice])
@pytest.mark.parametrize("seed", range(6))
def test_compile_after_mutations_matches_dfg_api(bench, seed):
    """The one-pass compile of an edited graph (removals leave gaps in the
    edge ids, set_delay rewrites edges in place) agrees with the DFG's own
    incidence API and first-appearance op numbering."""
    graph = bench()
    rng = random.Random(seed)
    counter = [0]
    for _ in range(8):
        mutate(graph, rng, counter)
    fg = FlatGraph(graph)
    edges = graph.edges
    pos = {e.eid: k for k, e in enumerate(edges)}
    assert fg.nodes == graph.nodes and (fg.n, fg.m) == (graph.num_nodes, len(edges))
    assert list(fg.esrc) == [fg.index[e.src] for e in edges]
    assert list(fg.edst) == [fg.index[e.dst] for e in edges]
    assert list(fg.edelay) == [e.delay for e in edges]
    assert list(fg.eids) == [e.eid for e in edges]
    for i, v in enumerate(graph.nodes):
        assert fg.out_at[i] == tuple(pos[e.eid] for e in graph.out_edges(v))
        assert fg.in_at[i] == tuple(pos[e.eid] for e in graph.in_edges(v))
    ops = list(dict.fromkeys(graph.op(v) for v in graph.nodes))
    assert fg.op_names == ops
    assert list(fg.opclass) == [ops.index(graph.op(v)) for v in graph.nodes]


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
    assert grid.find(0, 0) == 0
    grid.occupy(0, 0, 0)
    assert grid.find(1, 0) == -1  # one adder, already taken
    with pytest.raises(SchedulingError):
        grid.occupy(1, 0, 0)
    grid.release_many([0], [0, None], [0, None])
    assert grid.find(1, 0) == 0
    grid.occupy(1, 0, 0)


# ----------------------------------------------------------------------
# flat_list_schedule's saturated-step jumps against the naive scheduler
# ----------------------------------------------------------------------
def _flat_place(graph, model, r, fixed_start, fixed_units, todo, floor_cs, skey=None):
    """``flat_list_schedule`` on the naive scheduler's arguments."""
    from repro.core.flat.kernels import flat_list_schedule, seed_grid

    fg = FlatGraph(graph)
    fm = FlatModel(fg, model)
    zsucc, zpred = zero_delay_lists(fg, retimed_delays(fg, fg.rvec(r)))
    if skey is None:
        skey = flat_priority_columns(
            "descendants", fm.node_time, zsucc, flat_topological_order(zsucc)
        )[2]
    start = [None] * fg.n
    units = [None] * fg.n
    for v, cs in fixed_start.items():
        start[fg.index[v]] = cs
        units[fg.index[v]] = fixed_units.get(v)
    grid = seed_grid(fg, fm, start, units)
    todo_idx = sorted(fg.index[v] for v in todo)
    flat_list_schedule(fg, fm, zsucc, zpred, skey, start, units, todo_idx, floor_cs, grid)
    return {v: (start[i], units[i]) for v, i in fg.index.items()}


def _naive_place(graph, model, r, fixed_start, fixed_units, todo, floor_cs):
    from repro.schedule.list_scheduler import _list_schedule

    sched = _list_schedule(
        graph, model, fixed_start, fixed_units, list(todo), r, "descendants", floor_cs
    )
    return {v: (sched.start(v), sched.unit_index(v)) for v in graph.nodes}


JUMP_MODELS = {
    "1A1M": ResourceModel.adders_mults(1, 1),  # 2-cycle non-pipelined mult
    "1A1M3": ResourceModel.adders_mults(1, 1, mult_latency=3),
    "1A1Mp": ResourceModel.adders_mults(1, 1, pipelined_mults=True),
    "2A1M": ResourceModel.adders_mults(2, 1),
}


@pytest.mark.parametrize("model_key", sorted(JUMP_MODELS))
@pytest.mark.parametrize("seed", range(4))
def test_flat_list_schedule_jumps_match_naive(model_key, seed):
    """Dense grids: a full schedule, then random halves pinned in place
    and the rest re-placed from random floors, on both schedulers."""
    model = JUMP_MODELS[model_key]
    graph = random_dfg(12 + 4 * seed, seed=seed, forward_density=0.1)
    rng = random.Random(seed)
    for r in legal_retimings(graph, count=2, seed=seed):
        full = _naive_place(graph, model, r, {}, {}, graph.nodes, 0)
        assert _flat_place(graph, model, r, {}, {}, graph.nodes, 0) == full
        for _ in range(4):
            todo = [v for v in graph.nodes if rng.random() < 0.5]
            todo_set = set(todo)
            fixed_start = {v: full[v][0] for v in graph.nodes if v not in todo_set}
            fixed_units = {v: full[v][1] for v in fixed_start}
            floor_cs = rng.randint(0, 3)
            args = (graph, model, r, fixed_start, fixed_units, todo, floor_cs)
            assert _flat_place(*args) == _naive_place(*args)


def test_flat_list_schedule_probes_every_busy_offset():
    """A non-pipelined mult whose slot is free at offset 0 but taken at a
    later offset must wait out the pinned mult, not place early."""
    g = DFG("offsets")
    for v in ("m0", "m1", "m2"):
        g.add_node(v, "mul")
    g.add_node("a", "add")
    g.add_edge("a", "m1", 0)
    g.add_edge("m2", "a", 1)
    model = ResourceModel.adders_mults(1, 1, mult_latency=3)
    r = Retiming.zero()
    fixed_start, fixed_units = {"m0": 2, "a": 0}, {"m0": 0, "a": 0}
    todo = ["m1", "m2"]
    expected = _naive_place(g, model, r, fixed_start, fixed_units, todo, 0)
    # CS 0 and 1 are free but each window reaches m0 at CS 2; CS 2-4 are
    # m0's own, so both mults follow it, m1 (ready at 1) first
    assert expected["m1"] == (5, 0) and expected["m2"] == (8, 0)
    assert _flat_place(g, model, r, fixed_start, fixed_units, todo, 0) == expected


def test_flat_list_schedule_infeasible_placements_raise_alike():
    from repro.schedule.list_scheduler import _list_schedule

    model = ResourceModel.adders_mults(1, 1)
    # A fixed placement over-subscribing the one adder.
    g = DFG("busy")
    for v in ("x", "y", "z"):
        g.add_node(v, "add")
    r = Retiming.zero()
    args = (g, model, r, {"x": 0, "y": 0}, {}, ["z"], 0)
    with pytest.raises(SchedulingError, match="fixed placement infeasible") as naive:
        _naive_place(*args)
    with pytest.raises(SchedulingError, match=re.escape(str(naive.value))):
        _flat_place(*args)
    # Todo nodes that can never become ready (a zero-delay cycle inside the
    # reschedule set) run into the divergence guard on both schedulers.
    g = DFG("stuck")
    for v in ("a", "b", "c"):
        g.add_node(v, "add")
    g.add_edge("a", "b", 0)
    g.add_edge("b", "a", 0)
    flat_keys = [(0, i) for i in range(3)]
    with pytest.raises(SchedulingError, match=r"failed to converge \(placed 1/3") as naive:
        _list_schedule(g, model, {}, {}, ["a", "b", "c"], r,
                       lambda graph, timing, rr: {v: (0,) for v in graph.nodes}, 0)
    with pytest.raises(SchedulingError, match=re.escape(str(naive.value))):
        _flat_place(g, model, r, {}, {}, ["a", "b", "c"], 0, skey=flat_keys)


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
        with pytest.raises(SchedulingError, match="unknown backend"):
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

