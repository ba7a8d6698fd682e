"""Cross-checks carried over from the retired numpy backend.

The numpy kernels of ``repro.core.vector`` used to be pinned here against
their flat counterparts.  That backend is folded into ``flat``, so the
same cases now pin each flat kernel against an independent statement of
what it computes — the dict-based analysis in ``repro.dfg.analysis`` /
``repro.schedule`` or a structural invariant — over a graph set that also
carries a duplicated zero-delay edge.  The engine cases cover the flat
engine's determinism, struct views and lazy objects (pickling and
survival across an engine resync), the rejection of the removed backend
names, and runs with numpy made unimportable.
"""

import pickle
import random
import sys

import pytest

from repro.core.flat import (
    FlatGraph,
    FlatModel,
    flat_priority_columns,
    flat_topological_order,
    flat_wrap_period,
    retimed_delays,
    zero_delay_lists,
)
from repro.core.rotation import RotationState
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
from repro.errors import ReproError, SchedulingError, ZeroDelayCycleError
from repro.schedule.priorities import get_priority
from repro.schedule.resources import ResourceModel
from repro.suite.random_graphs import random_dfg, random_dsp_kernel

MODEL = ResourceModel.adders_mults(2, 1)
PRIORITIES = ("descendants", "height", "combined", "mobility")


def multi_edge_graph() -> DFG:
    g = DFG("multi")
    for name, op in [("a", "add"), ("b", "mul"), ("c", "add")]:
        g.add_node(name, op)
    g.add_edge("a", "b", 0)
    g.add_edge("a", "b", 1)
    g.add_edge("a", "b", 2)
    g.add_edge("a", "b", 0)  # duplicate zero-delay pair: dedup must collapse
    g.add_edge("b", "c", 0)
    g.add_edge("c", "a", 1)
    g.add_edge("c", "a", 3)
    return g


def sample_graphs():
    return [
        ("random8", random_dfg(8, seed=3)),
        ("random14", random_dfg(14, seed=11)),
        ("dsp", random_dsp_kernel(taps=4, seed=5)),
        ("unfolded", unfold(random_dfg(6, seed=7), 3)),  # tuple node ids
        ("multi_edge", multi_edge_graph()),
    ]


def legal_retimings(graph, count=4, seed=0):
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


def _zero_edges(graph, fg, dr):
    """The zero-delay ``(src, dst)`` index pairs, straight from ``dr``."""
    return {
        (fg.index[e.src], fg.index[e.dst])
        for e, d in zip(graph.edges, dr)
        if d == 0
    }


@pytest.fixture
def no_numpy(monkeypatch):
    """Make ``import numpy`` fail for the duration of a test."""
    monkeypatch.setitem(sys.modules, "numpy", None)


# ----------------------------------------------------------------------
# flat kernels vs independent references
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tag,graph", sample_graphs())
def test_vec_retimed_delays_matches_flat(tag, graph):
    fg = FlatGraph(graph)
    for r in legal_retimings(graph):
        dr = retimed_delays(fg, fg.rvec(r))
        assert dr == [retimed_delay(e, r) for e in graph.edges]
        assert min(dr) >= 0  # legal retimings keep every delay non-negative


@pytest.mark.parametrize("tag,graph", sample_graphs())
def test_vec_zero_delay_lists_match_flat(tag, graph):
    """Successor and predecessor lists are mutual inverses, hold each
    zero-delay pair once (parallel edges collapse), and cover exactly the
    edges whose retimed delay is zero."""
    fg = FlatGraph(graph)
    for r in legal_retimings(graph):
        dr = retimed_delays(fg, fg.rvec(r))
        zsucc, zpred = zero_delay_lists(fg, dr)
        succ_pairs = [(u, w) for u in range(fg.n) for w in zsucc[u]]
        pred_pairs = [(u, w) for w in range(fg.n) for u in zpred[w]]
        assert len(succ_pairs) == len(set(succ_pairs))
        assert sorted(succ_pairs) == sorted(pred_pairs)
        assert set(succ_pairs) == _zero_edges(graph, fg, dr)


@pytest.mark.parametrize("tag,graph", sample_graphs())
def test_vec_topo_layers_are_valid_and_detect_cycles(tag, graph):
    fg = FlatGraph(graph)
    for r in legal_retimings(graph):
        dr = retimed_delays(fg, fg.rvec(r))
        zsucc, _ = zero_delay_lists(fg, dr)
        order = flat_topological_order(zsucc)
        assert order is not None
        level = {v: i for i, v in enumerate(order)}
        # every node exactly once, every zero-delay edge strictly downward
        assert sorted(level) == list(range(fg.n))
        for u, w in _zero_edges(graph, fg, dr):
            assert level[u] < level[w]


def test_vec_topo_layers_cycle_returns_none():
    assert flat_topological_order([[1], [0]]) is None
    assert flat_topological_order([[0]]) is None  # zero-delay self-loop
    assert flat_topological_order([[1], [2], [1]]) is None  # cycle past a prefix


@pytest.mark.parametrize("priority", PRIORITIES)
@pytest.mark.parametrize("tag,graph", sample_graphs())
def test_vec_priority_columns_match_flat(tag, graph, priority):
    """The fused ``(reach, heights, skey)`` columns match the dict-based
    analyses, and each sort key is the dict scheduler's
    ``(-p0, -p1, ..., node_index)`` for the named priority."""
    fg = FlatGraph(graph)
    fm = FlatModel(fg, MODEL)
    timing = MODEL.timing()
    prio_fn = get_priority(priority)
    for r in legal_retimings(graph):
        dr = retimed_delays(fg, fg.rvec(r))
        zsucc, _ = zero_delay_lists(fg, dr)
        order = flat_topological_order(zsucc)
        reach, heights, skey = flat_priority_columns(
            priority, fm.node_time, zsucc, order
        )
        if reach is not None:
            dict_reach = descendant_reach(graph, r)
            for v, i in fg.index.items():
                got = {fg.nodes[j] for j in range(fg.n) if reach[i] >> j & 1}
                assert got == dict_reach[v]
        if heights is not None:
            dict_heights = height_times(graph, timing, r)
            assert {v: heights[i] for v, i in fg.index.items()} == dict_heights
        prio = prio_fn(graph, timing, r)
        assert skey == [
            tuple(-p for p in prio[v]) + (i,) for i, v in enumerate(fg.nodes)
        ]


def test_vec_priority_columns_rejects_unknown_priority():
    with pytest.raises(ValueError, match="no flat sort keys"):
        flat_priority_columns("zigzag", [1, 1], [[], []], [0, 1])


@pytest.mark.parametrize("tag,graph", sample_graphs())
def test_vec_wrap_period_matches_flat(tag, graph):
    """Along a rotation walk, the flat wrap kernel over each state's
    starts and retimed delays gives the naive state's wrapped period."""
    fg = FlatGraph(graph)
    fm = FlatModel(fg, MODEL)
    state = RotationState.initial(graph, MODEL, engine=False)
    for _ in range(4):
        sched = state.schedule.normalized()
        starts = [sched.start(v) for v in fg.nodes]
        dr = retimed_delays(fg, fg.rvec(state.retiming))
        assert flat_wrap_period(fg, fm, starts, dr) == state.wrapped().period
        if state.length <= 1:
            break
        state = state.down_rotate(1)


# ----------------------------------------------------------------------
# engine walks: determinism, struct views, laziness, pickling
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tag,graph", sample_graphs())
def test_vector_rotation_walk_matches_naive(tag, graph):
    """Down- and up-rotations through an explicit flat engine match the
    naive path state by state; up-rotation runs the naive path, so the
    down-rotations after it check that the engine picks up a state it did
    not mint."""
    from repro.core.engine import make_engine

    fast = RotationState.initial(
        graph, MODEL, engine=make_engine("flat", graph, MODEL)
    )
    slow = RotationState.initial(graph, MODEL, engine=False)
    rng = random.Random(42)
    for step in range(8):
        if slow.length <= 1:
            break
        size = rng.randint(1, min(3, slow.length - 1))
        if step % 4 == 3:
            fast, slow = fast.up_rotate(size), slow.up_rotate(size)
        else:
            fast, slow = fast.down_rotate(size), slow.down_rotate(size)
        assert fast.retiming == slow.retiming
        assert (
            fast.schedule.normalized().start_map
            == slow.schedule.normalized().start_map
        )
        assert fast.wrapped().period == slow.wrapped().period


def test_rotating_one_state_twice_gives_equal_states():
    """A rotation is a pure function of its state: rotating the same state
    twice (the second time off the chain tip, on a reseeded grid) gives
    equal states."""
    from repro.core.engine import make_engine

    graph = random_dsp_kernel(taps=4, seed=5)
    engine = make_engine("flat", graph, MODEL)
    s0 = RotationState.initial(graph, MODEL, engine=engine)
    first = s0.down_rotate(2)
    again = s0.down_rotate(2)
    assert again == first
    assert again.schedule.normalized().start_map == first.schedule.normalized().start_map
    assert again.schedule.normalized().unit_map == first.schedule.normalized().unit_map
    assert again.wrapped().period == first.wrapped().period


def test_reseeded_initial_schedule_reuses_its_struct_view():
    from repro.core.engine import make_engine

    graph = random_dfg(10, seed=2)
    engine = make_engine("flat", graph, MODEL)
    a = engine.initial_state()
    before = engine.stats()["view_hits"]
    b = engine.initial_state()
    assert engine.stats()["view_hits"] == before + 1
    assert a.schedule.start_map == b.schedule.start_map


def test_lazy_state_pickles_and_materializes():
    from repro.core.engine import make_engine

    graph = random_dfg(9, seed=4)
    engine = make_engine("flat", graph, MODEL)
    state = RotationState.initial(graph, MODEL, engine=engine).down_rotate(1)
    blob = pickle.loads(pickle.dumps(state))  # engine stripped by __getstate__
    assert blob.retiming == state.retiming
    assert blob.schedule.start_map == state.schedule.start_map
    # A rebound (engine-less) state can keep rotating through a fresh engine.
    slow = blob.down_rotate(1)
    fast = state.down_rotate(1)
    assert slow.retiming == fast.retiming
    assert (
        slow.schedule.normalized().start_map
        == fast.schedule.normalized().start_map
    )


def test_lazy_objects_survive_resync():
    """Regression: lazy schedules/retimings must materialize against the
    node order they were minted under, even after the engine has resynced
    to an edited graph (sessions hold the previous solution across edits —
    repairs diverged from naive before this was pinned)."""
    from repro.core.session import open_session

    graph = random_dsp_kernel(taps=3, seed=0, recursive=True)
    sessions = {
        b: open_session(graph, MODEL, backend=b) for b in ("flat", "naive")
    }
    for s in sessions.values():
        s.resolve()
    victim = graph.nodes[len(graph.nodes) // 2]
    for s in sessions.values():
        s.apply_edit({"edit": "remove_node", "node": victim})
    flat = sessions["flat"].resolve()
    ref = sessions["naive"].resolve()
    assert flat.length == ref.length
    assert flat.retiming == ref.retiming
    assert flat.schedule.start_map == ref.schedule.start_map


def test_make_engine_vector_resolution():
    """The removed ``vector`` backend name is rejected, naming the two
    backends that remain."""
    from repro.core.engine import BACKENDS, make_engine
    from repro.core.scheduler import rotation_schedule

    assert BACKENDS == ("flat", "naive")
    graph = random_dfg(6, seed=2)
    with pytest.raises(SchedulingError, match=r"unknown backend 'vector'.*'flat'"):
        make_engine("vector", graph, MODEL)
    with pytest.raises(ReproError, match="unknown backend 'vector'"):
        rotation_schedule(graph, MODEL, backend="vector")


try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional dev dep
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(3, 9),
        edges=st.lists(
            st.tuples(
                st.integers(0, 8), st.integers(0, 8), st.integers(0, 2)
            ),
            min_size=2,
            max_size=20,
        ),
    )
    def test_vec_structural_kernels_on_arbitrary_graphs(n, edges):
        """Arbitrary multigraphs (cycles included): the flat kernels and
        the dict-based analyses agree — same dr, same adjacency, same
        cycle verdict, same sort keys when acyclic."""
        g = DFG("hyp")
        for i in range(n):
            g.add_node(f"v{i}", "add" if i % 2 else "mul")
        for a, b, d in edges:
            g.add_edge(f"v{a % n}", f"v{b % n}", d)
        fg = FlatGraph(g)
        fm = FlatModel(fg, MODEL)
        r = Retiming.zero()
        dr = retimed_delays(fg, fg.rvec(r))
        assert dr == [e.delay for e in g.edges]
        zsucc, zpred = zero_delay_lists(fg, dr)
        succs, preds = zero_delay_adjacency(g, r)
        for v, i in fg.index.items():
            assert [fg.nodes[w] for w in zsucc[i]] == succs[v]
            assert [fg.nodes[w] for w in zpred[i]] == preds[v]
        order = flat_topological_order(zsucc)
        try:
            topological_order(g, r)
        except ZeroDelayCycleError:
            assert order is None
            return
        assert order is not None
        _, _, skey = flat_priority_columns("combined", fm.node_time, zsucc, order)
        prio = get_priority("combined")(g, MODEL.timing(), r)
        assert skey == [
            tuple(-p for p in prio[v]) + (i,) for i, v in enumerate(fg.nodes)
        ]


# ----------------------------------------------------------------------
# numpy made unimportable: nothing under ``repro`` may need it
# ----------------------------------------------------------------------
class TestMissingNumpy:
    def test_vector_backend_raises_clear_error(self, no_numpy):
        from repro.core.engine import make_engine
        from repro.core.scheduler import rotation_schedule

        graph = random_dfg(6, seed=1)
        with pytest.raises(SchedulingError, match="choose from"):
            make_engine("vector", graph, MODEL)
        with pytest.raises(ReproError, match="'flat', 'naive'"):
            rotation_schedule(graph, MODEL, backend="vector")

    def test_scalar_backends_keep_working(self, no_numpy):
        from repro.core.scheduler import rotation_schedule

        graph = random_dfg(6, seed=1)
        flat = rotation_schedule(graph, MODEL, backend="flat")
        naive = rotation_schedule(graph, MODEL, backend="naive")
        assert flat.length == naive.length
        assert flat.retiming == naive.retiming
        assert flat.schedule.start_map == naive.schedule.start_map

    def test_parity_path_still_covers_scalar_backends(self, no_numpy):
        from repro.qa.runner import run_cell_on_graph
        from repro.suite.random_graphs import build_case_graph

        # build_case_graph attaches the simulable affine semantics the
        # parity path's certification oracle executes
        graph = build_case_graph("random_dfg", {"num_nodes": 6, "seed": 1})
        failures = run_cell_on_graph(graph, "1A1M", "parity")
        assert failures == []
