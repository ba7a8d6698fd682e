"""FlatGraph in-place CSR patching equals a fresh compile, field for field."""

import random

import pytest

from repro import DFG, diffeq, elliptic, lattice
from repro.core.flat import FlatGraph

FIELDS = (
    "nodes", "index", "n", "m",
    "esrc", "edst", "edelay", "eids", "epos",
    "out_ptr", "out_edge", "in_ptr", "in_edge",
    "out_at", "in_at",
    "opclass", "op_names",
)


def assert_flat_equal(patched: FlatGraph, fresh: FlatGraph):
    for f in FIELDS:
        a, b = getattr(patched, f), getattr(fresh, f)
        if f in ("esrc", "edst", "edelay", "eids", "out_ptr", "out_edge",
                 "in_ptr", "in_edge", "opclass"):
            a, b = list(a), list(b)
        assert a == b, f"FlatGraph.{f} diverged after patching: {a!r} != {b!r}"


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


class TestApplyDelta:
    @pytest.mark.parametrize("bench", [diffeq, elliptic, lattice])
    @pytest.mark.parametrize("seed", range(6))
    def test_patched_equals_fresh_compile(self, bench, seed):
        graph = bench()
        fg = FlatGraph(graph)
        rng = random.Random(seed)
        counter = [0]
        for step in range(8):
            epoch = graph.epoch
            mutate(graph, rng, counter)
            edits = graph.edits_since(epoch)
            assert edits is not None
            if not fg.apply_delta(edits):
                fg = FlatGraph(graph)  # damage threshold: recompile
            assert_flat_equal(fg, FlatGraph(graph))

    def test_to_dfg_exact_after_patching(self):
        graph = diffeq()
        fg = FlatGraph(graph)
        epoch = graph.epoch
        graph.add_node("fx", "mul")
        e = graph.add_edge("fx", graph.nodes[0], 1)
        graph.set_delay(e, 2)
        graph.remove_node(graph.nodes[1])
        assert fg.apply_delta(graph.edits_since(epoch))
        back = fg.to_dfg()
        assert back.nodes == graph.nodes
        assert [(x.src, x.dst, x.delay) for x in back.edges] == [
            (x.src, x.dst, x.delay) for x in graph.edges
        ]

    def test_empty_delta_is_noop(self):
        graph = diffeq()
        fg = FlatGraph(graph)
        assert fg.apply_delta([])
        assert_flat_equal(fg, FlatGraph(graph))

    def test_damage_threshold_requests_recompile(self):
        graph = elliptic()
        fg = FlatGraph(graph)
        epoch = graph.epoch
        # Structural churn well past max(8, (n+m)//2) edits.
        for i in range(fg.n + fg.m):
            graph.add_node(f"fx{i}", "add")
            graph.add_edge(f"fx{i}", graph.nodes[0], 1)
        assert fg.apply_delta(graph.edits_since(epoch)) is False

    def test_set_delay_only_patch_is_cheap_and_exact(self):
        graph = lattice()
        fg = FlatGraph(graph)
        epoch = graph.epoch
        for e in graph.edges[:4]:
            graph.set_delay(e, e.delay + 1)
        assert fg.apply_delta(graph.edits_since(epoch))
        assert_flat_equal(fg, FlatGraph(graph))
