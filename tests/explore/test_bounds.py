"""Solver-free lower bounds: cycles, registers, and their cell points."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.scheduler import rotation_schedule
from repro.binding.lifetimes import register_requirement
from repro.explore import CellSpec, cell_bound, cell_cost, cell_model, register_lower_bound
from repro.explore.bounds import bound_graph, clear_caches
from repro.schedule.resources import ResourceModel
from repro.suite import random_dfg, unfolded_dfg


GRID = [
    CellSpec("diffeq", 1, 1, clock_ns=50),
    CellSpec("diffeq", 2, 2, clock_ns=100),
    CellSpec("biquad", 2, 1, clock_ns=40),
    CellSpec("biquad", 1, 1, clock_ns=50, unfold=2),
    CellSpec("elliptic", 2, 1, clock_ns=50),
    CellSpec("allpole", 2, 1, pipelined=True, clock_ns=50),
    # 78 nodes: above any size where enumerating cycles stays cheap
    CellSpec("lattice", 6, 8, pipelined=True, clock_ns=40, unfold=3),
]


@pytest.mark.parametrize("spec", GRID, ids=lambda s: s.label())
def test_bound_never_exceeds_achieved(spec):
    """Soundness property: the cell bound is a true lower bound on every
    axis of the achieved objective point."""
    bound = cell_bound(spec)
    result = rotation_schedule(
        bound_graph(spec), cell_model(spec), heuristic=spec.heuristic, backend="flat"
    )
    registers = register_requirement(result.schedule, result.retiming, result.length)
    assert bound.lb_cycles <= result.length
    assert bound.lb_point.cost == cell_cost(spec)
    achieved_period = spec.clock_ns * result.length / spec.unfold
    assert bound.lb_point.period_ns <= achieved_period
    assert bound.lb_point.registers <= registers / spec.unfold


BOUND_MODELS = {
    "2A1M": ResourceModel.adders_mults(2, 1),
    # Ample units: solves reach periods short enough that the bound's
    # floor(t(C)/P) term is nonzero, so a bound that drops it overshoots.
    "8A8M": ResourceModel.adders_mults(8, 8),
}


@given(st.integers(0, 10_000), st.booleans(), st.sampled_from(sorted(BOUND_MODELS)))
@example(69, False, "8A8M")
@example(163, True, "8A8M")
@settings(max_examples=40, deadline=None)
def test_register_bound_at_the_achieved_length(seed, unfolded, config):
    """Soundness on random graphs: the peeled register bound at the length
    a solve achieves never exceeds that schedule's registers."""
    graph = unfolded_dfg(5, seed=seed) if unfolded else random_dfg(10, seed=seed)
    model = BOUND_MODELS[config]
    result = rotation_schedule(graph, model, heuristic="h2")
    registers = register_requirement(result.schedule, result.retiming, result.length)
    assert register_lower_bound(graph, model.timing(), result.length) <= registers


def test_critical_nodes_name_base_nodes():
    spec = CellSpec("biquad", 1, 1, clock_ns=50, unfold=2)
    crit = cell_bound(spec).critical_nodes
    assert crit  # the binding cycle exists
    base_nodes = {str(v) for v in bound_graph(CellSpec("biquad", 1, 1)).nodes}
    assert crit <= base_nodes  # unfolded copies fold back to base names


def test_bounds_are_cached():
    clear_caches()
    spec = GRID[0]
    assert cell_bound(spec) is cell_bound(spec)
    assert bound_graph(spec) is bound_graph(spec)
    clear_caches()
