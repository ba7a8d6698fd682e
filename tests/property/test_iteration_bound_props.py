"""Property-based tests for the iteration bound."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.dfg import Timing, critical_cycle, critical_path_length, iteration_bound
from repro.dfg.iteration_bound import iteration_bound_ceil
from repro.suite import random_chain_loop, random_dfg
from tests.cycle_reference import cycle_ratios, enumerated_bound

graph_seeds = st.integers(0, 10_000)
timing = Timing({"add": 1, "mul": 2})


class TestIterationBoundProps:
    @given(graph_seeds)
    @settings(max_examples=40, deadline=None)
    def test_enumerate_equals_parametric(self, seed):
        """The cycle-improvement routine (parametric weights
        ``p*d(e) - q*t(src)``) finds the largest enumerated ratio, under
        the op timing and under per-node times."""
        g = random_dfg(12, seed=seed)
        assert iteration_bound(g, timing) == enumerated_bound(g, timing)
        assert iteration_bound(g, Timing.unit()) == enumerated_bound(g, Timing.unit())

    @given(graph_seeds)
    @settings(max_examples=40, deadline=None)
    def test_critical_cycle_is_an_enumerated_maximum(self, seed):
        """The witness is one of the enumerated cycles, and a maximal one."""
        g = random_dfg(12, seed=seed)
        ratio, cycle = critical_cycle(g, timing)
        ratios = cycle_ratios(g, timing)
        if not ratios:
            assert (ratio, cycle) == (0, [])
            return
        rotations = {tuple(c[i:] + c[:i]): r for r, c in ratios for i in range(len(c))}
        assert rotations[tuple(cycle)] == ratio == max(r for r, _ in ratios)

    @given(graph_seeds, st.integers(4, 24))
    @settings(max_examples=40, deadline=None)
    def test_ceiling_of_exact_bound(self, seed, n):
        """``iteration_bound_ceil`` rounds the exact bound up, exactly."""
        g = random_dfg(n, seed=seed)
        assert iteration_bound_ceil(g, timing) == math.ceil(enumerated_bound(g, timing))

    @given(graph_seeds)
    @settings(max_examples=30, deadline=None)
    def test_bound_nonnegative_and_rational(self, seed):
        g = random_dfg(12, seed=seed)
        bound = iteration_bound(g, timing)
        assert isinstance(bound, Fraction)
        assert bound >= 0

    @given(graph_seeds)
    @settings(max_examples=30, deadline=None)
    def test_scaling_times_scales_bound(self, seed):
        """Doubling every computation time doubles the bound exactly."""
        g = random_dfg(12, seed=seed)
        doubled = Timing({"add": 2, "mul": 4})
        assert iteration_bound(g, doubled) == 2 * iteration_bound(g, timing)

    @given(st.integers(2, 5), st.integers(2, 4), graph_seeds)
    @settings(max_examples=25, deadline=None)
    def test_ring_bound_formula(self, stages, stage_len, seed):
        """For the stage-ring generator the max-ratio cycle is the whole
        ring: total time / total delay, unless a heavier local ratio wins.
        The bound is always >= ring_time / stages."""
        g = random_chain_loop(num_stages=stages, stage_len=stage_len, seed=seed)
        total_time = sum(g.time(v, timing) for v in g.nodes)
        bound = iteration_bound(g, timing)
        assert bound >= Fraction(total_time, stages)

    @given(graph_seeds)
    @settings(max_examples=25, deadline=None)
    def test_adding_delay_never_raises_bound(self, seed):
        """Extra delay on a back edge can only lower (or keep) the bound."""
        g = random_dfg(12, seed=seed)
        before = iteration_bound(g, timing)
        delayed = [e for e in g.edges if e.delay >= 1]
        if not delayed:
            return
        target = delayed[0]
        g2 = g.copy()
        edge2 = next(
            e for e in g2.edges if (e.src, e.dst, e.delay) == (target.src, target.dst, target.delay)
        )
        g2.remove_edge(edge2)
        g2.add_edge(target.src, target.dst, target.delay + 1)
        assert iteration_bound(g2, timing) <= before
