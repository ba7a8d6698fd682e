"""Property-based tests for the extension modules: wrapping/rerooting,
unfolding, chaining and conditional scheduling."""

import math

from hypothesis import example, given, settings, strategies as st

from repro.dfg import Timing, iteration_bound
from repro.dfg.unfold import unfold
from repro.schedule import ResourceModel
from repro.schedule.chaining import chained_full_schedule
from repro.schedule.conditional import conditional_full_schedule, set_guard
from repro.core import RotationState, reroot, wrap
from repro.suite import random_dfg, random_dsp_kernel

seeds = st.integers(0, 5_000)
models = st.sampled_from(
    [
        ResourceModel.adders_mults(1, 1),
        ResourceModel.adders_mults(2, 2, pipelined_mults=True),
    ]
)


class TestWrappingProps:
    @given(seeds, models, st.integers(0, 4))
    @settings(max_examples=25, deadline=None)
    def test_wrap_always_legal_and_tight(self, seed, model, rotations):
        g = random_dfg(10, seed=seed)
        state = RotationState.initial(g, model)
        for _ in range(rotations):
            if state.length > 1:
                state = state.down_rotate(1)
        w = wrap(state.schedule, state.retiming)
        assert w.violations() == []
        # tightness: period - 1 must be illegal (wrap returns the minimum)
        if w.period > 1:
            from repro.schedule.verify import (
                modulo_precedence_violations,
                modulo_resource_conflicts,
            )

            sched = w.schedule
            smaller_ok = (
                max(sched.start(v) for v in g.nodes) + 1 <= w.period - 1
                and not modulo_resource_conflicts(
                    g, model, sched.start_map, w.period - 1
                )
                and not modulo_precedence_violations(
                    g, model, sched.start_map, w.period - 1, w.retiming
                )
            )
            assert not smaller_ok

    @given(seeds, models)
    @settings(max_examples=20, deadline=None)
    def test_every_reroot_pivot_stays_legal(self, seed, model):
        g = random_dfg(10, seed=seed)
        state = RotationState.initial(g, model)
        w = wrap(state.schedule, state.retiming)
        for pivot in range(w.period):
            out = reroot(w, pivot)
            assert out.period == w.period
            assert out.violations() == []


class TestUnfoldProps:
    @given(seeds, st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_delay_conservation_and_bound_scaling(self, seed, factor):
        g = random_dfg(10, seed=seed)
        gf = unfold(g, factor)
        assert gf.total_delay() == g.total_delay()
        timing = Timing({"add": 1, "mul": 2})
        assert iteration_bound(gf, timing) == factor * iteration_bound(g, timing)

    @given(st.integers(0, 200), st.integers(2, 3))
    @settings(max_examples=10, deadline=None)
    def test_unfolded_semantics(self, seed, factor):
        from repro.sim import reference_run

        g = random_dsp_kernel(4, seed=seed)
        n = 6
        original = reference_run(g, factor * n)
        unfolded = reference_run(unfold(g, factor), n)
        for v in g.nodes:
            for j in range(factor):
                for k in range(n):
                    assert math.isclose(
                        unfolded[(v, j)][k], original[v][factor * k + j],
                        rel_tol=1e-9, abs_tol=1e-12,
                    )


class TestChainedProps:
    @given(seeds, st.sampled_from([50, 80, 100, 150]))
    @settings(max_examples=25, deadline=None)
    def test_always_legal_and_clock_monotone(self, seed, cs):
        from repro.schedule.chaining import paper_technology

        timing, _, units, binding = paper_technology()
        g = random_dfg(10, seed=seed)
        sched = chained_full_schedule(g, timing, cs, units, binding)
        assert sched.violations() == []
        # a longer clock never needs more control steps
        longer = chained_full_schedule(g, timing, cs * 2, units, binding)
        assert longer.violations() == []
        assert longer.length <= sched.length


class TestConditionalProps:
    @given(seeds)
    @example(1921)  # greedy anomalies: the sharing pass alone is one CS longer
    @example(3434)
    @settings(max_examples=25, deadline=None)
    def test_guarding_never_lengthens(self, seed):
        """Adding exclusivity can only help: the guarded schedule is never
        longer than the unguarded one."""
        model = ResourceModel.adders_mults(1, 1)
        base = random_dfg(10, seed=seed)
        plain = conditional_full_schedule(base, model)
        guarded_graph = random_dfg(10, seed=seed)
        # guard alternating nodes into opposite branches of one condition
        for i, v in enumerate(guarded_graph.nodes):
            set_guard(guarded_graph, v, [("c", i % 2 == 0)])
        guarded = conditional_full_schedule(guarded_graph, model)
        assert guarded.violations() == []
        assert guarded.length <= plain.length
