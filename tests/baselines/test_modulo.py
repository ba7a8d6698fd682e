"""Unit tests for the iterative modulo scheduling baseline."""

import pytest

from repro.schedule import ResourceModel, is_legal_modulo_schedule
from repro.baselines import min_initiation_interval, modulo_schedule
from repro.errors import SchedulingError
from repro.schedule.list_scheduler import full_schedule
from repro.suite import all_benchmarks, diffeq, lattice, biquad, random_dfg


class TestMII:
    def test_recurrence_bound_dominates(self):
        model = ResourceModel.adders_mults(4, 4)
        assert min_initiation_interval(diffeq(), model) == 6  # IB

    def test_resource_bound_dominates(self):
        model = ResourceModel.adders_mults(1, 1)
        assert min_initiation_interval(diffeq(), model) == 12  # 6 mults x 2

    def test_pipelined_resource_bound(self):
        model = ResourceModel.adders_mults(1, 1, pipelined_mults=True)
        assert min_initiation_interval(diffeq(), model) == 6


class TestModuloSchedule:
    @pytest.mark.parametrize("adders,mults,pipelined", [
        (1, 1, False), (1, 2, False), (2, 2, False), (1, 1, True), (2, 1, True),
    ])
    def test_legal_on_diffeq(self, adders, mults, pipelined):
        g = diffeq()
        model = ResourceModel.adders_mults(adders, mults, pipelined_mults=pipelined)
        res = modulo_schedule(g, model)
        assert is_legal_modulo_schedule(g, model, res.start, res.ii)
        assert res.ii >= res.mii

    def test_diffeq_hits_mii(self):
        model = ResourceModel.adders_mults(1, 1)
        res = modulo_schedule(diffeq(), model)
        assert res.ii == 12  # optimal

    def test_legal_on_all_benchmarks(self):
        model = ResourceModel.adders_mults(2, 2)
        for g in all_benchmarks():
            res = modulo_schedule(g, model)
            assert is_legal_modulo_schedule(g, model, res.start, res.ii), g.name

    def test_lattice_deep_pipelines_to_ii_2(self):
        """IMS reaches the lattice iteration bound with 6A 8Mp — showing
        the reconstruction admits period 2 (the cell RS misses)."""
        model = ResourceModel.adders_mults(6, 8, pipelined_mults=True)
        assert modulo_schedule(lattice(), model).ii == 2

    def test_kernel_schedule_realizable(self):
        model = ResourceModel.adders_mults(2, 2)
        res = modulo_schedule(biquad(), model)
        sched, r, ii = res.kernel_schedule()
        assert ii == res.ii
        assert r.is_legal(biquad()) or r.is_legal(res.graph)
        assert all(0 <= sched.start(v) < ii for v in res.graph.nodes)
        assert res.depth >= 1

    def test_kernel_executes_correctly(self):
        """The folded IMS kernel passes the end-to-end pipeline check."""
        from repro.sim import verify_pipeline

        g = diffeq()
        model = ResourceModel.adders_mults(1, 2)
        res = modulo_schedule(g, model)
        sched, r, ii = res.kernel_schedule()
        report = verify_pipeline(sched, r, iterations=30, period=ii)
        assert report.matches_reference

    def test_length_property(self):
        model = ResourceModel.adders_mults(2, 2)
        res = modulo_schedule(diffeq(), model)
        assert res.length == res.ii

    def test_list_schedule_fallback_when_search_fails(self):
        """Regression: the iterative search fails at every II up to the
        default max_ii (the list length, 8, which is also the exact II);
        the documented fallback returns the list schedule there instead
        of raising."""
        g = random_dfg(8, seed=824, forward_density=0.2, backward_density=0.15, max_delay=2)
        model = ResourceModel.adders_mults(2, 1)
        listed = full_schedule(g, model)
        assert listed.length == 8
        with pytest.raises(SchedulingError, match="up to II=8"):
            modulo_schedule(g, model, max_ii=8)
        res = modulo_schedule(g, model)
        assert res.ii == 8
        assert res.start == listed.start_map
        assert is_legal_modulo_schedule(g, model, res.start, res.ii)
