"""Unit tests for full/partial list scheduling."""

import pytest

from repro.dfg import DFG, Retiming
from repro.schedule import (
    OccupancyGrid,
    ResourceModel,
    full_schedule,
    partial_schedule,
)
from repro.suite import diffeq, elliptic
from repro.errors import SchedulingError


class TestFullSchedule:
    def test_respects_precedence_and_resources(self, two_cycle, small_model):
        s = full_schedule(two_cycle, small_model)
        assert s.is_legal_dag_schedule()

    def test_reproduces_paper_figure_2a(self):
        """The diffeq initial schedule is exactly Figure 2-(a)."""
        s = full_schedule(diffeq(), ResourceModel.unit_time(1, 1)).normalized()
        expected = {
            10: 0, 1: 1, 8: 1, 0: 2, 3: 3, 2: 4, 5: 4, 4: 5, 7: 6, 6: 6, 9: 7,
        }
        assert s.start_map == expected
        assert s.length == 8

    def test_multicycle_serialization(self):
        g = DFG()
        g.add_node("m1", "mul")
        g.add_node("m2", "mul")
        model = ResourceModel.adders_mults(1, 1)
        s = full_schedule(g, model)
        starts = sorted(s.start_map.values())
        assert starts == [0, 2]  # non-pipelined: no overlap
        assert s.length == 4

    def test_pipelined_overlap(self):
        g = DFG()
        g.add_node("m1", "mul")
        g.add_node("m2", "mul")
        model = ResourceModel.adders_mults(1, 1, pipelined_mults=True)
        s = full_schedule(g, model)
        assert sorted(s.start_map.values()) == [0, 1]

    def test_under_retiming(self):
        g = diffeq()
        r = Retiming.of_set([10])
        s = full_schedule(g, ResourceModel.unit_time(1, 1), r)
        assert s.is_legal_dag_schedule(r)
        # node 10 is no longer a root: it must come after node 8
        assert s.start(10) >= s.start(8) + 1

    def test_priority_callable(self, two_cycle, small_model):
        def constant_priority(graph, timing, r):
            return {v: (0,) for v in graph.nodes}

        s = full_schedule(two_cycle, small_model, priority=constant_priority)
        assert s.is_legal_dag_schedule()

    def test_unknown_priority_rejected(self, two_cycle, small_model):
        with pytest.raises(ValueError, match="unknown priority"):
            full_schedule(two_cycle, small_model, priority="nope")

    def test_start_cs_offset(self, two_cycle, small_model):
        s = full_schedule(two_cycle, small_model, start_cs=5)
        assert s.first_cs == 5

    def test_elliptic_initial_length(self):
        # non-pipelined DAG schedule of the elliptic filter: CP 17 is a
        # lower bound and list scheduling lands close to it
        s = full_schedule(elliptic(), ResourceModel.adders_mults(3, 3))
        assert 17 <= s.length <= 19
        assert s.is_legal_dag_schedule()


class TestPartialSchedule:
    def test_frozen_nodes_never_move(self):
        g = diffeq()
        model = ResourceModel.unit_time(1, 1)
        base = full_schedule(g, model)
        moved = [10]
        out = partial_schedule(g, model, base, moved, Retiming.of_set([10]))
        for v in g.nodes:
            if v not in moved:
                assert out.start(v) == base.start(v), v

    def test_fills_holes(self):
        g = diffeq()
        model = ResourceModel.unit_time(1, 1)
        base = full_schedule(g, model).normalized()
        r = Retiming.of_set([10])
        shifted = base.shifted(-1)
        out = partial_schedule(g, model, shifted, [10], r, floor_cs=0)
        # 10 lands in the CS-1 adder hole (after its new predecessor 8)
        assert out.start(10) == 1
        assert out.length == 7

    def test_unknown_reschedule_node(self, two_cycle, small_model):
        base = full_schedule(two_cycle, small_model)
        with pytest.raises(SchedulingError, match="not in graph"):
            partial_schedule(two_cycle, small_model, base, ["ghost"])

    def test_respects_floor(self):
        g = diffeq()
        model = ResourceModel.unit_time(1, 1)
        base = full_schedule(g, model)
        out = partial_schedule(g, model, base, [10], floor_cs=20)
        assert out.start(10) >= 20


class TestOccupancyGrid:
    def test_find_and_occupy(self):
        model = ResourceModel.adders_mults(1, 1)
        grid = OccupancyGrid(model)
        assert grid.find_instance("mul", 0) == 0
        grid.occupy("mul", 0, 0)
        assert grid.find_instance("mul", 0) is None  # busy at 0..1
        assert grid.find_instance("mul", 1) is None
        assert grid.find_instance("mul", 2) == 0

    def test_double_booking_rejected(self):
        model = ResourceModel.adders_mults(1, 1)
        grid = OccupancyGrid(model)
        grid.occupy("add", 0, 0)
        with pytest.raises(SchedulingError, match="double-booked"):
            grid.occupy("add", 0, 0)

    def test_from_schedule_seeding(self, two_cycle, small_model):
        base = full_schedule(two_cycle, small_model)
        grid = OccupancyGrid.from_schedule(base, exclude=["a2"])
        op = two_cycle.op("a1")
        # a1's slot is taken, a2's slot is free
        assert grid.find_instance(op, base.start("a1")) != base.unit_index("a1") or (
            grid.find_instance(op, base.start("a1")) is None
            or small_model.unit_for_op(op).count > 1
        )
