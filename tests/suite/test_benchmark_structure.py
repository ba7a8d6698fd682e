"""Deeper structural pinning of the benchmark reconstructions.

Beyond Table 1 (op counts, CP, IB), these tests pin the structural facts
the module docstrings claim — critical cycles, slack-free arcs, register
counts — so that any future edit to a benchmark graph that silently
changes its scheduling behaviour fails loudly here.
"""

import pytest
from fractions import Fraction

from repro.dfg import critical_cycle, critical_path_nodes
from repro.suite import PAPER_TIMING, allpole, biquad, diffeq, elliptic, lattice
from tests.cycle_reference import cycle_ratios


class TestDiffeq:
    def test_loop_registers(self):
        assert diffeq().total_delay() == 8

    def test_critical_cycle_is_the_u_recurrence(self):
        ratio, cycle = critical_cycle(diffeq(), PAPER_TIMING)
        assert ratio == 6
        assert set(cycle) == {6, 0, 3, 5}

    def test_critical_path_is_gated_mult_chain(self):
        assert critical_path_nodes(diffeq(), PAPER_TIMING) == [10, 1, 3, 5, 6]

    def test_control_gating_edges(self):
        g = diffeq()
        gated = {e.dst for e in g.out_edges(10) if e.delay == 0}
        assert gated == {1, 0, 2, 8, 7}


class TestElliptic:
    def test_loop_registers(self):
        assert elliptic().total_delay() == 10

    def test_critical_cycle_is_the_adaptor_chain(self):
        ratios = cycle_ratios(elliptic(), PAPER_TIMING)
        assert any(r == 16 and {"c1", "M1", "M2", "c12"} <= set(c) for r, c in ratios)

    def test_critical_cycle_is_a_ratio_16_cycle(self):
        # the first maximal cycle in edge order enters the chain through
        # f2, one of the slack-free arcs below, not through c1
        ratio, cycle = critical_cycle(elliptic(), PAPER_TIMING)
        assert ratio == 16
        assert set(cycle) in [set(c) for r, c in cycle_ratios(elliptic(), PAPER_TIMING) if r == 16]
        assert {"f2", "M1", "M2", "c12"} <= set(cycle)

    def test_slack_free_arcs_create_ratio_16_cycles(self):
        """f1, f2 and the g1-g2 arc each close a second ratio-16 cycle —
        the structure that forces 17 CS with two adders."""
        ratios = cycle_ratios(elliptic(), PAPER_TIMING)
        critical_members = [set(c) for r, c in ratios if r == 16]
        assert any("f1" in c for c in critical_members)
        assert any("f2" in c for c in critical_members)
        assert any({"g1", "g2"} <= c for c in critical_members)

    def test_head_gives_cp_17(self):
        path = critical_path_nodes(elliptic(), PAPER_TIMING)
        assert path[0] in ("h1", "f1", "f2")
        assert len(set(path)) == len(path)


class TestLattice:
    def test_all_cycles_at_most_ratio_2(self):
        assert all(r <= 2 for r, _ in cycle_ratios(lattice(), PAPER_TIMING))

    def test_stage_recursions_are_critical(self):
        critical = [set(c) for r, c in cycle_ratios(lattice(), PAPER_TIMING) if r == 2]
        for i in range(1, 5):
            assert any({f"mA{i}", f"f{i}", f"mB{i}", f"b{i}"} <= c for c in critical), i

    def test_output_sum_path_is_cp(self):
        path = critical_path_nodes(lattice(), PAPER_TIMING)
        assert path[-1] == "o4"


class TestAllpole:
    def test_slack_free_feedbacks_share_the_a1_slot(self):
        """u1 and v1 both close ratio-8 cycles through MB — the two arcs
        that pin three additions to one slot of the 8-step cadence."""
        critical = [set(c) for r, c in cycle_ratios(allpole(), PAPER_TIMING) if r == 8]
        assert any("u1" in c for c in critical)
        assert any("v1" in c for c in critical)
        assert any({"a1", "a2", "MA", "a3", "a4", "MB"} == c for c in critical)

    def test_cp_spans_head_core_tail(self):
        path = critical_path_nodes(allpole(), PAPER_TIMING)
        assert path[0] == "h1" and path[-1] == "t3"
        assert len(path) == 12


class TestBiquad:
    def test_two_section_recursions(self):
        critical = [set(c) for r, c in cycle_ratios(biquad(), PAPER_TIMING) if r == 4]
        assert any({"ma1_1", "s1a", "s1b"} == c for c in critical)
        assert any({"ma1_2", "s2a", "s2b"} == c for c in critical)

    def test_global_feedback_is_slack(self):
        ratios = sorted(r for r, _ in cycle_ratios(biquad(), PAPER_TIMING))
        assert max(ratios) == 4
        assert Fraction(3, 1) in ratios  # the o -> h outer loop (12 units / 4 delays)

    def test_sections_decoupled_by_pipeline_register(self):
        g = biquad()
        coupling = [e for e in g.edges if e.src == "y1" and e.dst == "s2a"]
        assert len(coupling) == 1 and coupling[0].delay == 1
