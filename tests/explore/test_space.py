"""The five-axis cell space: grids, keys, latencies, objective points."""

from fractions import Fraction

import pytest

from repro.explore import (
    CellSpec,
    Point,
    build_grid,
    cell_cost,
    cell_model,
    family_key,
    objective_point,
    solve_key,
)
from repro.explore.space import ExploreError, neighbors, with_counts


class TestCellSpec:
    def test_clock_to_latency_map(self):
        # 40 ns adds / 80 ns mults (paper Section 6), ceil division
        assert CellSpec("diffeq", 1, 1, clock_ns=40).add_latency == 1
        assert CellSpec("diffeq", 1, 1, clock_ns=40).mult_latency == 2
        assert CellSpec("diffeq", 1, 1, clock_ns=50).mult_latency == 2
        assert CellSpec("diffeq", 1, 1, clock_ns=80).mult_latency == 1
        assert CellSpec("diffeq", 1, 1, clock_ns=100).mult_latency == 1
        assert CellSpec("diffeq", 1, 1, clock_ns=30).mult_latency == 3

    def test_clocks_sharing_latencies_share_solve_key(self):
        a = CellSpec("diffeq", 2, 1, clock_ns=40)
        b = CellSpec("diffeq", 2, 1, clock_ns=50)
        c = CellSpec("diffeq", 2, 1, clock_ns=100)
        assert solve_key(a) == solve_key(b)
        assert solve_key(a) != solve_key(c)

    def test_family_key_drops_counts_only(self):
        a = CellSpec("diffeq", 1, 1, clock_ns=50)
        b = with_counts(a, 3, 2)
        assert family_key(a) == family_key(b)
        assert solve_key(a) != solve_key(b)
        assert family_key(a) != family_key(
            CellSpec("diffeq", 1, 1, clock_ns=100)
        )

    def test_validation(self):
        with pytest.raises(ExploreError):
            CellSpec("diffeq", 0, 1)
        with pytest.raises(ExploreError):
            CellSpec("diffeq", 1, 1, clock_ns=0)
        with pytest.raises(ExploreError):
            CellSpec("diffeq", 1, 1, heuristic="h3")

    def test_json_roundtrip(self):
        spec = CellSpec("biquad", 2, 1, pipelined=True, clock_ns=40,
                        unfold=2, heuristic="h1", sigma=3, beta=16)
        assert CellSpec.from_json(spec.as_json()) == spec

    def test_model_carries_cell_latencies(self):
        model = cell_model(CellSpec("diffeq", 2, 3, clock_ns=100))
        assert model.unit("adder").count == 2
        assert model.unit("mult").count == 3
        assert model.unit("mult").latency == 1


class TestGrid:
    def test_canonical_order_and_config_parsing(self):
        cells = build_grid(["diffeq"], ["1A1M", "2A1Mp"], clocks=[40, 100])
        assert [c.sort_key() for c in cells] == sorted(c.sort_key() for c in cells)
        assert len(cells) == 4
        pipelined = [c for c in cells if c.pipelined]
        assert {(c.adders, c.mults) for c in pipelined} == {(2, 1)}

    def test_bad_config_tag(self):
        with pytest.raises(ExploreError):
            build_grid(["diffeq"], ["2X1M"])

    def test_neighbors_are_one_resource_step_in_family(self):
        grid = build_grid(["diffeq"], ["1A1M", "2A1M", "2A2M", "3A2M"],
                          clocks=[40, 100])
        spec = next(c for c in grid if (c.adders, c.mults) == (2, 1)
                    and c.clock_ns == 40)
        near = neighbors(spec, grid)
        assert {(n.adders, n.mults) for n in near} == {(1, 1), (2, 2)}
        assert all(n.clock_ns == 40 for n in near)


class TestObjective:
    def test_cost_weights(self):
        assert cell_cost(CellSpec("diffeq", 1, 1)) == 4
        assert cell_cost(CellSpec("diffeq", 3, 2)) == 9
        assert cell_cost(CellSpec("diffeq", 1, 1, pipelined=True)) == 5

    def test_point_is_per_original_iteration(self):
        spec = CellSpec("biquad", 2, 1, clock_ns=40, unfold=2)
        p = objective_point(spec, length=5, registers=7)
        assert p.period_ns == Fraction(5 * 40, 2)
        assert p.registers == Fraction(7, 2)
        assert Point.from_json(p.as_json()) == p
