"""Integration tests reproducing the paper's experimental tables.

Table 1 is pinned exactly in ``tests/suite/test_benchmarks.py``; here we
re-run the scheduling experiments behind Tables 2 and 3, and check
EXPERIMENTS.md's Table 1 "measured" column against the live graphs and
Table 2's "our LB" column against the live bound.  Expected values
are the paper's RS column except for the two documented deviations (see
EXPERIMENTS.md):

* elliptic 2A 1M — paper 19, this reproduction 18 (the one cell where the
  paper's own result exceeds its lower bound of 17);
* lattice 6A 8Mp / 6A 15M — paper 2, this reproduction 3 (period 2 is
  feasible — the modulo baseline finds it — but the rotation heuristic
  stops at 3 on our reconstruction).
"""

from pathlib import Path

import pytest

from repro.bounds import combined_lower_bound
from repro.cli import parse_config
from repro.schedule import ResourceModel
from repro.core import rotation_schedule
from repro.dfg import critical_path_length, iteration_bound_ceil
from repro.suite import PAPER_TIMING, all_benchmarks, elliptic, get_benchmark

EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"

#: (adders, mults, pipelined) -> expected RS length on THIS reproduction
TABLE2_ELLIPTIC = [
    (3, 3, False, 16),
    (3, 2, False, 16),
    (2, 2, False, 17),
    (2, 1, False, 18),  # paper: 19
    (3, 2, True, 16),
    (3, 1, True, 16),
    (2, 1, True, 17),
]

TABLE3 = {
    "diffeq": [
        (1, 1, True, 6),
        (1, 2, False, 6),
        (1, 1, False, 12),
    ],
    "lattice": [
        (6, 8, True, 3),   # paper: 2 (heuristic gap, see module docstring)
        (4, 5, True, 3),
        (3, 4, True, 4),
        (3, 3, True, 5),
        (2, 3, True, 6),
        (2, 2, True, 8),
        (6, 15, False, 3),  # paper: 2
        (4, 10, False, 3),
        (3, 8, False, 4),
        (3, 6, False, 5),
        (2, 5, False, 6),
        (2, 4, False, 8),
    ],
    "allpole": [
        (3, 2, True, 8),
        (2, 2, True, 9),
        (2, 1, True, 9),
        (1, 1, True, 11),
        (3, 2, False, 8),
        (2, 2, False, 9),
        (2, 1, False, 10),
        (1, 1, False, 11),
    ],
    "biquad": [
        (2, 2, True, 4),
        (2, 1, True, 8),
        (1, 2, True, 8),
        (1, 1, True, 8),
        (2, 4, False, 4),
        (2, 3, False, 6),
        (1, 2, False, 8),
        (1, 1, False, 16),
    ],
}


class TestTable2:
    @pytest.mark.parametrize("adders,mults,pipelined,expected", TABLE2_ELLIPTIC)
    def test_elliptic(self, adders, mults, pipelined, expected):
        model = ResourceModel.adders_mults(adders, mults, pipelined_mults=pipelined)
        res = rotation_schedule(get_benchmark("elliptic"), model)
        assert res.length == expected, model.label()
        assert res.wrapped.violations() == []

    def test_depths_are_shallow(self):
        """The paper reports pipeline depth 2 across Table 2."""
        model = ResourceModel.adders_mults(3, 3)
        res = rotation_schedule(get_benchmark("elliptic"), model)
        assert res.depth <= 3


class TestTable1Doc:
    def test_measured_column_is_the_live_graph(self):
        """Every row of EXPERIMENTS.md's Table 1 quotes, as "measured",
        exactly the live graph's mults / adds / CP / IB, in Table 1 order."""
        section = EXPERIMENTS_MD.read_text().split("## Table 1", 1)[1].split("\n## ", 1)[0]
        rows = [
            [c.strip() for c in line.strip().strip("|").split("|")]
            for line in section.splitlines()
            if line.startswith("|")
        ]
        header, body = rows[0], rows[2:]
        col = header.index("measured")
        quoted = [tuple(int(x) for x in r[col].split("/")) for r in body]
        live = []
        for graph in all_benchmarks():
            mults = graph.ops_histogram().get("mul", 0)
            live.append((
                mults,
                graph.num_nodes - mults,
                critical_path_length(graph, PAPER_TIMING),
                iteration_bound_ceil(graph, PAPER_TIMING),
            ))
        assert quoted == live


class TestTable2Doc:
    def test_our_lb_column_is_the_live_bound(self):
        """Every row of EXPERIMENTS.md's Table 2 quotes, as "our LB",
        exactly what ``combined_lower_bound`` gives for that config."""
        section = EXPERIMENTS_MD.read_text().split("## Table 2", 1)[1].split("\n## ", 1)[0]
        rows = [
            [c.strip() for c in line.strip().strip("|").split("|")]
            for line in section.splitlines()
            if line.startswith("|")
        ]
        header, body = rows[0], rows[2:]
        col = header.index("our LB")
        quoted = {r[0]: int(r[col]) for r in body}
        live = {
            cfg: combined_lower_bound(elliptic(), parse_config(cfg)[0]).combined
            for cfg in quoted
        }
        assert len(quoted) == len(TABLE2_ELLIPTIC)
        assert quoted == live


class TestTable3:
    @pytest.mark.parametrize(
        "bench,adders,mults,pipelined,expected",
        [(b, *row) for b, rows in TABLE3.items() for row in rows],
    )
    def test_schedule_lengths(self, bench, adders, mults, pipelined, expected):
        model = ResourceModel.adders_mults(adders, mults, pipelined_mults=pipelined)
        res = rotation_schedule(get_benchmark(bench), model)
        assert res.length == expected, f"{bench} @ {model.label()}"
        assert res.wrapped.violations() == []

    def test_paper_exact_cells(self):
        """35 of 38 table cells match the paper exactly; count them."""
        paper = {
            ("elliptic", 2, 1, False): 19,
            ("lattice", 6, 8, True): 2,
            ("lattice", 6, 15, False): 2,
        }
        matches, total = 0, 0
        for a, m, p, ours in TABLE2_ELLIPTIC:
            total += 1
            matches += paper.get(("elliptic", a, m, p), ours) == ours
        for bench, rows in TABLE3.items():
            for a, m, p, ours in rows:
                total += 1
                matches += paper.get((bench, a, m, p), ours) == ours
        assert total == 38
        assert matches == 35


class TestRuntimeClaim:
    def test_each_experiment_finishes_in_seconds(self):
        """Section 6: 'Every experiment is finished within seconds'."""
        model = ResourceModel.adders_mults(3, 3)
        res = rotation_schedule(get_benchmark("elliptic"), model)
        assert res.elapsed_seconds < 30

    def test_many_optimal_schedules_found(self):
        """Section 6: 15-35 optimal schedules found for the elliptic
        filter, depending on resources."""
        model = ResourceModel.adders_mults(3, 2)
        res = rotation_schedule(get_benchmark("elliptic"), model)
        assert res.optimal_count >= 5
