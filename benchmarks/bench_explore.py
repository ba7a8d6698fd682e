"""Design-space exploration: feedback-guided explorer vs exhaustive sweep.

The headline grid is 60 cells of the paper's experiment space — elliptic
at J=1 plus biquad and diffeq at J=1 and J=2, each under the four
resource configs {1A1M, 2A1M, 2A2M, 3A2M} and clocks {40, 50, 100} ns.
The explorer must reproduce the exhaustive sweep's exact per-benchmark
Pareto frontiers while solving only a fraction of the grid: bound-pruned
cells are skipped outright, clock cells sharing a latency model collapse
in the solve-key memo, and resource families chain through one warm
``MutableSchedulingSession``.

The cell commits the ``rotsched perfcheck`` explore envelope: the grid
itself, the exploration counters (pinned exactly — the round loop is
deterministic at ``workers=1``), the per-benchmark frontier point lists
(the equality oracle), and the ``MIN_EXPLORE_SPEEDUP`` wall-time floor.
Perfcheck replays exactly this measurement via
:func:`repro.obs.perfcheck.measure_explore_grid`.

Regenerate with::

    PYTHONPATH=src python -m pytest benchmarks/bench_explore.py \
        --benchmark-only --benchmark-json=BENCH_explore.json
"""

from repro.explore import build_grid
from repro.obs.perfcheck import MIN_EXPLORE_SPEEDUP, measure_explore_grid

from conftest import record, run_once

CONFIGS = ("1A1M", "2A1M", "2A2M", "3A2M")
CLOCKS = (40, 50, 100)
REPEATS = 2


def headline_grid():
    """Elliptic J=1 + biquad/diffeq J=1,2 x 4 configs x 3 clocks = 60 cells."""
    return build_grid(["elliptic"], CONFIGS, clocks=CLOCKS) + build_grid(
        ["biquad", "diffeq"], CONFIGS, clocks=CLOCKS, unfolds=[1, 2]
    )


def _measure():
    return measure_explore_grid(headline_grid(), REPEATS)


def test_explore_vs_exhaustive(benchmark):
    explore_s, exhaustive_s, erep, xrep = run_once(benchmark, _measure)
    # Oracle: the explorer reaches the exhaustive sweep's exact frontiers.
    assert sorted(erep.frontiers) == sorted(xrep.frontiers)
    for bench in erep.frontiers:
        assert erep.frontier_points(bench) == xrep.frontier_points(bench), bench
    # Accounting: every cell is either solved or pruned, never lost.
    c = erep.counters
    assert c["solved"] + c["pruned_bound"] + c["pruned_dominated"] == c["cells_total"]
    speedup = exhaustive_s / explore_s
    assert speedup >= MIN_EXPLORE_SPEEDUP, (
        f"explore speedup {speedup:.2f}x below the {MIN_EXPLORE_SPEEDUP:.1f}x floor"
    )
    record(
        benchmark,
        headline="explore_grid",
        grid="headline",
        cells=[spec.as_json() for spec in erep.cells],
        explore_seconds=round(explore_s, 4),
        exhaustive_seconds=round(exhaustive_s, 4),
        speedup=round(speedup, 2),
        counters=dict(erep.counters),
        frontiers={
            bench: [p.as_json() for p in erep.frontier_points(bench)]
            for bench in sorted(erep.frontiers)
        },
        min_explore_speedup=MIN_EXPLORE_SPEEDUP,
    )
