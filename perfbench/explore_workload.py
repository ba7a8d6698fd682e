"""``explore``: the feedback-guided explorer over the 60-cell headline
grid — elliptic at J=1 plus biquad and diffeq at J=1,2, x {1A1M, 2A1M,
2A2M, 3A2M} x clocks {40, 50, 100} ns — with two workers and the
default backend, repeated from cleared bound caches.

The grid is fixed, so the seed changes nothing here: the explorer's
pruning and round order depend on the cell order, and a seeded order
would turn the grid's work into a random quantity.

Each grid's Pareto frontiers must equal ``expected_frontiers.json``,
written once by the exhaustive sweep (``python3 perfbench/make_expected.py``
rewrites it).
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

from repro.bounds.lower_bounds import combined_lower_bound
from repro.explore import CellSpec, build_grid, explore
from repro.explore.bounds import bound_graph, clear_caches
from repro.explore.runner import ServeCellSolver
from repro.explore.space import cell_model
from repro.obs import tracer as obs

import layers
from common import Calibration, Outcome, Timeline, children_rss_mb, geomean, percentile, self_rss_mb

CONFIGS = ("1A1M", "2A1M", "2A2M", "3A2M")
CLOCKS = (40, 50, 100)
WORKERS = 2
#: The work is fixed by ``--seconds``: seven grids per ten seconds asked for.
GRIDS_PER_SECOND = 0.7
SETUPS = 3
CAL_REPEATS = 3
EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_frontiers.json")


def headline_grid() -> List[CellSpec]:
    return build_grid(["elliptic"], CONFIGS, clocks=CLOCKS) + build_grid(
        ["biquad", "diffeq"], CONFIGS, clocks=CLOCKS, unfolds=[1, 2]
    )


def frontier_points(report) -> Dict[str, list]:
    return {
        bench: [p.as_json() for p in report.frontier_points(bench)]
        for bench in sorted(report.frontiers)
    }


class Run:
    def __init__(self) -> None:
        self.cal = Calibration(all_cpus=True)
        self.outcome = Outcome()
        self.grid_t = Timeline()
        #: per-cell solve times as the explorer reports them: all solved
        #: cells, and the ones seeded from a warm neighbour
        self.cell_t = Timeline()
        self.warm_t = Timeline()
        self.check_s = 0.0
        self.grids = 0
        self.counters: Dict[str, int] = {}
        self.cell_ms = 0.0
        self.grid_ms = 0.0
        self.ratios: List[float] = []
        with open(EXPECTED, encoding="utf-8") as fh:
            self.expected = json.load(fh)

    def setup(self) -> float:
        """A four-cell warm-up explore: pool start, lazy imports, first
        engine builds — what a first grid would otherwise pay."""
        warm = build_grid(["diffeq"], ("1A1M", "2A1M"), clocks=(50, 100))
        times = []
        for _ in range(SETUPS):
            self.cal.sample(CAL_REPEATS)
            clear_caches()
            t0 = time.perf_counter()
            self.grid = headline_grid()
            explore(warm, mode="explore", workers=WORKERS)
            times.append((t0, time.perf_counter() - t0))
        self.cal.sample(CAL_REPEATS)
        return sorted(self.cal.scale(t, dt) for t, dt in times)[SETUPS // 2]

    def _grid(self) -> None:
        tr = obs.current()
        clear_caches()
        self.cal.sample(CAL_REPEATS)
        self.outcome.attempted += 1
        t0 = time.perf_counter()
        try:
            with tr.span("bench.explore"):
                report = explore(self.grid, mode="explore", workers=WORKERS)
        except Exception as exc:
            self.outcome.fail(f"grid {self.grids}: raised {exc!r}")
            return
        dt = time.perf_counter() - t0
        self.grid_t.add(t0, dt * 1000.0)
        c0 = time.perf_counter()
        got = frontier_points(report)
        if got != self.expected:
            self.outcome.fail(f"grid {self.grids}: frontiers differ from the exhaustive sweep")
        for k, v in report.counters.items():
            self.counters[k] = self.counters.get(k, 0) + v
        for o in report.outcomes:
            self.cell_ms += o.elapsed * 1000.0
            self.cell_t.add(t0, o.elapsed * 1000.0)
            if o.seeded:
                self.warm_t.add(t0, o.elapsed * 1000.0)
        self.grid_ms += dt * 1000.0
        if self.grids == 0:
            for o in report.outcomes:
                lb = combined_lower_bound(bound_graph(o.spec), cell_model(o.spec)).combined
                self.ratios.append(o.length / lb)
        self.grids += 1
        self.check_s += time.perf_counter() - c0

    def loop(self, seconds: float) -> None:
        for _ in range(max(2, round(seconds * GRIDS_PER_SECOND))):
            self._grid()
        self.cal.sample(CAL_REPEATS)

    def attribution_inputs(self) -> List[layers.AttributionInput]:
        payloads = ServeCellSolver(client=object())
        seen, out = set(), []
        for spec in self.grid:
            key = (spec.bench, spec.unfold, spec.add_latency, spec.mult_latency,
                   spec.adders, spec.mults)
            if key in seen:
                continue
            seen.add(key)
            out.append(layers.AttributionInput(
                lambda spec=spec: bound_graph(spec).copy(), cell_model(spec),
                spec.heuristic, payloads.payload(spec), spec,
            ))
        return out

    def own_layers(self) -> Dict[str, float]:
        n = max(self.grids, 1)
        out = {f"explore.{k}": self.counters.get(k, 0) / n
               for k in layers.EXPLORE_COUNTERS if k != "cells_solved"}
        out["explore.cells_solved"] = self.counters.get("solved", 0) / n
        total = self.counters.get("cells_total", 0)
        out["explore.solved_share"] = self.counters.get("solved", 0) / total if total else 0.0
        out["explore.cell_solve_share"] = self.cell_ms / (self.grid_ms * WORKERS) if self.grid_ms else 0.0
        return out


def run(seed: int, seconds: float, trace: bool):
    del seed  # the grid is fixed; see the module docstring
    r = Run()
    setup_s = r.setup()
    if not trace:
        r.loop(seconds)
        grids = r.grid_t.scaled(r.cal)
        warm = r.warm_t.scaled(r.cal)
        cal_ms, cal_iqr = r.cal.summary()
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": self_rss_mb() + children_rss_mb(),
            "length_ratio": geomean(r.ratios),
            "p50_ms": percentile(grids, 50),
            "tail_ms": percentile(r.cell_t.scaled(r.cal), 90),
            "repair_p50_ms": percentile(warm, 50),
        }
        detail = {
            "grids": len(grids), "warm_cells": len(warm),
            "raw_p50_ms": percentile(r.grid_t.raw(), 50),
            "cal_ms": cal_ms, "cal_iqr": cal_iqr, "check_s": r.check_s,
        }
        return r.outcome, metrics, detail
    r.loop(seconds / 2)
    base = r.grid_t.scaled(r.cal)
    n0 = len(r.grid_t)
    engine = layers.Engine()
    with obs.tracing() as tr:
        r.loop(seconds / 2)
        layers.attribute(r.attribution_inputs(), engine, 0)
    traced_grids = r.grid_t.scaled(r.cal)[n0:]
    cal_ms, cal_iqr = r.cal.summary()
    own = {
        "bench.cal_ms": cal_ms,
        "bench.cal_iqr": cal_iqr,
        "bench.raw_p50_ms": percentile(r.grid_t.raw(), 50),
        "check_s": r.check_s,
        "tracing_overhead": percentile(traced_grids, 50) / percentile(base, 50) - 1.0,
        **r.own_layers(),
    }
    return r.outcome, layers.table(tr.events, engine, own), {"grids": len(r.grid_t)}


def write_expected() -> None:
    """Regenerate the expected frontiers from the exhaustive sweep."""
    clear_caches()
    report = explore(headline_grid(), mode="exhaustive", workers=1)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(frontier_points(report), fh, indent=1, sort_keys=True)
        fh.write("\n")

