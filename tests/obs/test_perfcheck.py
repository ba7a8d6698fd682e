"""Unit tests for repro.obs.perfcheck: the tier table, the reference-ms
scale and the pinned file."""

import json
import shutil
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.obs import MIN_REPAIR_SPEEDUP, PINS_FILE, TIERS, run_perfcheck
from repro.obs import perfcheck as pc

REPO = Path(__file__).resolve().parents[2]
TIER = {tier.name: tier for tier in TIERS}
DIFFEQ = {"bench": "diffeq", "config": "2A2M", "heuristic": "h1"}
#: A four-cell explore grid: small enough to replay in a unit test.
SMALL_GRID = {"grid": "small", "cells": [
    {"bench": "diffeq", "adders": a, "mults": 1, "pipelined": False, "clock_ns": c,
     "unfold": 1, "heuristic": "h2", "sigma": None, "beta": None}
    for a in (1, 2) for c in (40, 100)
]}


def _committed():
    return json.loads((REPO / PINS_FILE).read_text())


def _root(tmp_path, tiers=None):
    """A repo root with the reference kernel and (optionally) pinned cells."""
    (tmp_path / "perfbench").mkdir()
    shutil.copy(REPO / "perfbench" / "common.py", tmp_path / "perfbench" / "common.py")
    if tiers is not None:
        doc = {"commit": "abc", "dirty": False, "kernel_ms": 8.0, "tiers": tiers}
        (tmp_path / PINS_FILE).write_text(json.dumps(doc))
    return str(tmp_path)


def _pin(cell, ref_ms=1e6, **counters):
    return {"cell": cell, "ref_ms": ref_ms, "counters": counters}


def _fake_wall(monkeypatch, ms):
    """Every timed sample takes exactly ``ms`` raw milliseconds."""
    monkeypatch.setattr(pc, "_wall", lambda fn: lambda: (ms, fn()))


class TestReferenceScale:
    """The wall envelope follows the kernel, not the raw clock."""

    def _pin_at(self, monkeypatch, ms, kernel_ms):
        _fake_wall(monkeypatch, ms)
        got = TIER["solve"].replay(DIFFEQ, 1, lambda: kernel_ms)
        return {"cell": DIFFEQ, "counters": got.counters, "ref_ms": got.units * 8.0}

    def _judge(self, monkeypatch, pin, ms, kernel_ms):
        _fake_wall(monkeypatch, ms)
        got = TIER["solve"].replay(DIFFEQ, 1, lambda: kernel_ms)
        return pc.judge(TIER["solve"], pin, got, 8.0, 0.25)

    def test_raw_and_kernel_double_passes(self, monkeypatch):
        pin = self._pin_at(monkeypatch, 20.0, 8.0)
        assert self._judge(monkeypatch, pin, 40.0, 16.0) == []

    def test_raw_doubles_kernel_flat_fails(self, monkeypatch):
        pin = self._pin_at(monkeypatch, 20.0, 8.0)
        problems = self._judge(monkeypatch, pin, 40.0, 8.0)
        assert len(problems) == 1 and "wall-time regression" in problems[0]

    def test_thin_slowdown_fails_the_tier_mean(self):
        """Six cells each 1.2x their pins pass one by one (+25%), but their
        mean is past 1 + 0.25 / sqrt(6)."""
        pin = {"counters": {}, "ref_ms": 8.0}
        rows = [pc.Measured(1.2, 8.0, {}, pinned_ref_ms=8.0) for _ in range(6)]
        assert all(pc.judge(TIER["solve"], pin, r, 8.0, 0.25) == [] for r in rows)
        (mean,) = pc._tier_mean("solve", rows, 8.0, 0.25)
        assert mean.problems == ["tier regression: x1.20 > 1.10"]
        level = [pc.Measured(1.05, 8.0, {}, pinned_ref_ms=8.0) for _ in range(6)]
        assert pc._tier_mean("solve", level, 8.0, 0.25)[0].problems == []
        assert pc._tier_mean("solve", rows[:1], 8.0, 0.25) == []

    def test_missing_kernel_raises(self, tmp_path):
        (tmp_path / PINS_FILE).write_text(json.dumps(_committed()))
        with pytest.raises(ReproError, match="perfbench"):
            run_perfcheck(str(tmp_path), smoke=True)


class TestLoadGoldenCells:
    def test_loads_committed_flat_baseline(self):
        pins = _committed()
        solve = pins["tiers"]["solve"]
        assert len(solve) == 6
        assert len({pc.label(p["cell"]) for p in solve}) == 6
        for pin in solve:
            assert pin["ref_ms"] > 0
            assert pin["counters"]["length"] > 0
            assert set(pc.SOLVE_COUNTERS) <= set(pin["counters"])
        assert {"commit", "dirty", "machine", "kernel_ms"} <= set(pins)

    def test_missing_key_raises(self, tmp_path):
        with pytest.raises(ReproError, match="record"):
            run_perfcheck(_root(tmp_path), repeats=1)


class TestRunPerfcheck:
    def test_passes_with_generous_envelope(self, tmp_path):
        root = _root(tmp_path, {"solve": [_pin(DIFFEQ, length=6, rotations=116)]})
        report = run_perfcheck(root, repeats=1)
        assert report.ok, report.render()
        assert len(report.rows) == 1
        assert report.rows[0].units * report.ref < 1e6

    def test_detects_wall_time_regression(self, tmp_path):
        root = _root(tmp_path, {"solve": [_pin(DIFFEQ, ref_ms=1e-6)]})
        report = run_perfcheck(root, repeats=1)
        assert not report.ok
        assert any("wall-time regression" in p for p in report.rows[0].problems)

    def test_detects_counter_delta(self, tmp_path):
        root = _root(tmp_path, {"solve": [_pin(DIFFEQ, length=99)]})
        report = run_perfcheck(root, repeats=1)
        assert not report.ok
        assert any("length" in p for p in report.rows[0].problems)

    def test_missing_baseline_is_skipped_not_fatal(self, tmp_path):
        """A tier the pinned file does not hold is not replayed."""
        root = _root(tmp_path, {"solve": [_pin(DIFFEQ)]})
        report = run_perfcheck(root, repeats=1)
        assert report.ok
        assert {r.tier for r in report.rows} == {"solve"}

    def test_all_baselines_missing_means_not_ok(self, tmp_path):
        report = run_perfcheck(_root(tmp_path, {}), repeats=1)
        assert not report.ok

    def test_render_mentions_every_cell(self, tmp_path):
        root = _root(tmp_path, {"solve": [_pin(DIFFEQ)]})
        text = run_perfcheck(root, repeats=1).render()
        assert "diffeq@2A2M/h1" in text
        assert "golden cells" in text
        assert "ms pinned at abc (dirty: no)" in text


class TestEveryTierPinsCounters:
    def test_each_tier_fails_on_one_drifted_counter(self, tmp_path):
        kernel = lambda: 8.0  # noqa: E731
        cells = {
            "solve": DIFFEQ,
            "repair": pc._repair_cells()[0],
            "serve": {"workload": "demo", "workload_repeats": 1},
            "explore": SMALL_GRID,
            "tracing": DIFFEQ,
        }
        tiers = {}
        for name, cell in cells.items():
            got = TIER[name].replay(cell, 1, kernel)
            assert got.problems == [], (name, got.problems)
            counters = dict(got.counters)
            key = sorted(k for k, v in counters.items() if isinstance(v, (int, float)))[0]
            counters[key] += 1
            tiers[name] = [{"cell": cell, "counters": counters}]
        report = run_perfcheck(_root(tmp_path, tiers), tolerance=10.0, repeats=1)
        assert {r.tier for r in report.rows} == set(cells)
        for row in report.rows:
            deltas = [p for p in row.problems if p.startswith("counter delta")]
            assert len(deltas) == 1, (row.tier, row.problems)


class TestRecord:
    def test_record_then_replay_passes(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        # the 60-cell explore grid is left out to keep the test short
        monkeypatch.setattr(pc, "TIERS", tuple(t for t in TIERS if not t.full_only))
        root = _root(tmp_path)
        assert main(["perfcheck", "--record", "--root", root, "--repeats", "3"]) == 0
        pins = json.loads((tmp_path / PINS_FILE).read_text())
        assert set(pins["tiers"]) == {"solve", "repair", "serve", "tracing"}
        assert pins["kernel_ms"] > 0 and isinstance(pins["dirty"], bool)
        # widened: the replay runs inside a loaded pytest process
        assert main(["perfcheck", "--smoke", "--root", root, "--repeats", "3",
                     "--tolerance", "2.0"]) == 0
        assert "golden cells within envelope" in capsys.readouterr().out


class TestIncrementalCells:
    def test_loads_committed_incremental_baseline(self):
        repair = _committed()["tiers"]["repair"]
        assert len(repair) == 3
        for pin in repair:
            assert pin["cell"]["bench"] == "elliptic"
            assert pin["cell"]["edits"]
            assert set(pin["counters"]) == {"length", "invalidated"}

    def test_missing_incremental_baseline_is_skipped(self, tmp_path):
        root = _root(tmp_path, {"solve": [_pin(DIFFEQ)]})
        report = run_perfcheck(root, repeats=1)
        assert report.ok
        assert not any(r.tier == "repair" for r in report.rows)

    def test_counter_drift_flags_cell(self):
        pin = dict(_committed()["tiers"]["repair"][0])
        pin["counters"] = dict(pin["counters"], length=pin["counters"]["length"] + 1)
        got = TIER["repair"].replay(pin["cell"], 1, lambda: 8.0)
        problems = pc.judge(TIER["repair"], pin, got, 8.0, 10.0)
        assert any("length" in p for p in problems)

    def test_measured_cell_within_envelope(self):
        kernel, ref = pc.load_kernel(str(REPO))
        pin = _committed()["tiers"]["repair"][0]
        got = TIER["repair"].replay(pin["cell"], 3, kernel)
        assert pc.judge(TIER["repair"], pin, got, ref, 2.0) == []
        assert got.ratio >= MIN_REPAIR_SPEEDUP

    def test_report_summary_mentions_incremental(self, tmp_path):
        pin = _committed()["tiers"]["repair"][0]
        report = run_perfcheck(_root(tmp_path, {"repair": [pin]}), tolerance=2.0, repeats=1)
        assert "repair" in report.render()
        assert len(report.rows) == 1


class TestVectorCells:
    """The former numpy backend's cells (h2 on elliptic 3A2M and 2A1Mp,
    lattice and allpole 2A2M) are solve-tier cells now, with their pins."""

    def _solve_pins(self):
        return {pc.label(p["cell"]): p for p in _committed()["tiers"]["solve"]}

    def test_loads_committed_vector_baseline(self):
        headline = self._solve_pins()["elliptic@3A2M/h2"]["counters"]
        assert (headline["length"], headline["rotations"]) == (16, 65)

    def test_vector_golden_cells_load_via_baseline_specs(self):
        pins = self._solve_pins()
        for key, length, rotations in (("elliptic@2A1Mp/h2", 17, 1173),
                                       ("lattice@2A2M/h2", 15, 598),
                                       ("allpole@2A2M/h2", 9, 465)):
            counters = pins[key]["counters"]
            assert (counters["length"], counters["rotations"]) == (length, rotations)

    def test_no_acceptance_cells_raises(self, tmp_path):
        (tmp_path / PINS_FILE).write_text("{}")
        with pytest.raises(ReproError, match="no tiers"):
            run_perfcheck(_root(tmp_path), repeats=1)

    def test_headline_counter_drift_flags_cell(self, monkeypatch):
        pin = self._solve_pins()["elliptic@3A2M/h2"]
        pin["counters"]["lap_replays"] += 1
        _fake_wall(monkeypatch, 1.0)
        got = TIER["solve"].replay(pin["cell"], 1, lambda: 8.0)
        assert pc.judge(TIER["solve"], pin, got, 8.0, 0.25) == [
            f"counter delta: lap_replays {pin['counters']['lap_replays'] - 1} "
            f"!= pinned {pin['counters']['lap_replays']}"]

    def test_headline_within_envelope(self):
        kernel, ref = pc.load_kernel(str(REPO))
        pin = self._solve_pins()["elliptic@3A2M/h2"]
        got = TIER["solve"].replay(pin["cell"], 3, kernel)
        assert pc.judge(TIER["solve"], pin, got, ref, 2.0) == []

    def test_headline_over_envelope_flags_cell(self, monkeypatch):
        pin = self._solve_pins()["elliptic@3A2M/h2"]
        _fake_wall(monkeypatch, pin["ref_ms"] * 2)
        got = TIER["solve"].replay(pin["cell"], 1, lambda: 8.0)
        problems = pc.judge(TIER["solve"], pin, got, 8.0, 0.25)
        assert any("wall-time regression" in p for p in problems)

    def test_missing_vector_baseline_is_skipped(self, tmp_path):
        root = _root(tmp_path, {"solve": [_pin(DIFFEQ)]})
        assert not any(r.tier == "tracing" for r in run_perfcheck(root, repeats=1).rows)


class TestExploreTier:
    def test_loads_headline_cell(self):
        (pin,) = _committed()["tiers"]["explore"]
        assert pc.label(pin["cell"]) == "headline[60 cells]"
        counters = pin["counters"]
        assert counters["cells_total"] == 60
        assert set(counters["frontiers"]) == {"biquad", "diffeq", "elliptic"}

    def test_failing_explore_cell_fails_the_report(self):
        bad = pc.Measured(1.0, 8.0, {}, ratio=1.2)
        bad.tier, bad.label = "explore", "small[4 cells]"
        bad.problems = pc.judge(TIER["explore"], {"counters": {}}, bad, 8.0, 0.25)
        report = pc.PerfReport(rows=[bad])
        assert not report.ok
        assert "ratio 1.20 below floor 2.40" in report.render()

    def test_ratio_floor_yields_to_tolerance(self):
        got = pc.Measured(None, 8.0, {}, ratio=2.5)
        assert pc.judge(TIER["explore"], {"counters": {}}, got, 8.0, 0.25) == []
        assert pc.judge(TIER["explore"], {"counters": {}}, got, 8.0, 0.1)


class TestCommittedEnvelopes:
    def test_smoke_against_committed_baselines(self):
        """The pins shipped in-repo hold on the shipping code.

        Tolerance is widened to +200% here because this runs inside a
        loaded pytest process; the strict smoke runs in a fresh process
        via ``rotsched gate``.
        """
        report = run_perfcheck(str(REPO), smoke=True, tolerance=2.0, repeats=3)
        assert report.ok, report.render()
        assert {r.tier for r in report.rows} == {"solve", "repair", "serve", "tracing"}
        cells = [r for r in report.rows if not r.label.startswith("mean of")]
        assert len(cells) == 13  # each distinct cell once

    def test_specs_cover_all_fast_backends(self):
        from repro.core.engine import BACKENDS
        from repro.core.scheduler import RotationScheduler

        # solve cells run the default backend: every backend but naive
        assert {RotationScheduler(None).backend} == set(BACKENDS) - {"naive"}


class TestPerformanceDoc:
    def test_headline_counters_match_pins(self):
        """Every ```counter` N`` quoted for the headline cell in
        docs/performance.md is the pinned value, and every pinned counter
        of that cell is quoted."""
        import re

        text = (REPO / "docs" / "performance.md").read_text()
        section = text.split("## Measured speedup", 1)[1].split("\n\n", 2)[1]
        quoted = {name: int(n) for name, n in re.findall(r"`(\w+)` (\d+)", section)}
        headline = {"bench": "elliptic", "config": "3A2M", "heuristic": "h2"}
        [pin] = [p for p in _committed()["tiers"]["solve"] if p["cell"] == headline]
        assert quoted == pin["counters"]
