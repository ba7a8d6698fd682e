"""Unit tests for repro.obs.perfcheck: golden cells and the envelope gate."""

import json

import pytest

from repro.errors import ReproError
from repro.obs import (
    load_golden_cells,
    load_incremental_cells,
    load_vector_headline,
    run_perfcheck,
)
from repro.obs.perfcheck import (
    BASELINE_SPECS,
    INCREMENTAL_BASELINE,
    MIN_REPAIR_SPEEDUP,
    VECTOR_BASELINE,
    _measure_incremental_cell,
    _measure_vector_headline,
)


def _write_baseline(path, cells):
    payload = {"benchmarks": [{"extra_info": info} for info in cells]}
    path.write_text(json.dumps(payload))


def _diffeq_cell(seconds, length=6, rotations=154):
    return {
        "bench": "diffeq",
        "config": "2A2M",
        "heuristic": "h1",
        "length": length,
        "rotations": rotations,
        "flat_seconds": seconds,
    }


class TestLoadGoldenCells:
    def test_loads_committed_flat_baseline(self):
        cells = load_golden_cells("BENCH_flat.json", "flat", "flat_seconds")
        assert cells
        for cell in cells:
            assert cell.backend == "flat"
            assert cell.baseline_seconds > 0
            assert cell.length > 0

    def test_missing_key_raises(self, tmp_path):
        path = tmp_path / "b.json"
        _write_baseline(path, [{"bench": "diffeq", "config": "2A2M"}])
        with pytest.raises(ReproError):
            load_golden_cells(str(path), "flat", "flat_seconds")


class TestRunPerfcheck:
    def test_passes_with_generous_envelope(self, tmp_path):
        _write_baseline(tmp_path / "b.json", [_diffeq_cell(seconds=30.0)])
        report = run_perfcheck(
            root=str(tmp_path),
            baselines=(("b.json", "flat", "flat_seconds"),),
            repeats=1,
        )
        assert report.ok
        assert len(report.results) == 1
        assert report.results[0].measured_seconds < 30.0

    def test_detects_wall_time_regression(self, tmp_path):
        _write_baseline(tmp_path / "b.json", [_diffeq_cell(seconds=1e-9)])
        report = run_perfcheck(
            root=str(tmp_path),
            baselines=(("b.json", "flat", "flat_seconds"),),
            repeats=1,
        )
        assert not report.ok
        assert any("wall-time regression" in p for p in report.results[0].problems)

    def test_detects_counter_delta(self, tmp_path):
        _write_baseline(tmp_path / "b.json", [_diffeq_cell(seconds=30.0, length=99)])
        report = run_perfcheck(
            root=str(tmp_path),
            baselines=(("b.json", "flat", "flat_seconds"),),
            repeats=1,
        )
        assert not report.ok
        assert any("length" in p for p in report.results[0].problems)

    def test_missing_baseline_is_skipped_not_fatal(self, tmp_path):
        _write_baseline(tmp_path / "b.json", [_diffeq_cell(seconds=30.0)])
        report = run_perfcheck(
            root=str(tmp_path),
            baselines=(
                ("b.json", "flat", "flat_seconds"),
                ("nope.json", "flat", "flat_seconds"),
            ),
            repeats=1,
        )
        assert report.ok
        assert "nope.json" in report.skipped_baselines

    def test_all_baselines_missing_means_not_ok(self, tmp_path):
        report = run_perfcheck(
            root=str(tmp_path),
            baselines=(("nope.json", "flat", "flat_seconds"),),
            repeats=1,
        )
        assert not report.ok

    def test_render_mentions_every_cell(self, tmp_path):
        _write_baseline(tmp_path / "b.json", [_diffeq_cell(seconds=30.0)])
        report = run_perfcheck(
            root=str(tmp_path),
            baselines=(("b.json", "flat", "flat_seconds"),),
            repeats=1,
        )
        text = report.render()
        assert "diffeq@2A2M/h1/flat" in text
        assert "golden cells" in text


class TestIncrementalCells:
    def test_loads_committed_incremental_baseline(self):
        cells = load_incremental_cells(INCREMENTAL_BASELINE)
        assert cells
        for cell in cells:
            assert cell.bench == "elliptic"
            assert cell.edits
            assert cell.speedup >= MIN_REPAIR_SPEEDUP
            assert cell.repair_seconds < cell.scratch_seconds

    def test_missing_incremental_baseline_is_skipped(self, tmp_path):
        _write_baseline(tmp_path / "b.json", [_diffeq_cell(seconds=30.0)])
        report = run_perfcheck(
            root=str(tmp_path),
            baselines=(("b.json", "flat", "flat_seconds"),),
            repeats=1,
        )
        assert report.ok
        assert INCREMENTAL_BASELINE in report.skipped_baselines
        assert report.incremental == []

    def test_counter_drift_flags_cell(self):
        cells = load_incremental_cells(INCREMENTAL_BASELINE)
        import dataclasses

        bad = dataclasses.replace(cells[0], length=cells[0].length + 1)
        result = _measure_incremental_cell(bad, repeats=1, tolerance=10.0)
        assert not result.ok
        assert any("length" in p for p in result.problems)

    def test_measured_cell_within_envelope(self):
        cells = load_incremental_cells(INCREMENTAL_BASELINE)
        result = _measure_incremental_cell(cells[0], repeats=2, tolerance=2.0)
        assert result.ok, result.problems
        assert result.speedup >= MIN_REPAIR_SPEEDUP

    def test_report_summary_mentions_incremental(self):
        report = run_perfcheck(
            root=".",
            baselines=(),
            repeats=1,
            tolerance=2.0,
        )
        assert "incremental" in report.summary()
        assert len(report.incremental) == 3


class TestVectorCells:
    def test_loads_committed_vector_baseline(self):
        headline = load_vector_headline(VECTOR_BASELINE)
        assert headline.bench == "elliptic" and headline.config == "3A2M"
        assert headline.heuristic == "h2"
        assert headline.vector_seconds > 0
        assert (headline.length, headline.rotations) == (16, 1173)

    def test_vector_golden_cells_load_via_baseline_specs(self):
        (spec,) = [s for s in BASELINE_SPECS if s[0] == VECTOR_BASELINE]
        assert spec[1:] == ("flat", "vector_seconds")
        cells = load_golden_cells(*spec)
        assert cells
        for cell in cells:
            assert cell.backend == "flat"
            assert cell.baseline_seconds > 0

    def test_no_acceptance_cells_raises(self, tmp_path):
        path = tmp_path / "v.json"
        _write_baseline(path, [_diffeq_cell(seconds=30.0)])
        with pytest.raises(ReproError):
            load_vector_headline(str(path))

    def test_headline_counter_drift_flags_cell(self):
        import dataclasses

        headline = load_vector_headline(VECTOR_BASELINE)
        bad = dataclasses.replace(headline, length=headline.length + 1)
        result = _measure_vector_headline(bad, repeats=1, tolerance=10.0)
        assert not result.ok
        assert any("length" in p for p in result.problems)

    def test_headline_within_envelope(self):
        """The default backend meets the pinned vector envelope."""
        headline = load_vector_headline(VECTOR_BASELINE)
        result = _measure_vector_headline(headline, repeats=2, tolerance=2.0)
        assert result.ok, result.problems

    def test_headline_over_envelope_flags_cell(self):
        import dataclasses

        headline = load_vector_headline(VECTOR_BASELINE)
        tight = dataclasses.replace(headline, vector_seconds=1e-6)
        result = _measure_vector_headline(tight, repeats=1, tolerance=0.5)
        assert any("wall-time regression" in p for p in result.problems)

    def test_missing_vector_baseline_is_skipped(self, tmp_path):
        _write_baseline(tmp_path / "b.json", [_diffeq_cell(seconds=30.0)])
        report = run_perfcheck(
            root=str(tmp_path),
            baselines=(("b.json", "flat", "flat_seconds"),),
            repeats=1,
        )
        assert report.ok
        assert VECTOR_BASELINE in report.skipped_baselines
        assert report.vector == []


class TestCommittedEnvelopes:
    def test_smoke_against_committed_baselines(self):
        """The envelope shipped in-repo must hold on the shipping code.

        Tolerance is widened to +200% here because this runs inside a
        loaded pytest process where tiny cells jitter; the strict +50%
        smoke runs in a fresh process via ``rotsched gate``.
        """
        report = run_perfcheck(root=".", smoke=True, tolerance=2.0)
        assert report.ok, report.render()
        # every golden cell runs on the default backend
        assert {r.cell.backend for r in report.results} == {"flat"}
        assert {r.cell.source for r in report.results} == {
            "BENCH_flat.json", VECTOR_BASELINE,
        }
        # and replays the single-solve headline
        assert len(report.vector) == 1

    def test_specs_cover_all_fast_backends(self):
        from repro.core.engine import BACKENDS

        backends = {backend for _, backend, _ in BASELINE_SPECS}
        assert backends == set(BACKENDS) - {"naive"}
