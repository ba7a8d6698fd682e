"""The fuzz runner: grid shape, budgets, and the failure->bundle loop."""

import os

import pytest

from repro.qa import (
    DEFAULT_CONFIGS,
    PATHS,
    FuzzCase,
    OracleFailure,
    config_model,
    grid_cases,
    replay_bundle,
    run_cell,
    run_fuzz,
    smoke_cases,
)
from repro.errors import ReproError


class TestConfigModel:
    def test_parses_paper_style_tags(self):
        m = config_model("2A1Mp")
        assert m.unit_for_op("add").count == 2
        assert m.unit_for_op("mul").count == 1
        assert m.unit_for_op("mul").pipelined
        assert not config_model("1A1M").unit_for_op("mul").pipelined

    def test_rejects_garbage(self):
        with pytest.raises(ReproError, match="bad resource config"):
            config_model("3X")


class TestGrid:
    def test_smoke_grid_is_big_enough_and_deterministic(self):
        cases = smoke_cases()
        assert len(cases) >= 200
        assert [c.tag() for c in cases] == [c.tag() for c in smoke_cases()]
        generators = {c.generator for c in cases}
        assert "unfolded_dfg" in generators  # tuple ids are fuzzed
        assert {c.config for c in cases} == set(DEFAULT_CONFIGS)
        assert {c.path for c in cases} == set(PATHS)

    def test_case_tag_and_dict(self):
        c = FuzzCase("random_dfg", {"num_nodes": 8, "seed": 1}, "1A1M", "h2")
        assert c.tag() == "random_dfg(num_nodes=8,seed=1) @ 1A1M / h2"
        assert c.as_dict()["params"] == {"num_nodes": 8, "seed": 1}


class TestFuzzSmoke:
    def test_fixed_seed_slice_certifies_clean(self, tmp_path):
        # the tier-1 deterministic smoke: one seed, every generator,
        # every scheduler path, tight resource set
        cases = grid_cases(seeds=[0], configs=("1A1M",))
        report = run_fuzz(cases, out_dir=str(tmp_path))
        assert report.clean == report.cells == len(cases)
        assert report.failures == []
        assert os.listdir(str(tmp_path)) == []  # no bundles for clean runs

    def test_max_cells_budget_skips_rest(self, tmp_path):
        cases = grid_cases(seeds=[0], configs=("1A1M",))
        report = run_fuzz(cases, max_cells=3, out_dir=str(tmp_path))
        assert report.cells == 3
        assert report.skipped == len(cases) - 3
        assert "skipped by budget" in report.summary()

    def test_time_budget_skips_rest(self, tmp_path):
        cases = grid_cases(seeds=[0], configs=("1A1M",))
        report = run_fuzz(cases, budget_seconds=0.0, out_dir=str(tmp_path))
        assert report.cells <= 1
        assert report.skipped >= len(cases) - 1

    def test_single_cell_runner(self):
        case = FuzzCase(
            "random_chain_loop",
            {"num_stages": 3, "stage_len": 2, "seed": 1},
            "2A1M",
            "h1",
        )
        assert run_cell(case) == []


class TestInjectedFailure:
    def test_failure_is_shrunk_bundled_and_replayable(self, tmp_path, monkeypatch):
        # Revert-the-fix drill: make the roundtrip oracle fire whenever a
        # graph still contains node n0, then check the whole pipeline —
        # detect, delta-debug, bundle, replay.
        import repro.qa.runner as runner_mod

        def broken_roundtrip(graph):
            if any(v == "n0" for v in graph.nodes):
                return [OracleFailure("roundtrip", "injected: n0 survives")]
            return []

        monkeypatch.setattr(runner_mod, "check_roundtrip", broken_roundtrip)
        cases = [
            FuzzCase("random_dfg", {"num_nodes": 8, "seed": 0}, "1A1M", "h2")
        ]
        report = run_fuzz(cases, out_dir=str(tmp_path))
        assert report.clean == 0 and len(report.failures) == 1
        rec = report.failures[0]
        assert rec.failures[0].oracle == "roundtrip"
        # delta-debugging got us to the 1-minimal witness: just n0
        assert rec.shrunk_nodes == 1
        assert rec.bundle_path and os.path.isdir(rec.bundle_path)
        assert "FAILING" in report.summary()

        # the bundle replays: with the monkeypatch still active the bug
        # reproduces; on the fixed code (fresh oracle) it comes back clean
        bundle, now = replay_bundle(rec.bundle_path)
        assert [f.oracle for f in now] == ["roundtrip"]
        monkeypatch.undo()
        _, after_fix = replay_bundle(rec.bundle_path)
        assert after_fix == []

class TestParallelFuzz:
    def test_jobs_verdict_matches_sequential(self, tmp_path):
        # --jobs is pure speed: same cells, same verdict, same (empty)
        # failure list, reported in the same deterministic case order.
        cases = grid_cases(seeds=[1], configs=("1A1M",), paths=("h2",))
        seq = run_fuzz(cases, out_dir=str(tmp_path / "seq"))
        par = run_fuzz(cases, out_dir=str(tmp_path / "par"), jobs=2)
        assert (par.cells, par.clean, par.skipped) == (
            seq.cells,
            seq.clean,
            seq.skipped,
        )
        assert [f.case.tag() for f in par.failures] == [
            f.case.tag() for f in seq.failures
        ]

    def test_jobs_respects_max_cells(self, tmp_path):
        cases = grid_cases(seeds=[1], configs=("1A1M",), paths=("h1", "h2"))
        report = run_fuzz(cases, out_dir=str(tmp_path), jobs=2, max_cells=3)
        assert report.cells == 3
        assert report.skipped == len(cases) - 3

    def test_recording_error_propagates_without_an_inline_rerun(self, tmp_path, monkeypatch):
        import repro.qa.runner as runner_mod

        parent = os.getpid()
        inline_runs = []

        def planted_failure(graph, config, path):
            if os.getpid() == parent:
                inline_runs.append(path)
            return [OracleFailure("crash", "planted")]

        def broken_record(*_args, **_kwargs):
            raise RuntimeError("bundle write failed")

        monkeypatch.setattr(runner_mod, "run_cell_on_graph", planted_failure)
        monkeypatch.setattr(runner_mod, "_record_failure", broken_record)
        cases = grid_cases(seeds=[1], configs=("1A1M",), paths=("h1", "h2"))[:4]
        with pytest.raises(RuntimeError, match="bundle write failed"):
            run_fuzz(cases, out_dir=str(tmp_path), jobs=2)
        assert inline_runs == []
