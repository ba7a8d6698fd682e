"""CLI tests for the observability commands: trace, profile, perfcheck,
and the --engine-stats satellite fix."""

import json

from repro.cli import main
from repro.obs import TRACE_SCHEMA


class TestEngineStats:
    def test_schedule_engine_stats_flat(self, capsys):
        assert main(["schedule", "diffeq", "-r", "2A2M", "--engine-stats"]) == 0
        out = capsys.readouterr().out
        assert "engine stats:" in out
        assert "rotations=" in out
        assert "engine extras [flat]:" in out
        assert "chain_tip_reuses=" in out
        # the wrap and realize memos and lap replay are flat's own counters
        for key in ("wrap_memo_hits=", "realize_memo_hits=", "lap_replays=",
                    "rotations_replayed="):
            assert key in out

    def test_schedule_engine_stats_naive(self, capsys):
        assert main(
            ["schedule", "diffeq", "-r", "2A2M", "--backend", "naive", "--engine-stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "engine stats: (no engine" in out
        # the old bug: a dangling "engine: " line with nothing after it
        assert "engine: \n" not in out

    def test_bench_engine_stats(self, capsys):
        assert main(["bench", "diffeq", "2A2M", "--engine-stats"]) == 0
        out = capsys.readouterr().out
        assert "engine stats:" in out

    def test_bench_output_unchanged_without_flag(self, capsys):
        assert main(["bench", "diffeq", "2A2M"]) == 0
        out = capsys.readouterr().out
        assert "engine stats:" not in out


class TestTraceCommand:
    def test_trace_writes_valid_jsonl(self, tmp_path, capsys):
        out_path = tmp_path / "t.jsonl"
        assert main(
            ["trace", "diffeq", "-r", "2A2M", "--out", str(out_path), "--validate"]
        ) == 0
        out = capsys.readouterr().out
        assert "span event(s)" in out
        assert "schema valid" in out
        header = json.loads(out_path.read_text().splitlines()[0])
        assert header["schema"] == TRACE_SCHEMA
        assert header["meta"]["graph"] == "diffeq"
        assert header["meta"]["backend"] == "flat"

    def test_trace_backend_recorded_in_meta(self, tmp_path):
        out_path = tmp_path / "t.jsonl"
        assert main(
            [
                "trace", "diffeq", "-r", "2A2M",
                "--backend", "naive", "--out", str(out_path),
            ]
        ) == 0
        header = json.loads(out_path.read_text().splitlines()[0])
        assert header["meta"]["backend"] == "naive"


class TestProfileCommand:
    def test_profile_from_trace_file(self, tmp_path, capsys):
        out_path = tmp_path / "t.jsonl"
        assert main(["trace", "diffeq", "-r", "2A2M", "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["profile", "--input", str(out_path), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "profile of" in out
        assert "self s" in out

    def test_profile_runs_graph_directly(self, capsys):
        assert main(["profile", "diffeq", "-r", "2A2M", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "rotate.down" in out

    def test_profile_without_input_or_graph_errors(self, capsys):
        try:
            code = main(["profile"])
        except SystemExit as exc:
            code = exc.code
        assert code not in (0, None)


class TestPerfcheckCommand:
    def test_perfcheck_smoke_passes(self, capsys):
        # --tolerance widened: tiny cells jitter inside a loaded pytest
        # process; the strict +50% smoke runs fresh via `rotsched gate`.
        assert main(["perfcheck", "--smoke", "--tolerance", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "golden cells within envelope" in out

    def test_perfcheck_missing_root_fails(self, tmp_path, capsys):
        assert main(["perfcheck", "--root", str(tmp_path)]) == 1
