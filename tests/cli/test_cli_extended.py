"""Unit tests for the extended CLI commands (exact/emit/svg/unfold)."""

from repro.cli import main


class TestExact:
    def test_proves_diffeq(self, capsys):
        assert main(["exact", "diffeq", "-r", "1A2M"]) == 0
        out = capsys.readouterr().out
        assert "optimal II = 6" in out and "proven" in out

    def test_step_limit_flag(self, capsys):
        assert main(["exact", "allpole", "-r", "2A1M", "--step-limit", "100"]) == 1
        assert capsys.readouterr().out == "exact: exact search exceeded 100 steps at II=8\n"


class TestEmit:
    def test_writes_verilog(self, tmp_path, capsys):
        out_path = str(tmp_path / "dp.v")
        assert main(["emit", "diffeq", "-r", "1A1Mp", "-o", out_path, "--beta", "8"]) == 0
        text = open(out_path).read()
        assert "module diffeq" in text
        assert "endmodule" in text
        assert "II 6" in capsys.readouterr().out

    def test_custom_module_and_width(self, tmp_path):
        out_path = str(tmp_path / "dp.v")
        main([
            "emit", "biquad", "-r", "2A3M", "-o", out_path,
            "--module", "my_core", "--width", "24", "--beta", "8",
        ])
        text = open(out_path).read()
        assert "module my_core" in text
        assert "WIDTH = 24" in text


class TestSvg:
    def test_writes_svg(self, tmp_path, capsys):
        out_path = str(tmp_path / "s.svg")
        assert main(["svg", "biquad", "-r", "2A3M", "-o", out_path, "--beta", "8"]) == 0
        text = open(out_path).read()
        assert text.startswith("<svg")
        assert "</svg>" in text


class TestBenchFlags:
    """Regression: bench used to reject the shared scheduler flags."""

    def test_accepts_backend_naive_priority(self, capsys):
        assert main([
            "bench", "diffeq", "1A1M", "--beta", "8",
            "--backend", "naive", "--priority", "height",
        ]) == 0
        assert "1A 1M" in capsys.readouterr().out

    def test_engine_parity_in_bench_output(self, capsys):
        main(["bench", "diffeq", "1A2M", "--beta", "8"])
        with_engine = capsys.readouterr().out
        main(["bench", "diffeq", "1A2M", "--beta", "8", "--backend", "naive"])
        without_engine = capsys.readouterr().out
        assert with_engine == without_engine


class TestFuzz:
    def test_small_grid_exits_zero(self, tmp_path, capsys):
        assert main([
            "fuzz", "--seeds", "1", "--max-cells", "12",
            "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "certified 12/12 cells clean" in out

    def test_smoke_respects_budget_flags(self, tmp_path, capsys):
        assert main([
            "fuzz", "--smoke", "--max-cells", "5", "--out", str(tmp_path),
        ]) == 0
        assert "certified 5/5" in capsys.readouterr().out

    def test_failures_exit_nonzero(self, tmp_path, capsys, monkeypatch):
        import repro.qa.runner as runner_mod
        from repro.qa import OracleFailure

        monkeypatch.setattr(
            runner_mod,
            "check_roundtrip",
            lambda graph: [OracleFailure("roundtrip", "injected")],
        )
        assert main([
            "fuzz", "--seeds", "1", "--max-cells", "1",
            "--out", str(tmp_path),
        ]) == 1
        out = capsys.readouterr().out
        assert "FAILING" in out


class TestUnfold:
    def test_round_trips_through_inspect(self, tmp_path, capsys):
        out_path = str(tmp_path / "u.json")
        assert main(["unfold", "biquad", "-f", "3", "-o", out_path]) == 0
        assert main(["inspect", out_path]) == 0
        out = capsys.readouterr().out
        assert "48" in out  # 3 x 16 nodes

    def test_factor_preserves_delays(self, tmp_path, capsys):
        out_path = str(tmp_path / "u.json")
        main(["unfold", "diffeq", "-f", "2", "-o", out_path])
        out = capsys.readouterr().out
        assert "22 nodes" in out
