"""Unit tests for the rotsched command-line interface."""

import pytest

from repro.cli import main, parse_config


class TestParseConfig:
    def test_basic(self):
        model, label = parse_config("3A2M")
        assert label == "3A 2M"
        assert model.unit("adder").count == 3
        assert model.unit("mult").count == 2
        assert not model.unit("mult").pipelined

    def test_pipelined_and_spaces(self):
        model, label = parse_config("2A 1Mp")
        assert label == "2A 1Mp"
        assert model.unit("mult").pipelined

    def test_lowercase(self):
        model, _ = parse_config("1a1mp")
        assert model.unit("mult").pipelined

    @pytest.mark.parametrize("bad", ["", "3X2M", "A2M", "3A2"])
    def test_bad_configs(self, bad):
        with pytest.raises(SystemExit):
            parse_config(bad)


class TestErrors:
    """Every library error ends as one ``<command>: <message>`` line and
    exit status 1, never a traceback."""

    def test_bad_unfold_factor(self, tmp_path, capsys):
        target = tmp_path / "x.json"
        assert main(["unfold", "diffeq", "--factor", "0", "-o", str(target)]) == 1
        assert capsys.readouterr().out == "unfold: unfolding factor must be >= 1, got 0\n"
        assert not target.exists()

    def test_serve_without_workers_fails_before_binding_or_forking(self, monkeypatch, capsys):
        import repro.serve.pool
        import repro.serve.server

        def refuse(*args, **kwargs):
            raise AssertionError("serve got past its worker count")

        monkeypatch.setattr(repro.serve.server, "start_server", refuse)
        monkeypatch.setattr(repro.serve.pool, "ProcessPoolExecutor", refuse)
        assert main(["serve", "--workers", "0", "--port", "0"]) == 1
        assert capsys.readouterr().out == "serve: worker count must be >= 1, got 0\n"


class TestCommands:
    def test_inspect(self, capsys):
        assert main(["inspect", "diffeq"]) == 0
        out = capsys.readouterr().out
        assert "11" in out and "iteration bound: 6" in out

    def test_schedule(self, capsys):
        assert main(["schedule", "diffeq", "-r", "1A1Mp", "--beta", "8"]) == 0
        out = capsys.readouterr().out
        assert "-> 6 CS" in out
        assert "CS" in out

    def test_schedule_with_gantt(self, capsys):
        assert main(["schedule", "diffeq", "-r", "1A1Mp", "--beta", "8", "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "adder[0]" in out

    def test_bench(self, capsys):
        assert main(["bench", "biquad", "2A4M", "1A1M", "--beta", "8"]) == 0
        out = capsys.readouterr().out
        assert "2A 4M" in out and "1A 1M" in out and "LB" in out

    def test_bench_with_baselines(self, capsys):
        assert main(["bench", "diffeq", "1A2M", "--beta", "8", "--baselines"]) == 0
        out = capsys.readouterr().out
        assert "Modulo" in out and "Retime+LS" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "diffeq", "-r", "1A2M", "-n", "20", "--beta", "8"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "machine sim" in out

    def test_json_graph_input(self, tmp_path, capsys):
        from repro.dfg import io as dio
        from repro.suite import biquad

        path = str(tmp_path / "g.json")
        dio.save(biquad(), path)
        assert main(["inspect", path]) == 0
        assert "16" in capsys.readouterr().out  # nodes

    def test_unknown_benchmark_fails(self, capsys):
        assert main(["inspect", "does-not-exist"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("inspect: 'does-not-exist' is neither a benchmark (elliptic, ")
        assert out.count("\n") == 1
