"""The ``rotsched explore`` command and its span trace as profile input."""

import json

from repro.cli import main


def test_explore_prints_frontier_and_counters(capsys):
    assert main(["explore", "diffeq", "-c", "1A1M", "2A2M", "--clocks", "40", "100"]) == 0
    out = capsys.readouterr().out
    assert "diffeq" in out
    assert "cells_total=4" in out
    assert "frontier_size=" in out


def test_exhaustive_mode(capsys):
    assert main([
        "explore", "diffeq", "-c", "1A1M", "--clocks", "40", "100",
        "--mode", "exhaustive",
    ]) == 0
    out = capsys.readouterr().out
    assert "pruned_bound=0" in out


def test_json_output(tmp_path):
    out = tmp_path / "report.json"
    assert main([
        "explore", "diffeq", "-c", "1A1M", "2A2M", "--json", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["mode"] == "explore"
    assert payload["counters"]["cells_total"] == 6  # 2 configs x 3 clocks
    assert "diffeq" in payload["frontiers"]


def test_trace_then_profile(tmp_path, capsys):
    trace = tmp_path / "explore.jsonl"
    assert main([
        "explore", "diffeq", "biquad", "-c", "1A1M", "2A2M",
        "--clocks", "40", "100", "--workers", "2", "--trace", str(trace),
    ]) == 0
    assert "span event(s)" in capsys.readouterr().out
    assert main(["profile", "--input", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "explore.solve" in out
    assert "explore.fold" in out
    assert "kernel." in out  # the lanes' core spans came back from the workers



def test_large_unfoldings_match_the_exhaustive_frontier(tmp_path):
    # lattice unfolded x5 has 130 nodes and more simple cycles than any
    # enumeration budget; the bounds must still come back, and prune soundly
    reports = {}
    for mode in ("explore", "exhaustive"):
        out = tmp_path / f"{mode}.json"
        assert main([
            "explore", "lattice", "-c", "6A8Mp", "--unfolds", "1", "2", "3", "4", "5",
            "--workers", "1", "--mode", mode, "--json", str(out),
        ]) == 0
        reports[mode] = json.loads(out.read_text())
    assert reports["explore"]["counters"]["pruned_bound"] > 0
    points = {
        mode: [point for point, _labels in report["frontiers"]["lattice"]]
        for mode, report in reports.items()
    }
    assert points["explore"] == points["exhaustive"]


def test_bad_arguments_exit_with_a_message(capsys):
    assert main(["explore", "diffeq", "-c", "1A1M", "--round-size", "0"]) == 1
    assert capsys.readouterr().out.strip() == "explore: round_size must be >= 1, got 0"
    assert main(["explore", "diffeq", "-c", "1A1M", "--clocks", "0"]) == 1
    assert capsys.readouterr().out.startswith("explore: clock_ns and unfold must be >= 1")
