"""The incremental-parity oracle and its fuzz-grid wiring."""

import random

from repro import diffeq, elliptic
from repro.core.session import open_session
from repro.qa import (
    PATHS,
    PINNED_EDIT_SCRIPTS,
    check_incremental_session,
    random_edit_script,
)
from repro.qa.incremental import _compare_backends
from repro.qa.runner import config_model, run_cell_on_graph


class TestRandomEditScript:
    def test_deterministic_for_fixed_seed(self):
        g, model = diffeq(), config_model("1A1M")
        a = random_edit_script(g, model, random.Random(5), steps=6)
        b = random_edit_script(g, model, random.Random(5), steps=6)
        assert a == b

    def test_script_replays_through_session(self):
        g, model = elliptic(), config_model("2A1M")
        script = random_edit_script(g, model, random.Random(3), steps=6)
        assert script  # a 6-step walk on elliptic always emits something
        session = open_session(g, model)
        for op in script:
            session.apply_edit(op)  # must never dead-end
        assert session.resolve().length > 0

    def test_scratch_copy_leaves_input_untouched(self):
        g, model = diffeq(), config_model("1A1M")
        epoch = g.epoch
        random_edit_script(g, model, random.Random(1), steps=8)
        assert g.epoch == epoch


class TestOracle:
    def test_benchmarks_certify_clean(self):
        assert check_incremental_session(diffeq(), config_model("1A1M")) == []
        assert check_incremental_session(elliptic(), config_model("2A1M")) == []

    def test_divergent_results_are_flagged(self):
        # Different models produce different schedules; the comparator must
        # report them as incremental-parity failures, not raise.
        tight = open_session(diffeq(), config_model("1A1M")).resolve()
        loose = open_session(diffeq(), config_model("2A1M")).resolve()
        failures = _compare_backends(
            {"flat": tight, "naive": loose}, "synthetic"
        )
        assert failures
        assert all(f.oracle == "incremental-parity" for f in failures)


class TestGridWiring:
    def test_incremental_in_paths(self):
        assert "incremental" in PATHS

    def test_run_cell_on_graph_dispatches_incremental(self):
        assert run_cell_on_graph(diffeq(), "1A1M", "incremental") == []


class TestPinnedScripts:
    def test_pinned_scripts_replay_on_elliptic(self):
        model = config_model("3A2M")
        for name, script in PINNED_EDIT_SCRIPTS.items():
            s = open_session(elliptic(), model)
            s.resolve()
            for op in script:
                s.apply_edit(op)
            result = s.resolve()
            assert result.length > 0, name
            assert s.metrics["repairs"] == 1, name
