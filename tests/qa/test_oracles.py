"""Each oracle must fire on a deliberately broken input."""

import pytest

from repro.dfg import DFG
from repro.dfg.retiming import Retiming
from repro.schedule.resources import ResourceModel
from repro.schedule.schedule import Schedule
from repro.qa import (
    check_lower_bound,
    check_modulo,
    check_parity,
    check_retiming,
    check_roundtrip,
    check_semantics,
)
from repro.suite.random_graphs import attach_affine_funcs, random_dsp_kernel


class TestRoundtripOracle:
    def test_clean_on_benchmark(self):
        g = random_dsp_kernel(3, seed=1)
        assert check_roundtrip(g) == []

    def test_fires_on_unencodable_id(self):
        # frozenset ids have no typed encoding; they decode back as strings
        g = DFG("weird")
        g.add_node(frozenset({"a"}), "add")
        fails = check_roundtrip(g)
        assert fails and fails[0].oracle == "roundtrip"

    def test_fires_when_serializer_drops_inits(self, monkeypatch):
        # revert the round-trip fix in spirit: strip inits post-serialization
        from repro.dfg import io as dfg_io

        orig = dfg_io.to_json_dict

        def lossy(graph):
            data = orig(graph)
            for ed in data["edges"]:
                ed.pop("init", None)
            return data

        monkeypatch.setattr(dfg_io, "to_json_dict", lossy)
        fails = check_roundtrip(random_dsp_kernel(3, seed=1))
        assert fails and fails[0].oracle == "roundtrip"
        assert "edges changed" in fails[0].message


class TestRetimingOracle:
    def test_fires_on_negative_dr(self):
        g = DFG()
        g.add_node("a", "add")
        g.add_node("b", "add")
        g.add_edge("a", "b", 0)
        fails = check_retiming(g, Retiming({"b": 3}))
        assert fails and fails[0].oracle == "retiming"
        assert "dr=-3" in fails[0].message

    def test_clean_on_legal(self):
        g = DFG()
        g.add_node("a", "add")
        g.add_node("b", "add")
        g.add_edge("a", "b", 1)
        assert check_retiming(g, Retiming({"b": 1})) == []


class TestLowerBoundOracle:
    def test_fires_when_length_beats_bound(self, tiny_loop):
        model = ResourceModel.adders_mults(1, 1)
        fails = check_lower_bound(tiny_loop, model, 1)
        assert fails and fails[0].oracle == "lower_bound"

    def test_clean_at_bound(self, tiny_loop):
        model = ResourceModel.adders_mults(1, 1)
        assert check_lower_bound(tiny_loop, model, 10) == []


class TestModuloOracle:
    def test_fires_on_oversubscription(self):
        g = DFG()
        g.add_node("m1", "mul")
        g.add_node("m2", "mul")
        model = ResourceModel.adders_mults(1, 1)
        fails = check_modulo(g, model, {"m1": 0, "m2": 2}, 2)
        assert fails and all(f.oracle == "modulo" for f in fails)

    def test_fires_on_broken_precedence(self):
        g = DFG()
        g.add_node("a", "add")
        g.add_node("b", "add")
        g.add_edge("a", "b", 0)
        model = ResourceModel.adders_mults(2, 1)
        # b starts before a finishes with dr = 0
        fails = check_modulo(g, model, {"a": 0, "b": 0}, 4, Retiming.zero())
        assert fails and "precedence" in fails[0].message


class TestSemanticsOracle:
    def test_fires_on_timing_violation(self):
        g = DFG()
        g.add_node("a", "add", func=lambda: 1.0)
        g.add_node("b", "add", func=lambda x: x + 1.0)
        g.add_edge("a", "b", 0)
        model = ResourceModel.adders_mults(2, 1)
        # b reads a in the same CS — the executor must flag it
        sched = Schedule(g, model, {"a": 0, "b": 0})
        fails = check_semantics(sched, Retiming.zero(), 1, iterations=4)
        assert fails and fails[0].oracle == "semantics"
        assert "raised" in fails[0].message

    def test_fires_on_value_divergence(self):
        # Two independent nodes sharing a call counter: the pipeline's
        # global interleaving differs from the reference's per-iteration
        # order, so order-sensitive funcs diverge — a deliberate break of
        # the purity the semantic oracle assumes.
        calls = [0]

        def stateful():
            calls[0] += 1
            return float(calls[0])

        g = DFG()
        g.add_node("p", "add", func=stateful)
        g.add_node("q", "add", func=stateful)
        model = ResourceModel.adders_mults(2, 1)
        sched = Schedule(g, model, {"p": 0, "q": 0})
        fails = check_semantics(sched, Retiming({"p": 1}), 1, iterations=6)
        assert fails and fails[0].oracle == "semantics"
        assert "diverge" in fails[0].message

    def test_clean_on_affine_kernel(self):
        from repro.core.scheduler import rotation_schedule

        g = attach_affine_funcs(random_dsp_kernel(3, seed=2), seed=2)
        model = ResourceModel.adders_mults(2, 1)
        result = rotation_schedule(g, model)
        assert check_semantics(result.schedule, result.retiming, result.length) == []


class TestParityOracle:
    def test_fires_on_any_divergence(self):
        from repro.core.scheduler import rotation_schedule

        g = attach_affine_funcs(random_dsp_kernel(3, seed=0), seed=0)
        model = ResourceModel.adders_mults(2, 1)
        a = rotation_schedule(g, model, backend="flat")
        b = rotation_schedule(g, model, backend="naive")
        assert check_parity(a, b) == []  # the engine is parity-clean
        import dataclasses

        skewed = dataclasses.replace(b, length=b.length + 1, depth=b.depth + 2)
        fails = check_parity(a, skewed)
        oracles = {f.oracle for f in fails}
        assert oracles == {"parity"}
        assert any("length" in f.message for f in fails)
        assert any("depth" in f.message for f in fails)
