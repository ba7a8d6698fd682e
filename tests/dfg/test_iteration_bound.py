"""Unit tests for the iteration bound, against cycle enumeration."""

import importlib
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import repro
from repro.dfg import DFG, Timing, critical_cycle, iteration_bound, iteration_bound_ceil
from repro.suite import all_benchmarks, PAPER_TIMING
from repro.errors import ZeroDelayCycleError
from tests.cycle_reference import cycle_ratios, enumerated_bound


#: the two ways to the bound that must agree: enumeration, and the
#: parametric routine (cycle improvement on weights ``p*d(e) - q*t(src)``)
ALGORITHMS = {"enumerate": enumerated_bound, "parametric": iteration_bound}


def _ib_mod():
    return importlib.import_module("repro.dfg.iteration_bound")


def _count_calls(monkeypatch, name):
    """Wrap ``repro.dfg.iteration_bound.<name>`` to count its calls."""
    ib_mod = _ib_mod()
    calls = []
    real = getattr(ib_mod, name)
    monkeypatch.setattr(ib_mod, name, lambda *a: calls.append(1) or real(*a))
    return calls


class TestSmallGraphs:
    def test_single_cycle(self, tiny_loop, paper_timing):
        # a(1) + m(2) over 1 delay
        assert iteration_bound(tiny_loop, paper_timing) == 3

    def test_max_over_cycles(self, two_cycle, paper_timing):
        # ratios 3/1 and 2/2
        assert iteration_bound(two_cycle, paper_timing) == 3
        ratios = sorted(r for r, _ in cycle_ratios(two_cycle, paper_timing))
        assert ratios == [Fraction(1), Fraction(3)]

    def test_fractional_bound(self):
        g = DFG()
        for n in "ab":
            g.add_node(n, "add")
        g.add_edge("a", "b", 0)
        g.add_edge("b", "a", 3)
        # t=2, d=3
        assert iteration_bound(g, Timing.unit()) == Fraction(2, 3)
        assert iteration_bound_ceil(g, Timing.unit()) == 1

    def test_acyclic_graph_bound_zero(self, diamond):
        assert iteration_bound(diamond, Timing.unit()) == 0
        assert iteration_bound_ceil(diamond, Timing.unit()) == 0
        assert iteration_bound(DFG("empty")) == 0

    def test_zero_delay_cycle_rejected(self):
        g = DFG()
        for n in "ab":
            g.add_node(n)
        g.add_edge("a", "b", 0)
        g.add_edge("b", "a", 0)
        with pytest.raises(ZeroDelayCycleError):
            iteration_bound(g)

    def test_self_loop(self):
        g = DFG()
        g.add_node("m", "mul")
        g.add_edge("m", "m", 2)
        assert iteration_bound(g, Timing({"mul": 5})) == Fraction(5, 2)

    def test_parallel_edges_use_min_delay(self):
        g = DFG()
        for n in "ab":
            g.add_node(n, "add")
        g.add_edge("a", "b", 0)
        g.add_edge("b", "a", 1)
        g.add_edge("b", "a", 5)  # slack edge must not dilute the bound
        assert iteration_bound(g, Timing.unit()) == 2

    def test_critical_cycle_witness(self, two_cycle, paper_timing):
        ratio, cycle = critical_cycle(two_cycle, paper_timing)
        assert ratio == 3
        assert set(cycle) == {"a1", "m1"}


class TestAlgorithmsAgree:
    @pytest.mark.parametrize("method", list(ALGORITHMS))
    def test_benchmarks(self, method):
        expected = {"elliptic": 16, "diffeq": 6, "lattice": 2, "allpole": 8, "biquad": 4}
        for g in all_benchmarks():
            bound = ALGORITHMS[method](g, PAPER_TIMING)
            assert bound == expected[g.name], g.name

    def test_agreement_on_random_graphs(self):
        from repro.suite import random_dfg

        timing = Timing({"add": 1, "mul": 2})
        for seed in range(8):
            g = random_dfg(16, seed=seed, forward_density=0.2, backward_density=0.12)
            assert enumerated_bound(g, timing) == iteration_bound(g, timing), f"seed {seed}"

    def test_exact_rational_snap(self):
        # bound 5/2 must come back exactly, not as a float approximation
        g = DFG()
        for n in "abc":
            g.add_node(n, "add")
        g.add_edge("a", "b", 0)
        g.add_edge("b", "c", 0)
        g.add_edge("c", "a", 3)
        g.add_node("m", "mul", time=4)
        g.add_edge("a", "m", 0)
        g.add_edge("m", "a", 2)
        timing = Timing({"add": 1, "mul": 4})
        # cycles: (1+1+1)/3 = 1; (1+4)/2 = 5/2
        bound = iteration_bound(g, timing)
        assert type(bound) is Fraction
        assert (bound.numerator, bound.denominator) == (5, 2)

    def test_parametric_compiles_arrays_once(self, monkeypatch):
        # The edge columns are compiled a single time and every
        # Bellman-Ford round of the cycle improvement runs on them; pin
        # both the reuse and the exact rational the rounds converge to.
        from repro.suite import random_dfg

        compiles = _count_calls(monkeypatch, "topological_order")
        rounds = _count_calls(monkeypatch, "_beating_cycle")
        g = random_dfg(16, seed=8, forward_density=0.2, backward_density=0.12)
        assert iteration_bound(g, Timing.unit()) == Fraction(7, 2)
        assert len(compiles) == 1
        # at least one improving round, and the round that proves no
        # cycle beats 7/2
        assert 2 <= len(rounds) <= g.num_edges

    def test_parametric_pins_paper_table1_elliptic(self):
        # Table 1's elliptic bound is exactly the integer 16 under the
        # paper timing — the rational comes back as 16/1, not 15.999...
        # The 68-node unfolding, past the cutoff where the bound used to
        # switch algorithms, scales it exactly.
        from repro.dfg import unfold
        from repro.suite import BENCHMARKS

        graph = BENCHMARKS["elliptic"].build()
        bound = iteration_bound(graph, PAPER_TIMING)
        assert (bound.numerator, bound.denominator) == (16, 1)
        unfolded = unfold(graph, 2)
        assert unfolded.num_nodes == 68
        assert iteration_bound(unfolded, PAPER_TIMING) == Fraction(32, 1)


class TestArraysCacheEpoch:
    """The bound's memo (edge columns plus one answer per node-time
    vector) must die with its epoch.

    The memo is keyed per (graph, epoch, node times): an in-place mutation
    (DFG versioned-mutation protocol) bumps the epoch, and the next bound
    query must recompile rather than reuse stale delay columns or answers.
    """

    def test_mutation_invalidates_compiled_arrays(self):
        g = DFG("epoch")
        g.add_node("a", "add")
        g.add_node("m", "mul")
        g.add_edge("a", "m", 0)
        back = g.add_edge("m", "a", 2)
        timing = Timing({"add": 1, "mul": 4})
        assert iteration_bound(g, timing) == Fraction(5, 2)
        # Halve the delay budget on the cycle: the bound must be computed
        # on the *new* columns, not answered from the memo.
        g.set_delay(back, 1)
        assert iteration_bound(g, timing) == Fraction(5, 1)
        g.set_delay(back, 2)
        assert iteration_bound(g, timing) == Fraction(5, 2)

    def test_unchanged_graph_reuses_arrays_across_calls(self, monkeypatch):
        g = DFG("reuse")
        g.add_node("a", "add")
        g.add_node("m", "mul")
        g.add_edge("a", "m", 0)
        eid = g.add_edge("m", "a", 1)
        timing = Timing({"add": 1, "mul": 2})

        compiles = _count_calls(monkeypatch, "topological_order")
        solves = _count_calls(monkeypatch, "_max_cycle_ratio")
        first = iteration_bound(g, timing)
        second = iteration_bound(g, timing)
        assert first == second == Fraction(3, 1)
        assert (len(compiles), len(solves)) == (1, 1)  # second call hit the memo
        assert iteration_bound(g, Timing({"add": 1, "mul": 5})) == Fraction(6, 1)
        assert (len(compiles), len(solves)) == (1, 2)  # new times, same columns
        g.set_delay(eid, 3)
        assert iteration_bound(g, timing) == Fraction(1, 1)
        assert (len(compiles), len(solves)) == (2, 3)  # epoch bump forced a recompile

    def test_fresh_equal_timing_hits_the_memo(self, monkeypatch):
        # ResourceModel.timing() builds a new Timing on every call; the
        # memo is keyed by the node times' value, so a thousand certified
        # -stop bounds on one graph leave one answer and compute it once.
        from repro.core.phases import search_bound
        from repro.schedule.resources import ResourceModel
        from repro.suite import elliptic

        g = elliptic()
        model = ResourceModel.adders_mults(3, 2)
        solves = _count_calls(monkeypatch, "_max_cycle_ratio")
        assert {search_bound(g, model) for _ in range(1000)} == {16}
        assert len(solves) == 1
        assert len(_ib_mod()._COLUMNS[g][-1]) == 1
        # an epoch bump (delay edit, new edge) still recomputes
        back = next(e for e in g.edges if e.delay > 0)
        g.set_delay(back, back.delay + 1)
        search_bound(g, model)
        assert len(solves) == 2
        g.add_edge(g.nodes[0], g.nodes[1], 1)
        search_bound(g, model)
        assert len(solves) == 3
        assert len(_ib_mod()._COLUMNS[g][-1]) == 1

    def test_structural_mutations_also_invalidate(self):
        g = DFG("grow")
        g.add_node("a", "add")
        g.add_node("b", "add")
        g.add_edge("a", "b", 0)
        g.add_edge("b", "a", 2)
        timing = Timing({"add": 1})
        assert iteration_bound(g, timing) == Fraction(1, 1)
        g.add_node("c", "add")
        g.add_edge("b", "c", 0)
        g.add_edge("c", "a", 1)  # new cycle: 3 time / 1 delay
        assert iteration_bound(g, timing) == Fraction(3, 1)

    def test_session_edit_then_bound_sees_fresh_value(self):
        # The end-to-end shape the serve warm path relies on: a session
        # mutates its graph in place, then a lower-bound query runs.
        from repro.core.session import MutableSchedulingSession
        from repro.schedule.resources import ResourceModel
        from repro.suite import random_dfg

        g = random_dfg(10, seed=13)
        session = MutableSchedulingSession(
            g, ResourceModel.adders_mults(2, 1), copy_graph=False
        )
        timing = Timing({"add": 1, "mul": 2})
        before = iteration_bound(g, timing)
        e = next(e for e in g.edges if e.delay > 0)
        session.apply_edit({"edit": "set_delay", "src": e.src, "dst": e.dst,
                           "delay": e.delay + 4})
        session.resolve()
        after = iteration_bound(g, timing)
        fresh = iteration_bound(g.copy(), timing)
        assert after == fresh == enumerated_bound(g, timing)
        assert before != after  # the extra registers loosened the bound


class TestCriticalCycle:
    """The witness is the cycle-improvement loop's last improving cycle: a
    real cycle of the graph whose ratio is the bound."""

    @staticmethod
    def _closes_at_ratio(g, timing, ratio, cycle):
        # consecutive nodes are joined by edges, and the best delays
        # around the cycle give exactly the bound
        delays = {}
        for e in g.edges:
            key = (e.src, e.dst)
            delays[key] = min(delays.get(key, e.delay), e.delay)
        hops = list(zip(cycle, cycle[1:] + cycle[:1]))
        assert len(set(cycle)) == len(cycle) and all(h in delays for h in hops)
        t = sum(g.time(v, timing) for v in cycle)
        assert Fraction(t, sum(delays[h] for h in hops)) == ratio

    def test_witness_on_paper_graphs_and_unfoldings(self):
        from repro.dfg import unfold

        for base in all_benchmarks():
            for g in (base, unfold(base, 2)):
                ratio, cycle = critical_cycle(g, PAPER_TIMING)
                assert ratio == iteration_bound(g, PAPER_TIMING), g.name
                self._closes_at_ratio(g, PAPER_TIMING, ratio, cycle)

    def test_acyclic_graph_has_no_witness(self, diamond):
        assert critical_cycle(diamond, Timing.unit()) == (0, [])

    def test_witness_follows_the_mutated_graph(self):
        from repro.suite import diffeq

        g = diffeq()
        _, cycle = critical_cycle(g, PAPER_TIMING)
        # one more delay on every edge of the witness: the old witness
        # cannot come back at the old ratio
        for e in g.edges:
            if e.src in cycle and e.dst in cycle:
                g.set_delay(e, e.delay + 1)
        ratio, fresh = critical_cycle(g, PAPER_TIMING)
        assert (ratio, fresh) == critical_cycle(g.copy(), PAPER_TIMING)
        assert ratio == enumerated_bound(g, PAPER_TIMING)
        self._closes_at_ratio(g, PAPER_TIMING, ratio, fresh)

    def test_witness_ignores_the_hash_seed(self):
        """The tie-break reads edge order only: two interpreters with
        different string hashing name the same witness on every paper
        graph and its 2-unfolding."""
        script = (
            "from repro.dfg import critical_cycle, unfold\n"
            "from repro.suite import PAPER_TIMING, all_benchmarks\n"
            "for g in all_benchmarks():\n"
            "    for h in (g, unfold(g, 2)):\n"
            "        print(h.name, critical_cycle(h, PAPER_TIMING))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            outs.append(run.stdout)
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 2 * len(all_benchmarks())
