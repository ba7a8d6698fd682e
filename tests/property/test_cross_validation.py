"""Cross-validation fuzzing: all schedulers against each other and the
exact optimum on small random graphs.

The strongest soundness net in the suite: on each random instance,

* the exact branch-and-bound optimum is a true lower bound for every
  heuristic (rotation, modulo, retime-then-schedule);
* the combined analytic lower bound never exceeds the exact optimum;
* every scheduler's output passes the full legality stack, and the
  rotation winner passes semantic execution when functions are attached.
"""

from hypothesis import example, given, settings, strategies as st

from repro.schedule import ResourceModel, is_legal_modulo_schedule
from repro.core import rotation_schedule
from repro.baselines import modulo_schedule, retime_then_schedule
from repro.baselines.exact import exact_modulo_schedule
from repro.bounds import lower_bound
from repro.suite import random_dfg, random_dsp_kernel

small_graphs = st.integers(0, 2_000).map(
    lambda seed: random_dfg(
        8, seed=seed, forward_density=0.2, backward_density=0.15, max_delay=2
    )
)
models = st.sampled_from(
    [
        ResourceModel.adders_mults(1, 1),
        ResourceModel.adders_mults(2, 1),
        ResourceModel.adders_mults(1, 1, pipelined_mults=True),
    ]
)


class TestCrossValidation:
    @given(small_graphs, models)
    @example(
        random_dfg(8, seed=824, forward_density=0.2, backward_density=0.15, max_delay=2),
        ResourceModel.adders_mults(2, 1),
    )  # modulo_schedule's search fails up to the list length; the fallback answers
    @settings(max_examples=20, deadline=None)
    def test_exact_bounds_every_heuristic(self, graph, model):
        exact = exact_modulo_schedule(graph, model, step_limit=400_000)
        assert exact.ii >= lower_bound(graph, model)

        rs = rotation_schedule(graph, model, beta=12)
        assert rs.length >= exact.ii
        assert rs.wrapped.violations() == []

        ims = modulo_schedule(graph, model)
        assert ims.ii >= exact.ii
        assert is_legal_modulo_schedule(graph, model, ims.start, ims.ii)

        rts = retime_then_schedule(graph, model)
        assert rts.length >= exact.ii
        assert rts.wrapped.violations() == []

    @given(small_graphs, models)
    @settings(max_examples=15, deadline=None)
    def test_rotation_close_to_optimal_on_small_graphs(self, graph, model):
        """On 8-node graphs the heuristic lands within 2 CS of optimal —
        a regression tripwire for the rotation engine's search quality."""
        exact = exact_modulo_schedule(graph, model, step_limit=400_000)
        rs = rotation_schedule(graph, model, beta=16)
        assert rs.length <= exact.ii + 2

    @given(st.integers(0, 300), st.integers(3, 5))
    @settings(max_examples=10, deadline=None)
    def test_executable_kernels_fully_agree(self, seed, taps):
        """On simulatable kernels: exact <= RS, and RS's schedule executes
        bit-exactly."""
        from repro.sim import verify_pipeline

        graph = random_dsp_kernel(taps, seed=seed)
        model = ResourceModel.adders_mults(1, 1)
        exact = exact_modulo_schedule(graph, model, step_limit=400_000)
        rs = rotation_schedule(graph, model, beta=12)
        assert exact.ii <= rs.length
        report = verify_pipeline(
            rs.schedule, rs.retiming, iterations=rs.depth + 12, period=rs.length
        )
        assert report.matches_reference
