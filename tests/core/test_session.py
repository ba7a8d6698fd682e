"""MutableSchedulingSession: edits, repair parity, caching, protocol errors."""

import pytest

from repro import ResourceModel, biquad, diffeq, elliptic, open_session, rotation_schedule
from repro.core.engine import BACKENDS
from repro.core.session import EDIT_KINDS, MutableSchedulingSession
from repro.core.wrapping import _wrap_static
from repro.errors import SchedulingError
from repro.qa.oracles import check_parity


def same_result(a, b, label):
    assert not check_parity(a, b, label)


class TestSolveMode:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_initial_resolve_matches_rotation_schedule(self, backend):
        g = elliptic()
        model = ResourceModel.adders_mults(3, 2)
        session = open_session(g, model, backend=backend)
        got = session.resolve()
        want = rotation_schedule(g, model, heuristic="h2", backend=backend)
        same_result(got, want, f"session solve vs rotation_schedule [{backend}]")

    def test_solve_mode_after_edits_matches_scratch(self):
        g = diffeq()
        model = ResourceModel.adders_mults(1, 1)
        session = open_session(g, model)
        session.resolve()
        session.set_resource_counts({"adder": 2})
        got = session.resolve(mode="solve")
        want = rotation_schedule(session.graph, session.model, heuristic="h2")
        same_result(got, want, "session solve-after-edit")


class TestRepair:
    def test_repair_parity_across_backends(self):
        g = elliptic()
        model = ResourceModel.adders_mults(3, 2)
        sessions = {b: open_session(g, model, backend=b) for b in BACKENDS}
        for s in sessions.values():
            s.resolve()
        edits = [
            {"edit": "set_resource_counts", "counts": {"adder": 2}},
            {"edit": "remove_node", "node": "M7"},
            {"edit": "set_exec_time", "node": "c5", "time": 2},
        ]
        for op in edits:
            results = {}
            for b, s in sessions.items():
                s.apply_edit(op)
                results[b] = s.resolve()
            for b in ("flat",):
                same_result(results[b], results["naive"], f"{op['edit']}:{b}")

    def test_flat_memos_never_answer_for_an_edited_graph(self):
        """Fill the flat engine's transition memos, then apply every edit
        kind in turn: each repair matches a naive session with the same
        history, and each full re-solve matches a fresh naive solve of the
        edited graph, bit for bit."""
        from repro.dfg.graph import _EDIT_LOG_CAP
        from repro.serve.protocol import result_payload, schedule_bits

        def bits(result):
            return schedule_bits(result_payload(result))

        g = biquad()
        model = ResourceModel.adders_mults(2, 2)
        flat = open_session(g, model, backend="flat")
        naive = open_session(g, model, backend="naive")
        assert bits(flat.resolve()) == bits(naive.resolve())
        assert flat._engine.metrics()["extras"]["rotation_memo_hits"] > 0
        toggles = [
            {"edit": "set_delay", "src": "o", "dst": "h", "delay": 2 + i % 2}
            for i in range(_EDIT_LOG_CAP + 2)
        ]
        steps = [
            # first, while the memos hold the unedited search: the grown
            # class lets replayed transitions place differently
            ("grow_units", [{"edit": "set_resource_counts", "counts": {"adder": 3}}]),
            ("set_delay", [{"edit": "set_delay", "src": "s1b", "dst": "ma2_1", "delay": 3}]),
            ("add_edge", [{"edit": "add_edge", "src": "y2", "dst": "s1a", "delay": 2}]),
            ("remove_edge", [{"edit": "remove_edge", "src": "y1", "dst": "o"}]),
            ("add_node", [{"edit": "add_node", "node": "qx", "op": "add"}]),
            ("remove_node", [{"edit": "remove_node", "node": "mb1_2"}]),
            ("shrink_units", [{"edit": "set_resource_counts", "counts": {"adder": 1}}]),
            # past the retained edit log: the engine resyncs via apply_delta(None)
            ("log_truncated", toggles),
        ]
        for label, ops in steps:
            for op in ops:
                flat.apply_edit(op)
                naive.apply_edit(op)
            recompiles = flat.metrics["engine_recompiles"]
            assert bits(flat.resolve(polish=4)) == bits(naive.resolve(polish=4)), label
            if label == "log_truncated":
                assert flat.metrics["engine_recompiles"] == recompiles + 1
            fresh = rotation_schedule(
                flat.graph.copy(), flat.model, heuristic="h2", backend="naive"
            )
            assert bits(flat.resolve(mode="solve")) == bits(fresh), label
            naive.resolve(mode="solve")

    def test_noop_resolve_returns_cached_result(self):
        session = open_session(diffeq(), ResourceModel.adders_mults(1, 1))
        first = session.resolve()
        assert session.resolve() is first

    def test_repair_without_seed_raises(self):
        session = open_session(diffeq(), ResourceModel.adders_mults(1, 1))
        with pytest.raises(SchedulingError, match="nothing to repair"):
            session.resolve(mode="repair")

    def test_repair_tracks_metrics(self):
        session = open_session(elliptic(), ResourceModel.adders_mults(2, 2))
        session.resolve()
        session.set_exec_time("c5", 2)
        session.resolve()
        m = session.metrics
        assert m["full_solves"] == 1
        assert m["repairs"] == 1
        assert m["edits_applied"] == 1
        assert m["nodes_invalidated"] >= 1
        assert m["nodes_kept"] >= 1

    def test_structural_edits_flow_through_engine_patch(self):
        session = open_session(elliptic(), ResourceModel.adders_mults(3, 2), backend="flat")
        session.resolve()
        session.remove_node("M8")
        session.resolve()
        assert session.metrics["engine_patches"] >= 1
        # still bit-identical to a from-scratch solve of the edited graph
        want = rotation_schedule(session.graph, session.model, heuristic="h2", backend="flat")
        same_result(session.resolve(mode="solve"), want, "post-patch solve")

    def test_add_node_repair_schedules_it(self):
        session = open_session(diffeq(), ResourceModel.adders_mults(1, 1))
        session.resolve()
        session.add_node("qx0", "add")
        session.add_edge("qx0", session.graph.nodes[0], 1)
        session.add_edge(session.graph.nodes[1], "qx0", 1)
        result = session.resolve()
        assert "qx0" in result.schedule.start_map


class TestEditProtocol:
    def test_all_edit_kinds_dispatch(self):
        assert set(EDIT_KINDS) == {
            "add_node", "remove_node", "add_edge", "remove_edge",
            "set_delay", "set_exec_time", "set_resource_counts",
        }

    def test_unknown_edit_kind_raises(self):
        session = open_session(diffeq(), ResourceModel.adders_mults(1, 1))
        with pytest.raises(SchedulingError, match="unknown edit kind"):
            session.apply_edit({"edit": "rename_node", "node": "x"})

    def test_unknown_node_raises(self):
        session = open_session(diffeq(), ResourceModel.adders_mults(1, 1))
        with pytest.raises(SchedulingError, match="no node matching"):
            session.apply_edit({"edit": "remove_node", "node": "ghost"})

    def test_unknown_unit_class_raises(self):
        session = open_session(diffeq(), ResourceModel.adders_mults(1, 1))
        with pytest.raises(SchedulingError, match="unknown unit class"):
            session.set_resource_counts({"divider": 1})

    def test_session_copies_caller_graph_by_default(self):
        g = diffeq()
        n0 = g.num_nodes
        session = open_session(g, ResourceModel.adders_mults(1, 1))
        session.add_node("qx0", "add")
        assert g.num_nodes == n0
        assert session.graph.num_nodes == n0 + 1

    def test_bad_heuristic_and_backend_rejected(self):
        g = diffeq()
        model = ResourceModel.adders_mults(1, 1)
        with pytest.raises(SchedulingError):
            MutableSchedulingSession(g, model, heuristic="h3")
        with pytest.raises(SchedulingError):
            MutableSchedulingSession(g, model, backend="gpu")


class TestWrapStaticEpoch:
    """Regression: wrap facts must refresh after in-place graph mutation."""

    def test_wrap_static_invalidated_by_mutation(self):
        g = diffeq()
        model = ResourceModel.adders_mults(1, 1)
        _, edges_before, _ = _wrap_static(g, model)
        e = g.edges[0]
        g.set_delay(e, e.delay + 5)
        _, edges_after, _ = _wrap_static(g, model)
        assert edges_before != edges_after
        assert any(d == e.delay + 5 for (_, _, d, _) in edges_after)

    def test_wrap_static_cache_hit_when_unchanged(self):
        g = diffeq()
        model = ResourceModel.adders_mults(1, 1)
        a = _wrap_static(g, model)
        b = _wrap_static(g, model)
        assert a[0] is b[0] and a[1] is b[1]
