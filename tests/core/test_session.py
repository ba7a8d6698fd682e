"""MutableSchedulingSession: edits, repair parity, caching, protocol errors."""

import pytest

from repro import ResourceModel, biquad, diffeq, elliptic, open_session, rotation_schedule
from repro.core.engine import BACKENDS
from repro.core.session import EDIT_KINDS, MutableSchedulingSession
from repro.core.wrapping import _wrap_static
from repro.errors import SchedulingError
from repro.qa.oracles import check_parity
from repro.schedule.schedule import Schedule
from repro.schedule.verify import check_schedule


def same_result(a, b, label):
    assert not check_parity(a, b, label)


def same_surface(a, b, label):
    """Every result field a copy of the finish stage could drift on."""
    same_result(a, b, label)
    for name in ("heuristic", "initial_length", "optimal_count", "rotations_performed"):
        assert getattr(a, name) == getattr(b, name), (label, name)
    assert len(a.alternates) == len(b.alternates) == a.optimal_count - 1, label
    for x, y in zip(a.alternates, b.alternates):
        assert x.schedule.start_map == y.schedule.start_map, label
        assert x.retiming == y.retiming, label
        assert x.period == y.period == a.length, label


class TestSolveMode:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_session_solve_matches_rotation_schedule_full_surface(self, backend):
        g = biquad()
        model = ResourceModel.adders_mults(2, 2)
        session = open_session(g, model, backend=backend)
        got = session.solve()
        want = rotation_schedule(g, model, heuristic="h2", backend=backend)
        same_surface(got, want, f"session solve [{backend}]")
        assert got.alternates  # the tie set is compared, not skipped
        session.set_resource_counts({"adder": 1})
        got = session.solve()
        want = rotation_schedule(session.graph, session.model, heuristic="h2", backend=backend)
        same_surface(got, want, f"session solve after edit [{backend}]")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_solve_and_repair_reduces_depth_once(self, backend):
        from repro.obs.tracer import tracing

        g = diffeq()
        model = ResourceModel.adders_mults(1, 1)
        session = open_session(g, model, backend=backend)

        def spans(run):
            with tracing() as tr:
                run()
            return [ev.name for ev in tr.events].count("depth_reduction")

        assert spans(lambda: rotation_schedule(g, model, backend=backend)) == 1
        assert spans(session.solve) == 1
        session.set_resource_counts({"adder": 2})
        assert spans(lambda: session.resolve(mode="repair")) == 1

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
        """Fill the flat engine's wrap and realize memos, then apply every
        edit kind in turn: each repair matches a naive session with the same
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
        # the unedited search filled the memos and repeated itself (lap
        # replay answered part of it)
        extras = flat._engine.metrics()["extras"]
        assert extras["rotations_replayed"] > 0
        assert extras["wrap_memo_hits"] > 0
        assert extras["realize_memo_hits"] > 0
        toggles = [
            {"edit": "set_delay", "src": "o", "dst": "h", "delay": 2 + i % 2}
            for i in range(_EDIT_LOG_CAP + 2)
        ]
        steps = [
            # first, while the memos hold the unedited search: the grown
            # class places the same configurations differently
            ("grow_units", [{"edit": "set_resource_counts", "counts": {"adder": 3}}]),
            ("set_delay", [{"edit": "set_delay", "src": "s1b", "dst": "ma2_1", "delay": 3}]),
            ("add_edge", [{"edit": "add_edge", "src": "y2", "dst": "s1a", "delay": 2}]),
            ("remove_edge", [{"edit": "remove_edge", "src": "y1", "dst": "o"}]),
            ("add_node", [{"edit": "add_node", "node": "qx", "op": "add"}]),
            ("remove_node", [{"edit": "remove_node", "node": "mb1_2"}]),
            ("shrink_units", [{"edit": "set_resource_counts", "counts": {"adder": 1}}]),
            # past the retained edit log: one resync, as for any edit batch
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

    def test_structural_edits_flow_through_engine_recompile(self):
        session = open_session(elliptic(), ResourceModel.adders_mults(3, 2), backend="flat")
        session.resolve()
        assert session.metrics["engine_recompiles"] == 0
        session.remove_node("M8")
        session.resolve()
        assert session.metrics["engine_recompiles"] == 1
        # still bit-identical to a from-scratch solve of the edited graph
        want = rotation_schedule(session.graph, session.model, heuristic="h2", backend="flat")
        same_result(session.resolve(mode="solve"), want, "post-recompile solve")

    def test_add_node_repair_schedules_it(self):
        session = open_session(diffeq(), ResourceModel.adders_mults(1, 1))
        session.resolve()
        session.add_node("qx0", "add")
        session.add_edge("qx0", session.graph.nodes[0], 1)
        session.add_edge(session.graph.nodes[1], "qx0", 1)
        result = session.resolve()
        assert "qx0" in result.schedule.start_map


class TestSeed:
    """``seed()``: a schedule found elsewhere becomes the repair seed."""

    EDITS = [
        {"edit": "set_resource_counts", "counts": {"adder": 2}},
        {"edit": "remove_node", "node": "M7"},
    ]

    def seeded(self, backend="flat"):
        g = elliptic()
        model = ResourceModel.adders_mults(3, 2)
        found = rotation_schedule(g, model, heuristic="h2")
        session = open_session(g, model, backend=backend)
        session.seed(found.schedule, found.retiming)
        return session, found

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_seeded_session_repairs_instead_of_searching(self, backend):
        session, found = self.seeded(backend)
        assert session.resolve().length == found.length
        for op in self.EDITS:
            session.apply_edit(op)
            result = session.resolve()
            assert not check_schedule(result.schedule, result.retiming)
        assert session.metrics["full_solves"] == 0
        assert session.metrics["repairs"] == 1 + len(self.EDITS)

    def test_seeded_repairs_agree_across_backends(self):
        results = {}
        for backend in BACKENDS:
            session, _ = self.seeded(backend)
            for op in self.EDITS:
                session.apply_edit(op)
            results[backend] = session.resolve()
        same_result(results["flat"], results["naive"], "seeded repair")

    def test_illegal_start_is_rejected_and_the_session_kept(self):
        g = elliptic()
        model = ResourceModel.adders_mults(3, 2)
        found = rotation_schedule(g, model, heuristic="h2")
        sched, r = found.schedule, found.retiming
        edge = next(e for e in g.edges if r.dr(e) == 0)
        start = dict(sched.start_map)
        start[edge.dst] = start[edge.src]
        bad = Schedule(g, model, start, sched.unit_map)
        session = open_session(g, model)
        with pytest.raises(SchedulingError, match="seed rejected"):
            session.seed(bad, r)
        session.resolve()  # no seed was adopted: a full search
        assert session.metrics["full_solves"] == 1

    def test_double_booked_instance_is_rejected(self):
        g = elliptic()
        model = ResourceModel.adders_mults(3, 2)
        found = rotation_schedule(g, model, heuristic="h2")
        sched = found.schedule
        # two adders in one control step, moved onto one instance: the
        # class count is unchanged, so only the instance check sees it
        u, v = next(
            (a, b) for a in g.nodes for b in g.nodes
            if g.op(a) == g.op(b) == "add" and a != b
            and sched.start(a) == sched.start(b)
        )
        units = dict(sched.unit_map)
        units[v] = units[u]
        with pytest.raises(SchedulingError, match="share adder"):
            open_session(g, model).seed(Schedule(g, model, sched.start_map, units), found.retiming)
        units[v] = 3
        with pytest.raises(SchedulingError, match="adder instance 3 of 3"):
            open_session(g, model).seed(Schedule(g, model, sched.start_map, units), found.retiming)

    def test_seed_needs_no_pending_edits(self):
        g = elliptic()
        model = ResourceModel.adders_mults(3, 2)
        found = rotation_schedule(g, model, heuristic="h2")
        session = open_session(g, model)
        session.apply_edit(self.EDITS[0])
        with pytest.raises(SchedulingError, match="no pending edits"):
            session.seed(found.schedule, found.retiming)


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
