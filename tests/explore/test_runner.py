"""Cell execution parity: cold vs warm vs memo vs serve."""

import asyncio

import pytest

from repro.core.engine import BACKENDS
from repro.core.scheduler import rotation_schedule
from repro.core.session import MutableSchedulingSession
from repro.explore import CellSolver, CellSpec, ServeCellSolver, run_grid
from repro.explore.bounds import bound_graph
from repro.explore.space import cell_model, with_counts
from repro.qa.oracles import check_parity


class TestWarmSeedingParity:
    """The golden-parity idiom extended to warm chains: a session seeded
    from a neighboring resource config must be bit-identical to a cold
    solve of the target config — on every backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_warm_equals_cold_on_backend(self, backend):
        seed = CellSpec("diffeq", 1, 1, clock_ns=50)
        target = with_counts(seed, 2, 1)
        session = MutableSchedulingSession(
            bound_graph(seed),
            cell_model(seed),
            heuristic=seed.heuristic,
            backend=backend,
        )
        session.resolve(mode="solve")
        session.set_resource_counts({"adder": target.adders, "mult": target.mults})
        warm = session.resolve(mode="solve")
        cold = rotation_schedule(
            bound_graph(target),
            cell_model(target),
            heuristic=target.heuristic,
            backend=backend,
        )
        assert not check_parity(warm, cold, f"warm vs cold [{backend}]")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_solver_warm_point_equals_cold_point(self, backend):
        solver = CellSolver(backend=backend)
        cells = [
            CellSpec("diffeq", 1, 1, clock_ns=50),
            CellSpec("diffeq", 2, 1, clock_ns=50),
            CellSpec("diffeq", 2, 2, clock_ns=50),
        ]
        warm = run_grid(cells, solver)
        cold = run_grid(cells, CellSolver(backend=backend), cold=True)
        assert [o.source for o in warm] == ["solve", "warm", "warm"]
        assert [o.point for o in warm] == [o.point for o in cold]


class TestMemoAndCohort:
    """The solve-key memo: the dedup the removed ``solve_batch`` cohorts
    used to do now happens here."""

    def test_clock_collapse_hits_memo(self):
        solver = CellSolver(backend="flat")
        a = solver.solve(CellSpec("diffeq", 1, 1, clock_ns=40))
        b = solver.solve(CellSpec("diffeq", 1, 1, clock_ns=50))
        assert b.source == "memo"
        assert b.length == a.length and b.registers == a.registers
        # same length, but the 40 ns cell's point is faster in ns
        assert a.point.period_ns < b.point.period_ns

    def test_duplicate_solve_keys_match_individual_solves(self):
        """Cells of different graphs under one model solve separately;
        a repeated solve key is a memo hit with the cold solve's point."""
        specs = [
            CellSpec("diffeq", 2, 1, clock_ns=50),
            CellSpec("biquad", 2, 1, clock_ns=50),
            CellSpec("biquad", 2, 1, clock_ns=40),  # same solve key as above
        ]
        got = run_grid(specs, CellSolver())
        singles = [CellSolver().solve_cold(s) for s in specs]
        assert [o.point for o in got] == [o.point for o in singles]
        assert [o.source for o in got] == ["solve", "solve", "memo"]
        assert got[2].deduped


class _InlineClient:
    """ServeClient stand-in: drives an in-process service synchronously."""

    def __init__(self, service):
        self.service = service

    def solve(self, payload):
        return asyncio.run(self.service.solve(payload))

    def close(self):
        self.service.close()


class TestServeCellSolver:
    def test_serve_point_matches_local_and_caches(self):
        from repro.serve import build_service

        solver = ServeCellSolver(client=_InlineClient(build_service(inline=True)))
        try:
            spec = CellSpec("diffeq", 2, 1, clock_ns=40, unfold=2)
            first = solver.solve(spec)
            again = solver.solve(spec)
        finally:
            solver.close()
        local = CellSolver(backend="flat").solve_cold(spec)
        assert first.point == local.point
        assert first.length == local.length and first.registers == local.registers
        assert first.source == "serve:solved"
        assert again.source == "serve:memory"

    def test_payload_never_sends_clock_option(self):
        # the daemon's "clock" option selects chained (ns-granularity)
        # scheduling — the explorer's clock axis must travel as latencies
        payload = ServeCellSolver(client=object()).payload(
            CellSpec("diffeq", 2, 1, clock_ns=100)
        )
        assert "clock" not in payload["options"]
        latencies = {u["name"]: u["latency"] for u in payload["config"]["units"]}
        assert latencies == {"adder": 1, "mult": 1}
