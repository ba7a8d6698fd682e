"""``library``: one caller in one thread, calling the library in a closed
loop — cold ``rotation_schedule`` solves interleaved with session
repairs (one edit, then ``resolve()``).

The work is fixed by ``--seconds``, not by the clock: for every ten
seconds asked for, every (paper graph, config, heuristic) cell once,
the three J=2 unfolded graphs (config and heuristic drawn) and four
small random graphs with affine funcs, all in seeded order.  Covering
the paper cells exactly (rather than sampling them) keeps the seeds'
mixes alike, since the cell sets most of a solve's cost; and the same
seed replays the same inputs however fast the machine runs.  After each
solve, the sessions (round robin) take ``REPAIRS_PER_SOLVE`` edits,
each followed by ``resolve()``.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Tuple

from repro.bounds.lower_bounds import combined_lower_bound
from repro.core.scheduler import rotation_schedule
from repro.core.session import open_session
from repro.obs import tracer as obs

import checks
import layers
from common import Calibration, Outcome, Timeline, geomean, percentile, self_rss_mb
from edits import edit_stream
from inputs import CONFIGS, HEURISTICS, PAPER, UNFOLDED, Cell, random_cell

SETUPS = 3
REPAIRS_PER_SOLVE = 3
#: The sessions' cells; their edits come from the seed.
SESSION_CELLS = (Cell("elliptic", "2A1M", "h2"), Cell("lattice", "2A2Mp", "h2"),
                 Cell("biquad", "3A2M", "h2"))


def plan(rng: random.Random, seconds: float) -> List[Cell]:
    """The run's cold solves, in order (57 per ten seconds)."""
    cells: List[Cell] = []
    for _ in range(max(1, round(seconds / 10))):
        cells += [Cell(g, c, h) for g in PAPER for c in CONFIGS for h in HEURISTICS]
        cells += [Cell(g, rng.choice(CONFIGS), rng.choice(HEURISTICS), unfold=2)
                  for g in UNFOLDED]
        cells += [random_cell(rng, 10, 20) for _ in range(4)]
    rng.shuffle(cells)
    return cells


def _open_sessions(seed: int):
    sessions = []
    for i, cell in enumerate(SESSION_CELLS):
        session = open_session(cell.build(), cell.model(), heuristic=cell.heuristic)
        session.resolve()
        sessions.append((session, edit_stream(session.graph, session.model,
                                              random.Random(seed * 7919 + i))))
    return sessions


class Run:
    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.cal = Calibration()
        self.outcome = Outcome()
        self.solve_t = Timeline()
        self.repair_t = Timeline()
        self.check_s = 0.0
        self.answers: Dict[Cell, Tuple] = {}
        #: length / lower bound of each distinct cold answer (repairs are
        #: left out: their lengths follow the seeded edit history)
        self.ratios: Dict[Cell, float] = {}
        self.engine = layers.Engine()

    # -- set-up ---------------------------------------------------------
    def setup(self) -> float:
        times = []
        for _ in range(SETUPS):
            self.cal.sample()
            t0 = time.perf_counter()
            self.sessions = _open_sessions(self.seed)
            dt = time.perf_counter() - t0
            times.append((t0, dt))
            self.cal.sample()
        self.next_session = 0
        return sorted(self.cal.scale(t, dt) for t, dt in times)[SETUPS // 2]

    # -- the loop -------------------------------------------------------
    def _solve(self, cell: Cell) -> None:
        tr = obs.current()
        graph, model = cell.build(), cell.model()
        self.cal.sample()
        self.outcome.attempted += 1
        t0 = time.perf_counter()
        try:
            with tr.span("bench.rotation_schedule"):
                result = rotation_schedule(graph, model, cell.heuristic)
        except Exception as exc:  # any raise is a failed operation
            self.outcome.fail(f"{cell.label()}: raised {exc!r}")
            return
        self.solve_t.add(t0, (time.perf_counter() - t0) * 1000.0)
        self.engine.add_solve(result)
        c0 = time.perf_counter()
        bits = (result.length, dict(result.schedule.start_map), result.retiming)
        first = self.answers.get(cell)
        if first is None:
            self.answers[cell] = bits
            for why in checks.check_cold(graph, model, result):
                self.outcome.fail(f"{cell.label()}: {why}")
            lb = combined_lower_bound(graph, model).combined
            self.ratios[cell] = result.length / lb
        elif first != bits:
            self.outcome.fail(f"{cell.label()}: answer differs from its first solve")
        self.check_s += time.perf_counter() - c0

    def _repair(self) -> None:
        tr = obs.current()
        i = self.next_session
        self.next_session = (i + 1) % len(self.sessions)
        session, stream = self.sessions[i]
        edit = next(stream)
        self.outcome.attempted += 1
        t0 = time.perf_counter()
        try:
            with tr.span("bench.apply_edit"):
                session.apply_edit(edit)
            with tr.span("bench.resolve"):
                result = session.resolve()
        except Exception as exc:
            self.outcome.fail(f"session {i} edit {edit}: raised {exc!r}")
            return
        self.repair_t.add(t0, (time.perf_counter() - t0) * 1000.0)
        c0 = time.perf_counter()
        for why in checks.check_repair(session.graph, session.model, result):
            self.outcome.fail(f"session {i} after {edit}: {why}")
        self.check_s += time.perf_counter() - c0

    def loop(self, cells: List[Cell]) -> None:
        for cell in cells:
            self._solve(cell)
            for _ in range(REPAIRS_PER_SOLVE):
                self._repair()
        self.cal.sample()

    def attribution_inputs(self) -> List[layers.AttributionInput]:
        return [
            layers.AttributionInput(cell.build, cell.model(), cell.heuristic,
                                    cell.payload(), cell.cellspec())
            for cell in self.answers
        ]


def run(seed: int, seconds: float, trace: bool):
    # One thread: pinned to one CPU, so every kernel sample is taken on
    # the CPU the solves around it run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    r = Run(seed)
    setup_s = r.setup()
    if not trace:
        r.loop(plan(r.rng, seconds))
        return (r.outcome, *_end_to_end(r, setup_s))
    # Traced: an untraced half as the overhead baseline, then a traced half.
    r.loop(plan(r.rng, seconds / 2))
    base = r.solve_t.scaled(r.cal)
    n0 = len(r.solve_t)
    # Counters start again with the spans, so per-rotation figures divide
    # the traced solves' time by the traced solves' rotations.
    r.engine = layers.Engine()
    with obs.tracing() as tr:
        r.loop(plan(r.rng, seconds / 2))
        layers.attribute(r.attribution_inputs(), r.engine, seed)
    traced_solves = r.solve_t.scaled(r.cal)[n0:]
    for s, _ in r.sessions:
        r.engine.add_session(s)
    cal_ms, cal_iqr = r.cal.summary()
    own = {
        "bench.cal_ms": cal_ms,
        "bench.cal_iqr": cal_iqr,
        "bench.raw_p50_ms": percentile(r.solve_t.raw(), 50),
        "check_s": r.check_s,
        "tracing_overhead": percentile(traced_solves, 50) / percentile(base, 50) - 1.0,
    }
    return r.outcome, layers.table(tr.events, r.engine, own), {"solves": len(r.solve_t)}


def _end_to_end(r: Run, setup_s: float) -> Dict[str, float]:
    solves = r.solve_t.scaled(r.cal)
    repairs = r.repair_t.scaled(r.cal)
    cal_ms, cal_iqr = r.cal.summary()
    return {
        "setup_s": setup_s,
        "peak_rss_mb": self_rss_mb(),
        "length_ratio": geomean(r.ratios.values()),
        "p50_ms": percentile(solves, 50),
        "tail_ms": percentile(solves, 90),
        "repair_p50_ms": percentile(repairs, 50),
    }, {
        "solves": len(solves), "repairs": len(repairs),
        "repair_p90_ms": percentile(repairs, 90),
        "raw_p50_ms": percentile(r.solve_t.raw(), 50),
        "raw_repair_p50_ms": percentile(r.repair_t.raw(), 50),
        "cal_ms": cal_ms, "cal_iqr": cal_iqr, "check_s": r.check_s,
    }
