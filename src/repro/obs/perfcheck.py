"""The perf-regression gate: one tier table over one pinned file.

``PERF_PINS.json`` pins each gated cell once, by :class:`Tier`: exact
``counters`` and, if timed, a wall envelope in reference ms.  Each sample
is scaled by ``REF_MS / k``, ``k`` the frozen kernel of ``perfbench/common.py``
run on the same clock just before and after it, and a cell keeps the median:
a slow phase of the host slows the kernel with the cell, so the verdict
follows the code.  Without that file perfcheck raises, never gating raw times.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

PINS_FILE = "PERF_PINS.json"  # at the repo root

#: Ratio floors: session repair vs a scratch solve of the edited graph, the
#: cached service vs uncached solving and the explorer vs the exhaustive sweep
#: stay this many times faster; a traced solve costs at most 1.5 untraced ones.
MIN_REPAIR_SPEEDUP = 3.0
MIN_SERVE_SPEEDUP = 5.0
MIN_EXPLORE_SPEEDUP = 3.0
MAX_TRACED_OVERHEAD = 1.5

#: Wall-time slack over a pinned envelope; ``--smoke`` never runs
#: tighter.  Set from the spread of repeated smoke runs (CHANGES.md).
TOLERANCE = 0.3
#: Samples per cell, ``--record`` sweeps per pin (so a pin spans time), and
#: repairs per timed sample (one repair lasts a sixth of a kernel run).
REPEATS, RECORD_PASSES, REPAIRS_PER_SAMPLE = 7, 3, 8


@dataclass
class Measured:
    """One replayed cell: gated time in kernel units, kernel ms, counters, ratio."""

    units: Optional[float]
    kernel_ms: float
    counters: Dict[str, Any]
    ratio: Optional[float] = None
    problems: List[str] = field(default_factory=list)
    tier: str = ""
    label: str = ""
    pinned_ref_ms: Optional[float] = None


@dataclass(frozen=True)
class Tier:
    """A class of pinned cells: ``replay(cell, repeats, kernel)``, the ``cells()``
    ``--record`` pins, and the floor of ``Measured.ratio`` (``/ (1 + tolerance)`` if ``slack``)."""

    name: str
    replay: Callable[[Dict[str, Any], int, Callable[[], float]], Measured]
    cells: Callable[[], List[Dict[str, Any]]]
    floor: float = 0.0
    slack: bool = False
    full_only: bool = False


def _wall(fn: Callable[[], Any]) -> Callable[[], Tuple[float, Any]]:
    def timed():
        t0 = time.perf_counter()
        out = fn()
        return (time.perf_counter() - t0) * 1000.0, out
    return timed


def _sample(timed: Callable[[], Tuple[float, Any]], repeats: int, kernel: Callable[[], float]):
    """``(median kernel units, median kernel ms, last output)`` of ``repeats``
    runs of ``timed() -> (ms, output)``, each between two kernel runs."""
    ks, units, out = [kernel()], [], None
    for _ in range(max(repeats, 1)):
        ms, out = timed()
        ks.append(kernel())
        units.append(ms * 2.0 / (ks[-2] + ks[-1]))
    return statistics.median(units), statistics.median(ks), out


def _problem(cell):
    from repro.qa.runner import config_model
    from repro.suite.registry import get_benchmark

    return get_benchmark(cell["bench"]), config_model(cell["config"])


def _solver(cell, graph=None, model=None):
    from repro.core.scheduler import rotation_schedule

    graph, model = (graph, model) if graph is not None else _problem(cell)
    return lambda: rotation_schedule(graph, model, heuristic=cell["heuristic"])


_SOLVE_CELLS = [{"bench": b, "config": c, "heuristic": h} for b, c, h in (
    ("elliptic", "3A2M", "h2"), ("elliptic", "2A1Mp", "h2"), ("lattice", "2A2M", "h2"),
    ("allpole", "2A2M", "h2"), ("biquad", "2A2M", "h1"), ("diffeq", "2A2M", "h1"))]
#: Flat-engine counters the solve tier pins exactly, besides length and
#: rotations (``engine_rotations`` is the engine's own rotation count).
SOLVE_COUNTERS = ("grid_delta_rotations", "grid_reseeds", "rotation_memo_hits",
                  "lap_replays", "rotations_replayed")


def _replay_solve(cell, repeats, kernel) -> Measured:
    units, kms, res = _sample(_wall(_solver(cell)), repeats, kernel)
    found = dict(res.engine_stats, **res.engine_metrics["extras"])
    return Measured(units, kms, {"length": res.length, "rotations": res.rotations_performed,
                                 "engine_rotations": found["rotations"],
                                 **{name: found[name] for name in SOLVE_COUNTERS}})


def _repair_cells() -> List[Dict[str, Any]]:
    from repro.qa.incremental import PINNED_EDIT_SCRIPTS

    return [{"bench": "elliptic", "config": "3A2M", "heuristic": "h2", "script": name,
             "edits": edits} for name, edits in sorted(PINNED_EDIT_SCRIPTS.items())]


def _replay_repair(cell, repeats, kernel) -> Measured:
    """The repairing ``resolve()`` after the edit script, per repair, on
    fresh solved sessions, against a scratch solve of the edited graph."""
    from repro.core.session import open_session

    graph, model = _problem(cell)

    def repair():
        sessions = [open_session(graph, model, heuristic=cell["heuristic"])
                    for _ in range(REPAIRS_PER_SAMPLE)]
        for session in sessions:
            session.resolve()
            for op in cell["edits"]:
                session.apply_edit(op)
        return _wall(lambda: [(s.resolve(), s) for s in sessions][-1])()

    units, kms, (res, session) = _sample(repair, repeats, kernel)
    units /= REPAIRS_PER_SAMPLE
    scratch, _, _ = _sample(_wall(_solver(cell, session.graph, session.model)), repeats, kernel)
    counters = {"length": res.length, "invalidated": session.metrics["nodes_invalidated"]}
    return Measured(units, kms, counters, ratio=scratch / units)


def _replay_serve(cell, repeats, kernel) -> Measured:
    """The workload served in-process as one stream (each distinct cell misses
    once) vs solved uncached; each served answer must equal the fresh one."""
    import asyncio

    from repro.serve import build_service, demo_workload
    from repro.serve.protocol import (canonical_request, fingerprint, parse_request,
                                      schedule_bits, solve_canonical)

    workload = demo_workload(repeats=cell["workload_repeats"])

    def uncached():
        out = {}
        for payload in workload:
            canonical = canonical_request(parse_request(payload))
            out[fingerprint(canonical)] = solve_canonical(canonical)
        return out

    async def drive(service):
        return [await service.solve(p) for p in workload]

    def served():
        service = build_service(inline=True)
        try:
            return _wall(lambda: asyncio.run(drive(service)))()
        finally:
            service.close()

    base, _, fresh = _sample(_wall(uncached), repeats, kernel)
    units, kms, envs = _sample(served, repeats, kernel)
    rate = sum(e.get("cache") in ("memory", "disk", "coalesced") for e in envs) / len(envs)
    got = Measured(units, kms, {"requests": len(envs), "distinct": len(fresh), "hit_rate": rate},
                   ratio=base / units)
    for env in envs:
        want = fresh.get(env.get("fingerprint"))
        if "error" in env or want is None or (
                schedule_bits(env["result"]) != schedule_bits(want)):
            got.problems.append(f"oracle: served != fresh ({env.get('error') or env['cache']})")
    return got


def _explore_cells() -> List[Dict[str, Any]]:
    """Elliptic J=1 + biquad/diffeq J=1,2 x 4 configs x 3 clocks = 60 cells."""
    from repro.explore import build_grid

    configs, clocks = ("1A1M", "2A1M", "2A2M", "3A2M"), (40, 50, 100)
    grid = build_grid(["elliptic"], configs, clocks=clocks) + build_grid(
        ["biquad", "diffeq"], configs, clocks=clocks, unfolds=[1, 2])
    return [{"grid": "headline", "cells": [spec.as_json() for spec in grid]}]


def _replay_explore(cell, repeats, kernel) -> Measured:
    """Explorer vs exhaustive sweep at ``workers=1`` from cleared caches;
    the explored frontiers must equal the exhaustive ones."""
    from repro.explore import CellSpec, explore
    from repro.explore.bounds import clear_caches

    specs = [CellSpec.from_json(raw) for raw in cell["cells"]]

    def run(mode):
        clear_caches()
        rep = explore(specs, mode=mode, workers=1)
        return json.loads(json.dumps({b: [p.as_json() for p in rep.frontier_points(b)]
                                      for b in sorted(rep.frontiers)})), rep

    base, _, (full, _) = _sample(_wall(lambda: run("exhaustive")), repeats, kernel)
    units, kms, (fronts, rep) = _sample(_wall(lambda: run("explore")), repeats, kernel)
    got = Measured(units, kms, dict(rep.counters, frontiers=fronts), ratio=base / units)
    if fronts != full:
        got.problems.append("oracle: explored frontier != exhaustive frontier")
    return got


def _replay_tracing(cell, repeats, kernel) -> Measured:
    """Untraced vs traced solves, timed in adjacent pairs so a host phase
    shifts both: the same answer at a bounded cost."""
    from repro.obs.tracer import tracing

    solve = _solver(cell)

    def traced():
        with tracing() as tr:
            return solve(), len(tr.events)

    kms, pairs = kernel(), [(_wall(solve)(), _wall(traced)()) for _ in range(max(repeats, 1))]
    (_, plain), (_, (res, events)) = pairs[-1]
    ratio = statistics.median(off / on for (off, _), (on, _) in pairs)
    got = Measured(None, kms, {"span_events": events}, ratio=ratio)
    if (res.length, res.schedule.start_map) != (plain.length, plain.schedule.start_map):
        got.problems.append("oracle: traced schedule != untraced schedule")
    return got


TIERS: Sequence[Tier] = (
    Tier("solve", _replay_solve, lambda: _SOLVE_CELLS),
    Tier("repair", _replay_repair, _repair_cells, floor=MIN_REPAIR_SPEEDUP),
    Tier("serve", _replay_serve, lambda: [{"workload": "demo", "workload_repeats": 8}],
         floor=MIN_SERVE_SPEEDUP, slack=True),
    Tier("explore", _replay_explore, _explore_cells, floor=MIN_EXPLORE_SPEEDUP,
         slack=True, full_only=True),
    Tier("tracing", _replay_tracing, lambda: _SOLVE_CELLS[::2], floor=1 / MAX_TRACED_OVERHEAD),
)


def label(cell: Dict[str, Any]) -> str:
    if "grid" in cell or "workload" in cell:
        return cell.get("workload") or f"{cell['grid']}[{len(cell['cells'])} cells]"
    text = f"{cell['bench']}@{cell['config']}/{cell['heuristic']}"
    return f"{text}/{cell['script']}" if "script" in cell else text


def load_kernel(root: str) -> Tuple[Callable[[], float], float]:
    """``(reference_kernel, REF_MS)`` from ``<root>/perfbench/common.py``."""
    import importlib.util

    path = os.path.join(root, "perfbench", "common.py")
    if not os.path.isfile(path):
        raise ReproError(f"{path} not found: perfcheck never gates raw times")
    spec = importlib.util.spec_from_file_location("_perfbench_common", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_kernel, float(module.REF_MS)


def judge(tier: Tier, pin: Dict[str, Any], got: Measured, ref: float, tolerance: float) -> List[str]:
    """Every way ``got`` misses its pinned cell."""
    problems = got.problems + [
        f"counter delta: {name} {got.counters.get(name)!r:.40} != pinned {want!r:.40}"
        for name, want in pin["counters"].items() if got.counters.get(name) != want]
    limit = pin.get("ref_ms", float("inf")) * (1.0 + tolerance)
    if got.units is not None and got.units * ref > limit:
        problems.append(f"wall-time regression: {got.units * ref:.2f} ref-ms > pinned "
                        f"{pin['ref_ms']:.2f} * {1.0 + tolerance:.2f} = {limit:.2f}")
    need = tier.floor / (1.0 + tolerance) if tier.slack else tier.floor
    if tier.floor and got.ratio < need:
        problems.append(f"ratio {got.ratio:.2f} below floor {need:.2f}")
    return problems


@dataclass
class PerfReport:
    """Aggregate perfcheck outcome, with the live and the pinned kernel."""

    rows: List[Measured] = field(default_factory=list)
    tolerance: float = TOLERANCE
    repeats: int = REPEATS
    elapsed: float = 0.0
    ref: float = 8.0
    stamp: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.rows) and not any(r.problems for r in self.rows)

    def render(self) -> str:
        """The verdict with the live and pinned kernel ms and the pins' commit
        and dirty flag, then one line per cell."""
        bad, s = sum(bool(r.problems) for r in self.rows), self.stamp
        live = statistics.median([r.kernel_ms for r in self.rows] or [0.0])
        lines = [f"perfcheck: {len(self.rows) - bad}/{len(self.rows)} golden cells within "
                 f"envelope (tolerance +{self.tolerance:.0%}, median-of-{self.repeats}) in "
                 f"{self.elapsed:.1f}s; kernel {live:.2f} ms live, {s.get('kernel_ms', 0):.2f} ms "
                 f"pinned at {str(s.get('commit'))[:12]} (dirty: {'yes' if s.get('dirty') else 'no'})"
                 + (f"; {bad} REGRESSED cell(s)" if bad else "")]
        for r in self.rows:
            line = f"  {'FAIL' if r.problems else 'ok':<4} {r.tier:<8} {r.label:<30}"
            if r.units is not None and r.pinned_ref_ms:
                got = r.units * self.ref
                line += (f" pinned {r.pinned_ref_ms:9.2f} ref-ms, measured {got:9.2f}"
                         f" (x{got / r.pinned_ref_ms:.2f})")
            if r.ratio is not None:
                line += f"  ratio {r.ratio:.2f}"
            lines.append(line)
            lines.extend(f"       - {p}" for p in r.problems)
        return "\n".join(lines)


def _tier_mean(name: str, rows: List[Measured], ref: float, tolerance: float) -> List[Measured]:
    """A row for the geometric mean of a tier's measured/pinned ratios: it
    scatters 1/sqrt(n) as much as one of its n cells, so it may exceed 1 by
    ``tolerance / sqrt(n)``, and catches a slowdown too thin for any cell."""
    ratios = [r.units * ref / r.pinned_ref_ms for r in rows if r.units and r.pinned_ref_ms]
    if len(ratios) < 2:
        return []
    mean, limit = statistics.geometric_mean(ratios), 1 + tolerance / len(ratios) ** 0.5
    return [Measured(None, statistics.median(r.kernel_ms for r in rows), {}, tier=name,
                     label=f"mean of {len(ratios)}: x{mean:.2f}", problems=[
                         f"tier regression: x{mean:.2f} > {limit:.2f}"] if mean > limit else [])]


def run_perfcheck(root: str = ".", tolerance: float = TOLERANCE,
                  repeats: int = REPEATS, smoke: bool = False) -> PerfReport:
    """Replay every cell pinned in ``<root>/PERF_PINS.json``.  ``smoke``
    skips the ``full_only`` tiers and floors the tolerance at TOLERANCE."""
    t0 = time.perf_counter()
    kernel, ref = load_kernel(root)
    path = os.path.join(root, PINS_FILE)
    if not os.path.isfile(path):
        raise ReproError(f"no pinned cells at {path}: run `rotsched perfcheck --record`")
    with open(path, "r", encoding="utf-8") as fh:
        pins = json.load(fh)
    if "tiers" not in pins:
        raise ReproError(f"{path} holds no tiers")
    tolerance = max(tolerance, TOLERANCE) if smoke else tolerance
    report = PerfReport(tolerance=tolerance, repeats=repeats, ref=ref,
                        stamp={k: v for k, v in pins.items() if k != "tiers"})
    for tier in (t for t in TIERS if not (smoke and t.full_only)):
        rows = []
        for pin in pins["tiers"].get(tier.name, ()):
            got = tier.replay(pin["cell"], repeats, kernel)
            got.problems = judge(tier, pin, got, ref, tolerance)
            got.tier, got.label, got.pinned_ref_ms = tier.name, label(pin["cell"]), pin.get("ref_ms")
            rows.append(got)
        report.rows += rows + _tier_mean(tier.name, rows, ref, tolerance)
    report.elapsed = time.perf_counter() - t0
    return report


def record_perfcheck(root: str = ".", repeats: int = REPEATS) -> str:
    """Pin every cell in ``<root>/PERF_PINS.json`` as the median of RECORD_PASSES
    sweeps, stamped with the commit, the dirty flag, the machine and kernel ms."""
    import platform
    import subprocess

    def git(*args: str) -> str:
        try:
            return subprocess.run(["git", "-C", root, *args], capture_output=True,
                                  text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return ""

    kernel, ref = load_kernel(root)
    tiers: Dict[str, List[Dict[str, Any]]] = {}
    cells = [(tier, cell) for tier in TIERS for cell in tier.cells()]
    sweeps = [[t.replay(c, repeats, kernel) for t, c in cells] for _ in range(RECORD_PASSES)]
    for (tier, cell), runs in zip(cells, zip(*sweeps)):
        bad = [p for got in runs for p in got.problems] + [
            "counters differ between sweeps" for got in runs if got.counters != runs[0].counters]
        if bad:
            raise ReproError(f"{tier.name} {label(cell)}: {bad[0]}")
        pin = {"cell": cell, "counters": runs[0].counters}
        if runs[0].units is not None:
            pin["ref_ms"] = round(statistics.median(got.units for got in runs) * ref, 3)
        tiers.setdefault(tier.name, []).append(pin)
    changed = [ln for ln in git("status", "--porcelain").splitlines() if PINS_FILE not in ln]
    doc = {"commit": git("rev-parse", "HEAD") or "unknown", "dirty": bool(changed),
           "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                       "python": platform.python_version()},
           "kernel_ms": round(statistics.median(g.kernel_ms for s in sweeps for g in s), 3),
           "ref_ms": ref, "repeats": [RECORD_PASSES, repeats], "tiers": tiers}
    path = os.path.join(root, PINS_FILE)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path
