"""Convergence tracking and visualization for rotation heuristics.

Section 5 of the paper studies how fast phases of different sizes reach
the optimum ("the convergence speed is faster when the rotation size is
large ... irregularities exist").  This module provides the measurement
infrastructure: an instrumented tracker recording the best-so-far wrapped
length after every rotation, sweep helpers comparing phase sizes and
heuristics, and a dependency-free SVG line chart of the trajectories.
"""

from __future__ import annotations

import html
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dfg.graph import DFG
from repro.schedule.resources import ResourceModel
from repro.core.phases import BestTracker, HEURISTICS, rotation_phase
from repro.core.rotation import RotationState

_SERIES_COLORS = ["#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1", "#76b7b2",
                  "#edc948", "#9c755f"]


@dataclass
class RecordingTracker(BestTracker):
    """A BestTracker that also records the best-length trajectory."""

    history: List[int] = field(default_factory=list)

    def offer(self, state: RotationState):
        wrapped = super().offer(state)
        self.history.append(self.length)
        return wrapped

    def replayed(self, count: int) -> None:
        super().replayed(count)
        self.history.extend([self.length] * count)


@dataclass(frozen=True)
class ConvergenceCurve:
    """One labelled trajectory: best length after each rotation."""

    label: str
    history: Tuple[int, ...]

    @property
    def final(self) -> int:
        return self.history[-1] if self.history else 0

    def rotations_to(self, target: int) -> Optional[int]:
        """Index of the first rotation reaching ``target`` (None = never)."""
        for i, length in enumerate(self.history):
            if length <= target:
                return i
        return None


def phase_size_sweep(
    graph: DFG,
    model: ResourceModel,
    sizes: Sequence[int],
    beta: int = 40,
    priority="descendants",
) -> List[ConvergenceCurve]:
    """One single-size phase per entry of ``sizes``, each from the initial
    schedule (Heuristic 1 restricted to one size) — the paper's Section 5
    convergence experiment."""
    curves = []
    for size in sizes:
        initial = RotationState.initial(graph, model, priority)
        tracker = RecordingTracker()
        tracker.offer(initial)
        rotation_phase(initial, size, beta, tracker)
        curves.append(ConvergenceCurve(f"size {size}", tuple(tracker.history)))
    return curves


def heuristic_sweep(
    graph: DFG,
    model: ResourceModel,
    beta: Optional[int] = None,
    priority="descendants",
) -> List[ConvergenceCurve]:
    """Best-length trajectories of Heuristic 1 vs Heuristic 2."""
    curves = []
    for name, fn in HEURISTICS.items():
        tracker = RecordingTracker()
        # re-run the heuristic logic against a recording tracker by
        # monkey-free composition: both heuristics accept a cap, so we
        # re-implement their loops via rotation_phase with the recorder.
        initial = RotationState.initial(graph, model, priority)
        tracker.offer(initial)
        b = beta if beta is not None else max(8, 2 * graph.num_nodes)
        sigma = max(1, initial.length - 1)
        if name == "h1":
            for size in range(1, sigma + 1):
                rotation_phase(initial, size, b, tracker)
        else:
            state = initial
            for size in range(sigma, 0, -1):
                state = rotation_phase(state, size, b, tracker)
                state = RotationState.initial(graph, model, priority, retiming=state.retiming)
                tracker.offer(state)
        curves.append(ConvergenceCurve(name.upper(), tuple(tracker.history)))
    return curves


def convergence_svg(
    curves: Sequence[ConvergenceCurve],
    title: str = "convergence",
    width: int = 560,
    height: int = 300,
) -> str:
    """Render trajectories as an SVG step chart (best length vs rotation)."""
    pad_l, pad_b, pad_t, pad_r = 46, 32, 28, 110
    xs = max((len(c.history) for c in curves), default=1)
    lo = min((min(c.history) for c in curves if c.history), default=0)
    hi = max((max(c.history) for c in curves if c.history), default=1)
    span = max(1, hi - lo)

    def x(i: int) -> float:
        return pad_l + (width - pad_l - pad_r) * i / max(1, xs - 1)

    def y(v: int) -> float:
        return height - pad_b - (height - pad_t - pad_b) * (v - lo) / span

    body = [
        f'<text x="{pad_l}" y="16" font-weight="bold">{html.escape(title)}</text>',
        f'<line x1="{pad_l}" y1="{height - pad_b}" x2="{width - pad_r}" '
        f'y2="{height - pad_b}" stroke="#333"/>',
        f'<line x1="{pad_l}" y1="{pad_t}" x2="{pad_l}" y2="{height - pad_b}" stroke="#333"/>',
        f'<text x="{(width - pad_r + pad_l) // 2}" y="{height - 8}" '
        'text-anchor="middle">rotations</text>',
    ]
    for v in range(lo, hi + 1):
        body.append(
            f'<text x="{pad_l - 6}" y="{y(v) + 4}" text-anchor="end">{v}</text>'
        )
        body.append(
            f'<line x1="{pad_l}" y1="{y(v)}" x2="{width - pad_r}" y2="{y(v)}" '
            'stroke="#eee"/>'
        )
    for idx, curve in enumerate(curves):
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        points = []
        for i, v in enumerate(curve.history):
            if i:
                points.append(f"{x(i):.1f},{y(curve.history[i - 1]):.1f}")
            points.append(f"{x(i):.1f},{y(v):.1f}")
        if points:
            body.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.8" '
                f'points="{" ".join(points)}"/>'
            )
        ly = pad_t + 16 * idx
        body.append(
            f'<rect x="{width - pad_r + 8}" y="{ly - 8}" width="10" height="10" fill="{color}"/>'
        )
        body.append(
            f'<text x="{width - pad_r + 22}" y="{ly + 1}">'
            f"{html.escape(curve.label)} (-> {curve.final})</text>"
        )
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"
